#!/usr/bin/env bash
# Tier-1 verify + benchmark smoke run, mirroring the CI matrix locally.
#
# Usage: ./ci.sh [build-dir]           build + tests + bench smoke +
#                                      BENCH_ci.json (the CI artifact)
#        ./ci.sh --asan [build-dir]    Debug ASan/UBSan build + full tests
#        ./ci.sh --tsan [build-dir]    Debug TSan build + the parallel
#                                      executor tests (plan/exec/thread_pool)
#        ./ci.sh --analyze [build-dir] static analysis: engine lint (always),
#                                      clang -Werror=thread-safety build and
#                                      clang-tidy (each skipped with a notice
#                                      when the tool is not installed; CI's
#                                      analyze job has both)
set -euo pipefail

MODE=default
case "${1:-}" in
  --asan) MODE=asan; shift ;;
  --tsan) MODE=tsan; shift ;;
  --analyze) MODE=analyze; shift ;;
esac

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [ "$MODE" = "analyze" ]; then
  BUILD_DIR="${1:-build-analyze}"

  echo "== engine lint (tools/lint_engine.py) =="
  python3 tools/lint_engine.py --self-test
  python3 tools/lint_engine.py src

  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang thread-safety analysis (-Werror=thread-safety) =="
    # Bench + examples stay ON: the annotations must hold for every caller
    # of the concurrency layer, not just the library.
    cmake -B "$BUILD_DIR" -S . \
      -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
      -DCCDB_WERROR_THREAD_SAFETY=ON
    cmake --build "$BUILD_DIR" -j "$JOBS"
  else
    echo "NOTICE: clang++ not installed; skipping the thread-safety build" \
         "(the CI analyze job runs it)"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (.clang-tidy, WarningsAsErrors) =="
    if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
      cmake -B "$BUILD_DIR" -S . >/dev/null
    fi
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "$BUILD_DIR" -quiet "src/.*\.cc$"
    else
      find src -name '*.cc' -print0 | \
        xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$BUILD_DIR" --quiet
    fi
  else
    echo "NOTICE: clang-tidy not installed; skipping" \
         "(the CI analyze job runs it)"
  fi

  echo "OK (analyze)"
  exit 0
fi

if [ "$MODE" = "asan" ]; then
  BUILD_DIR="${1:-build-asan}"
  echo "== configure (ASan/UBSan) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCCDB_BUILD_BENCH=OFF -DCCDB_BUILD_EXAMPLES=OFF
  echo "== build =="
  cmake --build "$BUILD_DIR" -j "$JOBS"
  echo "== tests under ASan/UBSan =="
  # sim_integration_test asserts Fig-10 miss-count inequalities that depend
  # on real heap addresses; ASan's redzoned allocator shifts the layout and
  # the strict inequalities are not guaranteed there (covered by the
  # regular-build tier-1 run instead).
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -E 'sim_integration_test'
  echo "OK (asan)"
  exit 0
fi

if [ "$MODE" = "tsan" ]; then
  BUILD_DIR="${1:-build-tsan}"
  echo "== configure (TSan) =="
  # Bench stays ON here: the concurrent_serving smoke run below is the TSan
  # pass over the whole serving stack (server threads + plan cache + morsel
  # yielding on the shared pool).
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O1 -g -fsanitize=thread" \
    -DCCDB_BUILD_BENCH=ON -DCCDB_BUILD_EXAMPLES=OFF
  echo "== build =="
  cmake --build "$BUILD_DIR" -j "$JOBS"
  echo "== parallel executor tests under TSan =="
  # plan_test, rich_algebra_test and expr_test run the operators (including
  # the parallel multi-key aggregate, outer/anti/semi join, and
  # OR-expression union paths) at parallelism {1,2,8}; stats_test runs the
  # reordered join chains at parallelism {1,2,8} and the shared lazy stats
  # cache; thread_pool_test hammers the pool itself; serve_test and
  # concurrent_exec_test drive the serving front end, the stats-vs-append
  # race, and two concurrent plans on one pool; shared_scan_test runs
  # concurrent plans through one filter cache. TSan is the real reviewer
  # for all of them.
  # Anchored alternation: unanchored, 'exec_test' would also pull in
  # concurrent_exec_test (running it twice) and any future *_exec_test into
  # this filter silently.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '^(plan_test|rich_algebra_test|expr_test|exec_test|thread_pool_test|stats_test|serve_test|concurrent_exec_test|shared_scan_test|mem_arena_test)$'
  echo "== concurrent serving smoke under TSan =="
  "$BUILD_DIR/concurrent_serving" --smoke
  echo "== shared scan smoke under TSan =="
  # K client threads filtering one table through the server's filter
  # cache: the TSan pass over the cache's shared lists, which concurrent
  # Selects read and fill.
  "$BUILD_DIR/shared_scan" --smoke
  echo "== tlb_pages smoke under TSan =="
  # Arena allocate/advise/free cycles (mmap registry under the arena mutex)
  # exercised from the huge-page A/B kernels.
  "$BUILD_DIR/tlb_pages" --smoke
  echo "OK (tsan)"
  exit 0
fi

BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== bench smoke =="
# fig9 sweeps radix-cluster over cardinalities; the default (non --full)
# scale is a reduced grid that keeps CI fast while still touching the
# cluster kernels and the cost model.
"$BUILD_DIR/fig9_radix_cluster" --profile=x86

echo "== bench artifact (BENCH_ci.json) =="
# Parallel-join/group-by micro numbers + radix-cluster smoke, written as
# JSON so CI can upload the perf trajectory per commit.
"$BUILD_DIR/parallel_exec" --json="$BUILD_DIR/BENCH_ci.json"
# Serving-layer numbers (per-class p50/p99, qps, cache hit rate, fairness
# A/B) merged into the same artifact; the run itself asserts that fair
# dispatch beats FIFO on point-query tail latency.
"$BUILD_DIR/concurrent_serving" --json-merge="$BUILD_DIR/BENCH_ci.json"
# Shared-scan A/B (K same-table clients, filter cache on vs off) merged
# too; the run asserts the cache is >= 1.3x better on qps or p99 — a
# work-elimination win — and that, with the cache on, no filter was
# evaluated in full after warm-up.
"$BUILD_DIR/shared_scan" --json-merge="$BUILD_DIR/BENCH_ci.json"
# Huge-page vs base-page A/B (scan / gather / radix-cluster / join build on
# arena mappings) merged too. The section records page_size, thp_available
# and the huge-page bytes the kernel actually granted; when nothing was
# granted (THP off, locked-down kernel) it is marked
# tlb_pages_meaningful=false instead of reporting a fake speedup.
"$BUILD_DIR/tlb_pages" --json-merge="$BUILD_DIR/BENCH_ci.json"

echo "== examples smoke =="
# Each example self-checks its results with CCDB_CHECK; a clean exit is the
# oracle passing.
"$BUILD_DIR/quickstart" > /dev/null
"$BUILD_DIR/mil_pipeline" > /dev/null
"$BUILD_DIR/olap_item_table" > /dev/null
echo "OK"
