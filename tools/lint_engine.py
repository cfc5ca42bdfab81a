#!/usr/bin/env python3
"""Engine-specific lint: repo invariants the generic tools can't check.

Clang Thread Safety Analysis proves the locking protocol and clang-tidy
covers generic bug patterns; this pass enforces the conventions that are
*ours*:

  raw-buffer       No naked `new T[]` / malloc / calloc / realloc / free —
                   and no direct mmap / munmap / mremap page mappings — for
                   data buffers outside src/bat/ and src/mem/. BAT/chunk
                   memory goes through the owning layers (util/aligned.h,
                   bat/), and page-granular allocations go through the arena
                   (mem/arena.h), where huge-page policy, alignment and
                   registry-routed frees are audited. The mem/ exemption is
                   what allows arena.cc's own mmap internals.
  std-mutex        No std::mutex / std::condition_variable / std::lock_guard
                   / std::unique_lock outside util/thread_annotations.h —
                   engine code uses ccdb::Mutex / MutexLock / CondVar so the
                   thread-safety analysis can see every lock.
  unguarded-mutex  Every `Mutex` member must have at least one field
                   annotated CCDB_GUARDED_BY(that mutex) in the same file; a
                   mutex protecting nothing visible is either dead or its
                   guarded state is unannotated (invisible to the analysis).
  dropped-status   A statement-position call of a known Status/StatusOr-
                   returning function discards the error. The compiler
                   enforces this soundly via [[nodiscard]] +
                   -Werror=unused-result; this mirror makes the rule visible
                   to the self-test and to files that are not compiled.
  nodiscard-status A definition of `class Status` / `class StatusOr` must
                   carry [[nodiscard]] — it is what arms dropped-status
                   checking in the compiler.
  undated-todo     TODOs carry a date — `TODO(YYYY-MM-DD): ...` — so stale
                   ones are visible in review.
  table-identity   Hashing or comparing `Table*` pointers as identities
                   (plan-cache fingerprints, filter-cache table entries) is
                   only allowed with an explicit justification, because
                   pointer identity silently excludes equal copies and
                   dangles when the table dies first.

A violation is suppressed by a justification marker on the same line or one
of the two lines above it:   // lint: allow(<rule>[: reason])

Usage:
  tools/lint_engine.py [paths...]   lint (default: src/); exit 1 on findings
  tools/lint_engine.py --self-test  run the rules over tools/lint_fixtures/
                                    and verify every seeded violation is
                                    flagged and the clean file is clean
"""

import os
import re
import sys

EXTS = (".h", ".cc", ".cpp")

ALLOW_RE = re.compile(r"lint:\s*allow\((?P<rule>[\w-]+)")

# raw-buffer: allocation/deallocation primitives that bypass the owning
# buffer layers. `new T[...]`, malloc-family, free, and raw page mappings
# (mmap-family) that bypass the arena's huge-page policy and block registry.
RAW_BUFFER_RE = re.compile(
    r"(\bnew\s+[A-Za-z_][\w:<>, ]*\s*\[)"
    r"|(\b(?:malloc|calloc|realloc|free)\s*\()"
    r"|(\b(?:mmap|munmap|mremap)\s*\()"
)
RAW_BUFFER_EXEMPT_DIRS = ("src/bat", "src/mem")

STD_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|condition_variable"
    r"(_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
STD_MUTEX_EXEMPT_FILES = ("util/thread_annotations.h",)

MUTEX_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;")

# Status-returning declarations/definitions: `Status Name(`,
# `StatusOr<...> Name(`, optionally preceded by qualifiers. Good enough to
# harvest the engine's fallible-API name set.
STATUS_DECL_RE = re.compile(
    r"\b(?:static\s+|virtual\s+)?(?:Status|StatusOr<[^;{]*?>)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)
# Statement-position call: optional receiver chain, then the name, with the
# closing of the statement on the same line. Deliberately conservative —
# the compiler's -Werror=unused-result is the sound enforcement.
BARE_CALL_TEMPLATE = r"^\s*(?:[A-Za-z_]\w*(?:\.|->))*({names})\s*\(.*\)\s*;\s*(?://.*)?$"

NODISCARD_CLASS_RE = re.compile(r"\bclass\s+(Status|StatusOr)\b")

TODO_RE = re.compile(r"\bTODO\b")
DATED_TODO_RE = re.compile(r"\bTODO\(\d{4}-\d{2}-\d{2}\)")

TABLE_IDENTITY_RE = re.compile(
    r"(reinterpret_cast\s*<\s*u?intptr_t\s*>\s*\([^)]*table)"
    r"|((?:\.|->)table\s*==)|(==\s*(?:\w+(?:\.|->))*table\b)",
    re.IGNORECASE,
)

# Non-Status declarations of the same name anywhere in the scanned set make
# a harvested name ambiguous (e.g. ThreadPool::Submit returns void while
# Server::Submit returns StatusOr) — skip those to stay zero-false-positive.
NON_STATUS_DECL_RE = re.compile(
    r"\b(?:void|bool|int|unsigned|size_t|auto|u?int\d+_t|double|float|char)"
    r"\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)

# A bare-call line is only a statement when it is not the continuation of a
# multi-line expression (CCDB_ASSIGN_OR_RETURN(x,\n  Call(...)); etc.).
CONTINUATION_TAIL_RE = re.compile(r"[,(&|+\-*/=?:<]\s*(?://.*)?$")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(lines, idx, rule):
    """True when line idx (0-based) or one of the three preceding lines
    carries a `lint: allow(<rule>)` marker."""
    for j in range(max(0, idx - 3), idx + 1):
        m = ALLOW_RE.search(lines[j])
        if m and m.group("rule") == rule:
            return True
    return False


def in_block_comment_map(lines):
    """Per-line flag: line is (entirely) inside a /* */ block comment."""
    flags = []
    depth = 0
    for line in lines:
        flags.append(depth > 0 and "*/" not in line)
        depth += line.count("/*") - line.count("*/")
        depth = max(depth, 0)
    return flags


def is_comment(line):
    return line.lstrip().startswith(("//", "*", "/*"))


def harvest_status_names(files):
    names = set()
    for path in files:
        try:
            text = open(path, encoding="utf-8").read()
        except OSError:
            continue
        for m in STATUS_DECL_RE.finditer(text):
            names.add(m.group(1))
    for path in files:
        try:
            text = open(path, encoding="utf-8").read()
        except OSError:
            continue
        for m in NON_STATUS_DECL_RE.finditer(text):
            names.discard(m.group(1))
    # Constructor-like factory names that read naturally in statement
    # position but never drop errors (they RETURN the status object itself).
    names -= {
        "Ok", "InvalidArgument", "OutOfRange", "NotFound",
        "FailedPrecondition", "ResourceExhausted", "Unimplemented",
        "Unavailable", "Internal", "Cancelled", "DeadlineExceeded",
    }
    return names


def lint_file(path, rel, lines, status_names, findings):
    bare_call_re = None
    if status_names:
        bare_call_re = re.compile(
            BARE_CALL_TEMPLATE.format(names="|".join(sorted(status_names)))
        )
    block_comment = in_block_comment_map(lines)
    mutexes = {}  # name -> line no

    for i, line in enumerate(lines):
        n = i + 1
        if block_comment[i] or is_comment(line):
            # undated-todo applies to comments — everything else is code.
            if TODO_RE.search(line) and not DATED_TODO_RE.search(line):
                if not allowed(lines, i, "undated-todo"):
                    findings.append(Finding(
                        rel, n, "undated-todo",
                        "TODO without a date; write TODO(YYYY-MM-DD): ..."))
            continue
        if TODO_RE.search(line) and not DATED_TODO_RE.search(line):
            if not allowed(lines, i, "undated-todo"):
                findings.append(Finding(
                    rel, n, "undated-todo",
                    "TODO without a date; write TODO(YYYY-MM-DD): ..."))

        if RAW_BUFFER_RE.search(line):
            exempt = any(
                rel.startswith(d + os.sep) or rel.startswith(d + "/")
                for d in RAW_BUFFER_EXEMPT_DIRS)
            if not exempt and not allowed(lines, i, "raw-buffer"):
                findings.append(Finding(
                    rel, n, "raw-buffer",
                    "naked buffer allocation outside bat//mem/; use the "
                    "owning layer (util/aligned.h, bat/) or justify with "
                    "lint: allow(raw-buffer: ...)"))

        if STD_MUTEX_RE.search(line):
            if not rel.endswith(STD_MUTEX_EXEMPT_FILES) and \
               not allowed(lines, i, "std-mutex"):
                findings.append(Finding(
                    rel, n, "std-mutex",
                    "raw std:: synchronization primitive; use ccdb::Mutex / "
                    "MutexLock / CondVar (util/thread_annotations.h) so the "
                    "thread-safety analysis can see the lock"))

        m = MUTEX_MEMBER_RE.match(line)
        if m:
            mutexes[m.group(1)] = n

        if bare_call_re:
            prev = ""
            for j in range(i - 1, -1, -1):
                if lines[j].strip() and not is_comment(lines[j]) \
                   and not block_comment[j]:
                    prev = lines[j].split("//")[0].rstrip()
                    break
            continuation = (line.count(")") > line.count("(")
                            or CONTINUATION_TAIL_RE.search(prev))
            m = None if continuation else bare_call_re.match(line)
            if m and not allowed(lines, i, "dropped-status"):
                findings.append(Finding(
                    rel, n, "dropped-status",
                    f"result of Status-returning '{m.group(1)}' is dropped; "
                    "check it, or (void)-cast with lint: allow(dropped-"
                    "status: reason)"))

        m = NODISCARD_CLASS_RE.search(line)
        if m and "{" in line and "[[nodiscard]]" not in line:
            if not allowed(lines, i, "nodiscard-status"):
                findings.append(Finding(
                    rel, n, "nodiscard-status",
                    f"class {m.group(1)} must be declared [[nodiscard]] so "
                    "dropped errors fail the build"))

        if TABLE_IDENTITY_RE.search(line) and "nullptr" not in line:
            if not allowed(lines, i, "table-identity"):
                findings.append(Finding(
                    rel, n, "table-identity",
                    "Table pointer used as an identity (hash/compare); equal "
                    "copies won't alias and dangling is silent — justify "
                    "with lint: allow(table-identity: ...)"))

    text = "\n".join(lines)
    for name, line_no in mutexes.items():
        if not re.search(r"CCDB_GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)",
                         text):
            idx = line_no - 1
            if not allowed(lines, idx, "unguarded-mutex"):
                findings.append(Finding(
                    rel, line_no, "unguarded-mutex",
                    f"Mutex member '{name}' has no CCDB_GUARDED_BY({name}) "
                    "field in this file; annotate what it protects or "
                    "justify with lint: allow(unguarded-mutex: ...)"))


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(EXTS):
                files.append(p)
        else:
            for root, _dirs, names in os.walk(p):
                for f in sorted(names):
                    if f.endswith(EXTS):
                        files.append(os.path.join(root, f))
    return files


def run(paths, repo_root):
    files = collect_files(paths)
    status_names = harvest_status_names(files)
    findings = []
    for path in files:
        rel = os.path.relpath(path, repo_root)
        try:
            lines = open(path, encoding="utf-8").read().splitlines()
        except OSError as e:
            findings.append(Finding(rel, 0, "io", str(e)))
            continue
        lint_file(path, rel, lines, status_names, findings)
    return findings


def self_test(repo_root):
    fixtures = os.path.join(repo_root, "tools", "lint_fixtures")
    findings = run([fixtures], repo_root)
    got = {(os.path.basename(f.path), f.rule) for f in findings}
    expected = {
        ("bad_raw_buffer.cc", "raw-buffer"),
        ("bad_unguarded_mutex.h", "std-mutex"),
        ("bad_unguarded_mutex.h", "unguarded-mutex"),
        ("bad_dropped_status.cc", "dropped-status"),
        ("bad_dropped_status.cc", "nodiscard-status"),
        ("bad_undated_todo.cc", "undated-todo"),
        ("bad_table_identity.cc", "table-identity"),
        # channel-shaped transport code: the raw-buffer and mutex rules
        # must demonstrably cover that idiom (queues, frame buffers).
        ("bad_dist_channel.cc", "raw-buffer"),
        ("bad_dist_channel.cc", "std-mutex"),
        ("bad_dist_channel.cc", "unguarded-mutex"),
        # arena-era rule: raw mmap outside mem/ bypasses the huge-page
        # arena; the exemption for src/mem/ itself is proven by the
        # lint_engine_src ctest pass over arena.cc's real mmap internals.
        ("bad_arena_mmap.cc", "raw-buffer"),
    }
    ok = True
    for want in sorted(expected):
        if want in got:
            print(f"self-test: flagged   {want[0]} [{want[1]}]")
        else:
            print(f"self-test: MISSED    {want[0]} [{want[1]}]")
            ok = False
    clean_hits = [f for f in findings if os.path.basename(f.path) == "clean.cc"]
    if clean_hits:
        ok = False
        for f in clean_hits:
            print(f"self-test: FALSE POSITIVE {f}")
    else:
        print("self-test: clean.cc  no findings")
    unexpected = {g for g in got if g not in expected
                  and g[0] != "clean.cc"}
    for g in sorted(unexpected):
        print(f"self-test: unexpected extra finding {g[0]} [{g[1]}]")
        ok = False
    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = argv[1:]
    if args and args[0] == "--self-test":
        return self_test(repo_root)
    paths = args or [os.path.join(repo_root, "src")]
    findings = run(paths, repo_root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_engine: {len(findings)} finding(s)")
        return 1
    print("lint_engine: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
