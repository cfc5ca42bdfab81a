#!/usr/bin/env python3
"""The benchmark's own tests, at smoke scale (a few seconds per workload).

    python3 perfbench/selftest.py

Checks, for every workload: the untraced and the traced run succeed with
every answer right and print exactly the metrics BENCHMARK.json declares;
the traced run writes spans for every layer boundary it crosses; a wrong
answer is counted and fails the run; the benchmark refuses to run without
the engine sources; and no benchmark source uses the API that ROADMAP may
delete.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPANS = {
    "olap_join": {"query", "model.lower", "exec.execute"},
    "olap_scan_agg": {"query", "model.lower", "exec.execute"},
    "serve_mixed": {"serve.submit", "serve.queue", "serve.exec", "query",
                    "model.lower", "exec.execute"},
}
FORBIDDEN = [r"\bPredicate\b", r"\bGroupBySum\b", r"exec/ops\.h", r"\bpartitions\b",
             r"\bexchange\b", r"shared_scan\s*=\s*false", r"\.profile\s*="]

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def run(args, cwd=ROOT):
    p = subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True,
                       text=True, timeout=600)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, res, err = run(["--workload", name, "--seed", "7", "--seconds", "1",
                                  "--trace", str(trace), "--smoke"])
            what = "%s trace=%d" % (name, trace)
            check(code == 0, what + " exited %d: %s" % (code, err[-500:]))
            if res is None:
                check(False, what + " printed no result")
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, what + " keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  what + " answers: %s" % {k: res[k] for k in ("correct", "attempted", "failed")})
            declared = spec["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == {m["name"]: m["unit"] for m in declared}, what + " metric set")
            if not trace:
                for k, v in res["metrics"].items():
                    check(v["value"] > 0, "%s: %s is %r" % (what, k, v["value"]))
                continue
            path = os.path.join(build, "traces", "%s-seed7.jsonl" % name)
            check(os.path.isfile(path), what + " wrote no trace")
            if os.path.isfile(path):
                with open(path) as f:
                    spans = [json.loads(l) for l in f.read().splitlines()[1:]]
                names = {s["name"] for s in spans}
                check(SPANS[name] <= names, what + " spans %s" % sorted(names))
                ids = {s["id"] for s in spans}
                check(all(s["parent"] == 0 or s["parent"] in ids for s in spans),
                      what + " dangling span parent")

    # A wrong answer is counted, reported and fails the run.
    binary = os.path.join(build, "perfbench")
    p = subprocess.run([binary, "--workload", "olap_scan_agg", "--seed", "7", "--seconds", "1",
                        "--trace", "0", "--smoke", "--inject-wrong-answers"],
                       capture_output=True, text=True, timeout=300)
    res = json.loads(p.stdout.strip().splitlines()[-1])
    check(p.returncode != 0 and not res["correct"] and res["failed"] >= 1,
          "injected wrong answers not caught: exit %d, %s" % (p.returncode, res))

    # Without the engine sources beside it, the benchmark fails and prints
    # no result.
    bare = os.path.join(build, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    p = subprocess.run(spec["command"] + ["--workload", "olap_join", "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180,
                       env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    check(p.returncode != 0 and not p.stdout.strip(), "bare directory: exit %d" % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for fn in sorted(os.listdir(HERE)):
        if not fn.endswith((".cc", ".h")):
            continue
        with open(os.path.join(HERE, fn)) as f:
            text = f.read()
        for pat in FORBIDDEN:
            check(re.search(pat, text) is None, "%s uses %s" % (fn, pat))

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
