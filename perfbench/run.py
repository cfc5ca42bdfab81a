#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see WORKLOADS.md).

    python3 perfbench/run.py --workload olap_join --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The engine and the perfbench binary are
built from source, Release, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). With --trace 0 the window is split over PROCESSES
cold processes (each sets up, calibrates and measures its share) and every
metric is the median over them: the calibrator re-measures the host in each
process, and one process whose reading flips a join plan is outvoted rather
than moving the run. The last line printed is the run's JSON result; the
exit code is non-zero on a wrong answer or a failed build.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap_join", "olap_scan_agg", "serve_mixed")
PROCESSES = 3
CHILD_TIMEOUT_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no engine sources beside perfbench/; run from a full checkout")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return out


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny tables, seconds per run")
    args = ap.parse_args()

    out = build()
    binary = os.path.join(out, "perfbench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")

    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd = base + ["--seconds", str(args.seconds), "--trace", "1", "--trace-out",
                      os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
        code, text = run(cmd)
        sys.stdout.write(text)
        result = last_json(text)
    else:
        code, result, parts = 0, None, []
        for _ in range(PROCESSES):
            c, text = run(base + ["--seconds", "%.6g" % (args.seconds / PROCESSES), "--trace", "0"])
            sys.stdout.write(text)
            part = last_json(text)
            if part is None or "metrics" not in part:
                fail("a measuring process printed no result")
            code = code or c
            parts.append(part)
        result = {
            "correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": {k: {"value": statistics.median(p["metrics"][k]["value"] for p in parts),
                            "unit": v["unit"]}
                        for k, v in parts[0]["metrics"].items()},
        }
        print(json.dumps(result))
    sys.stdout.flush()
    want = declared_metrics(args.trace)
    if code == 0 and result is not None and want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("metrics differ from BENCHMARK.json: %s vs %s" % (sorted(got), sorted(want)))
    sys.exit(code)


if __name__ == "__main__":
    main()
