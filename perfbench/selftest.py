#!/usr/bin/env python3
"""Self-test of the benchmark, in a short-run mode (about a minute
plus the first build). Run it from the repository root:

    python3 perfbench/selftest.py

It asserts that
  * every metric BENCHMARK.json names is printed with its unit, by the
    measured run (end-to-end) and by the traced run (per-layer), on every
    workload, and that those runs pass their answer check;
  * a corrupted reference fingerprint fails the run;
  * a QUERY to an unregistered dataset is counted as failed.
Exit status 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT = ["--seed", "7", "--seconds", "1"]


def run(args):
    """Runs the benchmark; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def check_metrics(result, expected, label):
    problems = []
    if result is None:
        return [f"{label}: no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{label}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"{label}: metric {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, result = run(["--workload", workload, "--trace", trace] +
                               SHORT)
            problems += check_metrics(result, expected, label)
            if code != 0 or not (result or {}).get("correct"):
                problems.append(f"{label}: exit {code}, result {result}")
            print(f"selftest: {label}: exit {code}", flush=True)

    # A corrupted reference must fail the run: flip the last hex digit of
    # every serve_small fingerprint in a scratch copy of the references.
    refdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                          ".bench_build", "perfbench", "selftest-reference")
    shutil.rmtree(refdir, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), refdir)
    path = os.path.join(refdir, "serve_small.txt")
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        for line in lines:
            if not line.startswith("#"):
                qid, fp = line.split()
                line = f"{qid} {fp[:-1]}{'0' if fp[-1] != '0' else '1'}\n"
            f.write(line)
    code, result = run(["--workload", "serve_small", "--trace", "0",
                        "--refdir", refdir] + SHORT)
    if code == 0 or result is None or result["correct"] or \
            result["failed"] < 1:
        problems.append(f"corrupted reference: exit {code}, result {result}")
    print(f"selftest: corrupted reference: exit {code}", flush=True)
    shutil.rmtree(refdir, ignore_errors=True)

    # Queries to an unregistered dataset are failures, not wrong answers.
    code, result = run(["--workload", "serve_small", "--trace", "0",
                        "--inject-unregistered", "3"] + SHORT)
    if code == 0 or result is None or not result["correct"] or \
            result["failed"] != 3:
        problems.append(f"unregistered dataset: exit {code}, result {result}")
    print(f"selftest: unregistered dataset: exit {code}", flush=True)

    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
