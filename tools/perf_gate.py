#!/usr/bin/env python3
"""Performance gate: perfbench at a base revision against this tree.

    python3 tools/perf_gate.py --base <rev>

Checks <rev> out into a temporary git worktree and runs every workload of
this tree's BENCHMARK.json through that file's `command` on both trees, in
PAIRS alternating base/head pairs with seeds 1..PAIRS on both sides. The
worktree and both build directories live in one temporary directory,
removed on exit. Workloads, metrics, directions and bounds all come from
BENCHMARK.json, so the gate cannot drift from the benchmark.

Per (workload, end-to-end metric) the verdict is `regressed` when the head
median is worse than the base median by more than the metric's bound and
either the base runs' spread (IQR / median) is within the bound or every
head run is worse than every base run; `unresolved` when only the base
spread keeps it from that; `ok` otherwise.

Exit status: 0 pass; 1 when a head run exits non-zero, prints
"correct": false or fails more queries than its base partner, or a metric
regressed; 2 on a usage, worktree or build error, or a run that prints no
result line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Five pairs give each side a median and quartiles; with SECONDS below one
# pass over the three workloads takes ~25 s a side on a 4-vCPU VM.
PAIRS = 5
# Long enough for hundreds of queries per run on every workload, short
# enough that the whole gate fits a CI job.
SECONDS = 5


def parse_result(stdout):
    """perfbench's last stdout line as a dict, or None when there is none."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def verdict(metric, base, head):
    """The comparison row of one metric's base and head run values."""
    base_med, head_med = statistics.median(base), statistics.median(head)
    change = (head_med - base_med) / base_med
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    spread = (q3 - q1) / base_med
    if metric["better"] == "lower":
        worse_by, separated = change, min(head) > max(base)
    else:
        worse_by, separated = -change, max(head) < min(base)
    if worse_by <= metric["bound"]:
        result = "ok"
    elif spread <= metric["bound"] or separated:
        result = "regressed"
    else:
        result = "unresolved"
    return {"metric": metric["name"], "base": base_med, "head": head_med,
            "change": change, "spread": spread, "verdict": result}


def compare(bench, base_runs, head_runs):
    """Judges paired perfbench runs against BENCHMARK.json.

    `base_runs` and `head_runs` map each workload to its runs, a list of
    (exit code, parsed result line); run i of one side is paired with run
    i of the other. Returns (rows, problems, exit code): one row per
    (workload, end-to-end metric), the failed answer checks, and 0 or 1.
    """
    rows, problems = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        for i, ((_, base), (code, head)) in enumerate(
                zip(base_runs[workload], head_runs[workload])):
            run = f"{workload} pair {i + 1}: head"
            if code != 0:
                problems.append(f"{run} exited {code}")
            if head["correct"] is not True:
                problems.append(f"{run} printed correct {head['correct']}")
            if head["failed"] > base["failed"]:
                problems.append(f"{run} failed {head['failed']} queries, "
                                f"base {base['failed']}")
        for metric in bench["end_to_end"]:
            values = ([r["metrics"][metric["name"]]["value"]
                       for _, r in runs[workload]]
                      for runs in (base_runs, head_runs))
            rows.append(dict(verdict(metric, *values), workload=workload))
    failed = problems or any(r["verdict"] == "regressed" for r in rows)
    return rows, problems, 1 if failed else 0


def format_table(rows):
    lines = [f"{'workload':15} {'metric':20} {'base':>10} {'head':>10} "
             f"{'change':>8} {'base spread':>11}  verdict"]
    for r in rows:
        lines.append(f"{r['workload']:15} {r['metric']:20} "
                     f"{r['base']:>10.4g} {r['head']:>10.4g} "
                     f"{r['change']:>+8.1%} {r['spread']:>11.1%}  "
                     f"{r['verdict']}")
    return "\n".join(lines)


def measure(bench, base_tree, tmp):
    """Runs every pair; returns (base_runs, head_runs) or None on an error."""
    sides = {"base": (base_tree, {}), "head": (ROOT, {})}
    for seed in range(1, PAIRS + 1):
        order = ("base", "head") if seed % 2 else ("head", "base")
        for workload in (w["name"] for w in bench["workloads"]):
            for side in order:
                tree, runs = sides[side]
                proc = subprocess.run(
                    bench["command"] + ["--workload", workload, "--seed",
                                        str(seed), "--seconds", str(SECONDS),
                                        "--trace", "0"],
                    cwd=tree, stdout=subprocess.PIPE, text=True,
                    env=dict(os.environ,
                             CARGO_TARGET_DIR=os.path.join(tmp, side)))
                result = parse_result(proc.stdout)
                print(f"perf_gate: {side} {workload} seed {seed}: exit "
                      f"{proc.returncode}" + ("" if result else ", no result"),
                      file=sys.stderr, flush=True)
                if result is None:
                    return None
                runs.setdefault(workload, []).append((proc.returncode, result))
    return sides["base"][1], sides["head"][1]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare this tree against")
    base = parser.parse_args(argv).base
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tmp = tempfile.mkdtemp(prefix="perf_gate.")
    base_tree = os.path.join(tmp, "tree")
    git = ["git", "-C", ROOT, "worktree"]
    try:
        if subprocess.run(git + ["add", "--detach", "--quiet", base_tree,
                                 base + "^{commit}"]).returncode != 0:
            print(f"perf_gate: cannot check out {base}", file=sys.stderr)
            return 2
        runs = measure(bench, base_tree, tmp)
    finally:
        subprocess.run(git + ["remove", "--force", base_tree],
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(git + ["prune"])
    if runs is None:
        return 2
    rows, problems, code = compare(bench, *runs)
    print(f"perf gate: {base} vs this tree, {PAIRS} pairs of {SECONDS} s "
          "runs")
    print(format_table(rows))
    for problem in problems:
        print("FAIL: " + problem)
    print("perf gate: " + ("FAIL" if code else "pass"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
