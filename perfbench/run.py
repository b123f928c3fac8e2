#!/usr/bin/env python3
"""Builds and runs the end-to-end, per-layer benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --regenerate [--workload <name>]

Run it from the repository root. The engine libraries (../src) and the
perfbench binary are compiled with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Build output goes to a log file there,
so the binary's JSON result stays the last line of stdout. Every other
argument is handed to the binary unchanged (see src/main.cc).

Exit status: the binary's (0 = every answer matched its reference), or 2
when the sources are missing or the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_refine", "serve_small", "explore_cached")
BUILD_TIMEOUT_S = 850
# A run's time limit: this allowance for set-ups, warm-up and reporting
# (or a whole --regenerate), plus twice --seconds, which covers the
# measured pass and the traced pass of half its length.
RUN_ALLOWANCE_S = 110


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_timeout(args):
    """Seconds a binary run with these arguments may take."""
    seconds = 0.0
    if "--seconds" in args[:-1]:
        try:
            seconds = max(0.0, float(args[args.index("--seconds") + 1]))
        except ValueError:
            pass  # the binary rejects it
    return RUN_ALLOWANCE_S + 2 * seconds


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group.

    Always waits for the child, so nothing it started outlives this call.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                 stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as err:
                code = None
                print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-40:]
                sys.stderr.writelines(tail)
                print("perfbench: build failed; log in " + log_path,
                      file=sys.stderr)
                return None
    return os.path.join(bdir, "perfbench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    args = list(argv)
    if "--refdir" not in args:
        args += ["--refdir", os.path.join(HERE, "reference")]
    runs = [args]
    if "--regenerate" in args and "--workload" not in args:
        runs = [args + ["--workload", w] for w in WORKLOADS]
    code = 0
    for run_args in runs:
        timeout = run_timeout(run_args)
        try:
            code = run_group([binary] + run_args, timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {timeout:g} s", file=sys.stderr)
            return 2
        if code != 0:
            return code
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
