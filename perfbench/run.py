#!/usr/bin/env python3
"""Build and run the flow-mod / lookup benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune from the sources in the current
directory, then runs it.  The benchmark's last line of standard output is
the result object; build output goes to standard error.  Exits non-zero
without a result when the repository sources are missing or the build
fails.  See perfbench/NOTES.md for what is measured.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
NEEDED = ["dune-project", os.path.join("lib", "ctrl", "service.ml"), os.path.join("perfbench", "bench.ml")]


def stop(proc):
    """Ask the process group to stop (the benchmark then removes its journal
    directories), kill it if it lingers, and wait for it."""
    os.killpg(proc.pid, signal.SIGTERM)
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def run(cmd, timeout, env, stdout):
    """Run cmd in its own process group, stopping the whole group on
    timeout.  Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, preexec_fn=os.setsid)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        return None
    except BaseException:
        stop(proc)
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    missing = [p for p in NEEDED if not os.path.isfile(p)]
    if missing:
        print("perfbench: not at the root of a fastrule checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2

    env = dict(os.environ)
    # Build and run from this checkout alone: no shared dune cache, and no
    # runtime or library knobs inherited from the caller's environment.
    env["DUNE_CACHE"] = "disabled"
    for knob in ("OCAMLRUNPARAM", "FASTRULE_DOMAINS"):
        env.pop(knob, None)

    code = run(["dune", "build", "--root", ".", "--profile", "release", "./perfbench/bench.exe"],
               BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        print("perfbench: build failed" if code is not None else "perfbench: build timed out",
              file=sys.stderr)
        return 1

    sys.stdout.flush()
    code = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", os.path.join("perfbench", "out")],
               RUN_TIMEOUT_S, env, None)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
