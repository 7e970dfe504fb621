#!/usr/bin/env python3
"""Build xqbench from source and run one workload.

Usage (from the repository root):

    python3 xqbench/run.py --workload repeat|adhoc|serve --seed N \
        --seconds S --trace 0|1

The first call configures and builds the library and the benchmark program in
Release into the build directory ($CARGO_TARGET_DIR, default
.bench_build); later calls only re-check the build. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. A traced run writes its spans to <build dir>/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> bool:
    # Keep the compiler's temporary files inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j4",
                  "--target", "xqbench"])
    for step in steps:
        if subprocess.run(step, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            print("xqbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["repeat", "adhoc", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    if not build(build_dir):
        return 3

    command = [str(build_dir / "xqbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    # Plan verification stays at its default (off in Release builds):
    # never let the caller's environment switch it on.
    env = {k: v for k, v in os.environ.items() if k != "XQJG_VALIDATE_PLANS"}
    try:
        child = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"xqbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = child.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("xqbench: the benchmark printed no result", file=sys.stderr)
        return child.returncode or 5
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
