#!/usr/bin/env python3
"""Build and run the binsym exploration benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (a CMake project over the repo's
libraries) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload in its own process. The benchmark's report lines are
passed through; its last line, the JSON result, is checked against the
metric lists in BENCHMARK.json before it is printed. Any build or run
failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr)


def build(build_root):
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"),
                     "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "perfbench"


def check_result(line, trace):
    """The result must name exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if got != wanted:
        raise ValueError(f"metrics {got} do not match BENCHMARK.json {wanted}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-wrong-count", action="store_true",
                        help="shift every reference count so the gate trips")
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root)
    if binary is None:
        log("build failed")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_root / "perfbench-work")]
    if args.inject_wrong_count:
        cmd.append("--inject-wrong-count")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        check_result(lines[-1], args.trace)
    except (IndexError, ValueError, KeyError) as err:
        log(f"bad result: {err}")
        return 5
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
