#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  On first use it configures and builds the
driver (perfbench/perfbench.cpp plus the repository libraries it links) in
.bench_build/ under the current directory; later runs only rebuild what
changed.  Build output goes to standard error.  The driver's output passes
through unchanged: one "name value unit" line per metric, then the JSON
result as the last line.  Extra flags (--tiny, --inject-fault) pass through
to the driver.

`--workload all` runs every workload in turn with the same seed, checks that
paper_mine and paper_mine_auto mined the same result digest, and ends with
one JSON line whose metrics are keyed "<workload>.<metric>".

Exit status: the driver's, or 1 when the build fails (nothing is printed to
standard output then).
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
WORKLOADS = ["paper_mine", "paper_mine_auto", "service_mix", "stream_alert"]


def build():
    """Configure (once) and build the driver; return its path or None."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return None
    compiled = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j4"], stdout=sys.stderr)
    if compiled.returncode != 0:
        return None
    return BUILD_DIR / "perfbench"


def run_one(binary, workload, args, extra):
    """Run one workload, echoing its output; return (exit code, output lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def run_all(binary, args, extra):
    correct, attempted, failed, metrics, digests = True, 0, 0, {}, {}
    for workload in WORKLOADS:
        print(f"# {workload}", flush=True)
        code, lines = run_one(binary, workload, args, extra)
        if code != 0 or not lines:
            return code or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
        for line in lines:
            if line.startswith("result_digest "):
                digests[workload] = line.split()[1]
    if len(set(digests.values())) > 1:
        print(f"perfbench: paper workloads disagree on the result digest: {digests}",
              file=sys.stderr)
        correct = False
        failed += 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(binary, args, extra)
    code, _ = run_one(binary, args.workload, args, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
