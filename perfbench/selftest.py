#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Run from the repository root (it builds like run.py).  For every workload it
checks that a tiny run in each mode passes its correctness checks and emits
exactly the metrics BENCHMARK.json names, with their units, plus the
workload's own named metrics; that the two paper workloads mine the same
result digest; and that an injected wrong count drives fail_frac above 0.
Exit status 0 when every check holds.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import WORKLOADS, build  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# The named metrics each workload prints besides the JSON result.
NAMED = {
    "paper_mine": ["mine_s", "setup_s", "peak_rss_mb", "fail_frac"],
    "paper_mine_auto": ["mine_s", "setup_s", "peak_rss_mb", "fail_frac"],
    "service_mix": ["svc_ops_per_s", "count_p50_ms", "count_p99_ms", "svc_mine_p50_ms",
                    "svc_mine_p90_ms", "setup_s", "peak_rss_mb", "fail_frac"],
    "stream_alert": ["stream_events_per_s", "append_p50_ms", "append_p99_ms", "setup_s",
                     "peak_rss_mb", "fail_frac"],
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"selftest: FAIL {what}", flush=True)


def run(binary, workload, trace, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    expect(proc.returncode == 0, f"{workload} trace={trace} {extra}: exit {proc.returncode}")
    result = json.loads(lines[-1]) if lines else {"metrics": {}}
    named = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2:
            named[parts[0]] = parts[1:]
    return result, named


def main():
    binary = build()
    if binary is None:
        print("selftest: build failed", file=sys.stderr)
        return 1
    digests = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, named = run(binary, workload, trace)
            label = f"{workload} trace={trace}"
            expect(result.get("correct") is True and result.get("failed") == 0,
                   f"{label}: correctness checks failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == want, f"{label}: metrics {sorted(got)} != BENCHMARK.json {sorted(want)}")
            if trace == 0:
                for name in NAMED[workload]:
                    expect(name in named, f"{label}: named metric {name} missing")
                if "result_digest" in named:
                    digests[workload] = named["result_digest"][0]
        faulty, named = run(binary, workload, 0, "--inject-fault")
        expect(faulty.get("correct") is False and faulty.get("failed", 0) > 0
               and float(named.get("fail_frac", ["0"])[0]) > 0.0,
               f"{workload}: an injected wrong count did not raise fail_frac")
    expect(len(digests) == 2 and len(set(digests.values())) == 1,
           f"paper workloads disagree on the result digest: {digests}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
