"""Seconds-long smoke test of the benchmark.

    python3 bench/selftest.py

Runs every workload for one second untraced and traced, and checks that each
prints every metric that BENCHMARK.json names, with its unit and direction,
that every op matched its pinned digest, and that the top-level layer spans
cover at least 90 % of each traced op. Then it corrupts the pinned digests of
one workload and checks that every op of that workload fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_COVERAGE = 0.9


def bench(workload, trace, golden=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"selftest: {workload} trace={trace} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def expect(ok, what):
    if not ok:
        sys.exit(f"selftest: FAILED {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            where = f"{workload} trace={trace}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: every op matches its digest ({result['failed']} failed)")
            defs = {d["name"]: d for d in spec[kind]}
            expect(set(result["metrics"]) == set(defs), f"{where}: every {kind} metric")
            for name, metric in result["metrics"].items():
                expect(metric["unit"] == defs[name]["unit"], f"{where}: unit of {name}")
                expect(defs[name]["better"] in ("lower", "higher"), f"direction of {name}")
                expect(math.isfinite(metric["value"]), f"{where}: {name} is finite")
                if kind == "end_to_end":
                    expect(metric["value"] > 0, f"{where}: {name} is positive")
            if trace:
                coverage = result["metrics"]["trace.top_span_coverage"]["value"]
                expect(coverage >= MIN_COVERAGE, f"{where}: span coverage {coverage:.3f}")
            print(f"selftest: {where} ok, {result['attempted']} ops")

    golden = json.loads((BENCH / "golden.json").read_text())
    corrupted = {k: "0" * 64 if k.startswith("transfer_compare/") else v
                 for k, v in golden.items()}
    path = ROOT / ".bench_out" / "golden-corrupted.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(corrupted))
    result = bench("transfer_compare", 0, golden=path)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a corrupted digest fails its op")
    print(f"selftest: corrupted digests failed {result['failed']} of {result['attempted']} ops")
    print("selftest: ok")


if __name__ == "__main__":
    main()
