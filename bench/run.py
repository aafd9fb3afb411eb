"""hybridflow benchmark: one workload per process, closed loop, golden-checked outputs.

    python3 bench/run.py --workload ca_dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20     # every workload, untraced and traced
    python3 bench/run.py --record                   # re-pin bench/golden.json

With ``--workload`` it runs that workload in this process and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``. Names, units and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()
# single-threaded BLAS, set before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_REPEATS = 5        # set-ups timed per untraced run; setup_s is their median
KEPT_TRACED_ROUNDS = 2   # rounds whose spans are written out; later ones keep only totals


def _import_program():
    """Import the hybridflow of this checkout; exit 2 when the checkout has no sources."""
    if not (SRC / "hybridflow" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"bench: no hybridflow sources or configs under {ROOT}")
    sys.path.insert(0, str(SRC))
    import hybridflow
    if Path(hybridflow.__file__).resolve().parent != (SRC / "hybridflow").resolve():
        sys.exit(f"bench: imported hybridflow from {hybridflow.__file__}, not {SRC}")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "hybridflow").glob("*.py")))
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "src_lines": src_lines}


def tail(times):
    """Highest percentile with at least ten ops beyond it: (value, percentile, op count)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# Median of ten timings of reference_loop() on the 2-core VM where the benchmark
# was written; end-to-end times are reported at this reference speed.
REFERENCE_S = 0.0085


def reference_loop():
    """Fixed pure-Python work, timed beside the ops to measure the machine's speed."""
    table = {}
    for i in range(40000):
        table[i % 997] = table.get(i % 997, 0.0) + (i * 3) ** 0.5
    return sorted(table.items())


def time_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def per_op_median(rounds):
    """Per op, its median time over the rounds; every round repeats the same ops."""
    return [statistics.median(times) for times in zip(*rounds)]


class Runner:
    """Runs rounds of a workload's ops and checks each output against its digest."""

    def __init__(self, golden, tracer):
        self.golden = golden
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def run_round(self, ops, group=None):
        """Runs every op once; returns the time of each timed call."""
        times = []
        for index, op in enumerate(ops):
            if group is not None:
                self.tracer.op = f"{group}/{index}"
            self.attempted += 1
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception:
                output = None
                self._fail(op, traceback.format_exc())
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            if group is not None:
                self.tracer.op_walls[group][self.tracer.op] = elapsed
                self.tracer.op = None
            if output is None:
                continue
            try:
                digest, counts = op.check(output)
            except Exception:
                self._fail(op, traceback.format_exc())
                continue
            if group is not None:
                self.tracer.add_counts(group, counts)
            if self.golden.get(op.key) != digest:
                self._fail(op, f"digest {digest} != pinned {self.golden.get(op.key)}")
        return times

    def _fail(self, op, detail):
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: op {op.key} failed: {detail}", file=sys.stderr)

    def traced_round(self, ops, group, spans=True):
        self.tracer.install(group, spans)
        try:
            return self.run_round(ops, group)
        finally:
            self.tracer.uninstall()


def setup_once(name, seed):
    """Set-up time of this process: imports, then the workload's inputs for ``seed``."""
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _T_START
    start = time.perf_counter()
    WORKLOADS[name].setup(seed, OUT_DIR / f"work-{name}-{os.getpid()}")
    return import_s + time.perf_counter() - start


def fresh_setup(name, seed):
    """Set-up time measured in a new process, so that imports are paid again."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.splitlines()[-1])


def run_workload(name, seed, seconds, trace, golden_path):
    from workloads import WORKLOADS
    # imports of the program and numpy, the first part of set-up
    import_s = time.perf_counter() - _T_START
    from tracing import Tracer, median_metrics

    workload = WORKLOADS[name]
    with open(golden_path) as fh:
        golden = json.load(fh)
    work_dir = OUT_DIR / f"work-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    runner = Runner(golden, tracer)
    try:
        if trace:
            tracer.install("setup")
        start = time.perf_counter()
        try:
            ops = workload.setup(seed, work_dir)
        finally:
            setups = [import_s + time.perf_counter() - start]
            tracer.uninstall()
        started = time.perf_counter()
        deadline = started + seconds
        # the warm-up round fills lazy caches and counts the work items of one round;
        # untraced runs keep none of its spans, which would add to peak_rss_mb
        runner.traced_round(ops, "warmup", spans=bool(trace))
        items = tracer.group_metrics("warmup").get(workload.items, 0)
        plain, traced, round_metrics, references = [], {}, [], []
        while True:
            if trace and len(traced) < len(plain):
                group = f"round{len(traced)}"
                traced[group] = runner.traced_round(ops, group)
                round_metrics.append(tracer.group_metrics(group))
                if len(traced) > KEPT_TRACED_ROUNDS:
                    tracer.drop(group)
            else:
                references.append(time_reference())
                plain.append(runner.run_round(ops))
            # set-up runs again in new processes spread over the run: imports happen once
            # per process, and the machine's speed drifts
            due = started + seconds * len(setups) / SETUP_REPEATS
            if not trace and len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
                setups.append(fresh_setup(name, seed))
            rounds = plain + list(traced.values())
            done = plain and (traced or not trace)
            if done and time.perf_counter() + statistics.median(map(sum, rounds)) > deadline:
                break
        op_times = per_op_median(plain)
        if not trace:
            # the machine's speed drifts by up to 2x over minutes, and the reference
            # loop, timed before every round, slows with it; times are reported at
            # the reference speed
            scale = REFERENCE_S / statistics.median(references)
            op_times = [t * scale for t in op_times]
            value, pct, n = tail(op_times)
            metrics = {
                "setup_s": statistics.median(setups) * scale,
                "wall_s": sum(op_times),
                "op_p50_s": statistics.median(op_times),
                "op_tail_s": value,
                "items_per_s": items / sum(op_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            extra = {"op_tail_percentile": pct, "ops_per_round": n, "rounds": len(plain),
                     "items_per_round": items, "items": workload.items,
                     "setup_samples_s": setups, "measured_wall_s": sum(op_times) / scale,
                     "reference_median_s": statistics.median(references)}
        else:
            metrics = layer_metrics(tracer.group_metrics("setup"),
                                    median_metrics(round_metrics))
            metrics["trace.top_span_coverage"] = min(
                g["trace.top_span_coverage"] for g in round_metrics)
            metrics["trace.overhead_frac"] = (
                sum(per_op_median(list(traced.values()))) / sum(op_times) - 1.0)
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
            tracer.write(span_file)
            extra = {"traced_rounds": len(traced), "plain_rounds": len(plain),
                     "spans_written": tracer.span_count(),
                     "span_file": str(span_file.relative_to(ROOT))}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return runner, metrics, extra


def layer_metrics(setup, per_round):
    """Per-layer metrics of one set-up plus one round, with ratios taken on the sums."""
    m = {k: setup.get(k, 0.0) + per_round.get(k, 0.0) for k in set(setup) | set(per_round)}

    def ratio(num, den, scale=1.0):
        return scale * m.get(num, 0.0) / m[den] if m.get(den) else 0.0

    m["traffic_ca.us_per_vehicle_step"] = ratio("traffic_ca.step.busy_s",
                                                "traffic_ca.vehicle_steps", 1e6)
    m["radio_env.shadow_cache_hit_ratio"] = ratio("radio_env.shadow_hits",
                                                  "radio_env.shadow_lookups")
    m["transfer.tx_ratio"] = ratio("transfer.transmissions", "transfer.decisions")
    m["impute.us_per_query"] = ratio("impute.predict_gpr.busy_s", "impute.queries", 1e6)
    return m


def emit(spec, trace, runner, metrics, extra, meta):
    kind = "per_layer" if trace else "end_to_end"
    defs = {d["name"]: d for d in spec[kind]}
    result = {}
    for name, d in defs.items():
        value = float(metrics.get(name, 0.0))
        result[name] = {"value": value, "unit": d["unit"]}
        print(f"{name:48s} {value:16.6f} {d['unit']:6s} {d['better']}")
    # failed/attempted; carried by the result's own counts, so not a metric of BENCHMARK.json
    print(f"{'error_rate':48s} {runner.failed / runner.attempted:16.6f} ratio  lower")
    print(json.dumps({"metadata": meta, "run": extra}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))


def record(golden_path):
    """Runs every pinned op twice, requires equal digests, and writes them."""
    from workloads import WORKLOADS
    digests = {}
    work_dir = OUT_DIR / f"record-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            for op in workload.every_op(work_dir):
                first, _ = op.check(op.call())
                second, _ = op.check(op.call())
                if first != second:
                    sys.exit(f"bench: {op.key} is not deterministic")
                digests[op.key] = first
                print(op.key, first, flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(golden_path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args, spec):
    """Each workload in its own process, untraced then traced; writes .bench_out/results.json."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--golden", str(args.golden)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(f"== {workload} trace={trace}\n{proc.stdout}")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.exit(f"bench: {workload} exited with {proc.returncode}")
            results[f"{workload}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.json", "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    if not all(r["correct"] for r in results.values()):
        sys.exit("bench: some ops failed their digest check")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="pinned digests to check against")
    parser.add_argument("--record", action="store_true",
                        help="run every pinned op and write its digest to --golden")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of --workload and exit")
    args = parser.parse_args()
    spec = load_spec()
    _import_program()
    if args.record:
        record(args.golden)
    elif args.workload is None:
        run_all(args, spec)
    else:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            sys.exit(f"bench: unknown workload {args.workload!r}")
        if args.setup_only:
            print(setup_once(args.workload, args.seed))
            return
        runner, metrics, extra = run_workload(args.workload, args.seed, args.seconds,
                                              args.trace, args.golden)
        emit(spec, args.trace, runner, metrics, extra, metadata())


if __name__ == "__main__":
    main()
