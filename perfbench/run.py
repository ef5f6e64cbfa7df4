#!/usr/bin/env python3
"""Benchmark for flexmarket: time to a certified equilibrium.

    python3 perfbench/run.py --workload bundled-compare --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Workloads: ``bundled-compare``,
``ladder`` and ``cold-certify`` (see README.md and workloads.py).

One process, one thread: BLAS threads are pinned to one and the mechanism
runs on its serial path.  An untimed warm-up pass comes first and its outputs
are checked in full, against scipy too; every later pass must reproduce its
trace CSV and comparison report byte for byte.  Passes then repeat until
``--seconds`` would be exceeded (at least three), and each timing is the
median over them, after scaling each pass to a reference machine speed with
a calibration loop timed around it: on the shared reference machine (README.md)
speed drifts by a third over minutes, and the loop follows the drift.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of tracing.py
with ``trace.overhead_s``, the traced minus the untraced median pass time.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy goes to
``perfbench/out/``, with the trace CSVs and, for a traced run, the spans of
its first traced pass.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("bundled-compare", "ladder", "cold-certify")
MIN_PASSES = 3
# The calibration loop and its time at the reference speed: about its median
# on a shared 2-vCPU Xeon at 2.1 GHz.  Reported times are scaled by this over the
# loop's time measured around each pass (README.md, "Machine speed").
CALIBRATION_ROUNDS = 1_500_000
CALIBRATION_REF_S = 0.17
IMPORT_PROBES = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import flexmarket; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def calibrate() -> float:
    """Time a fixed pure-Python loop that shares no code with the package."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc += i * i % 7
    return time.perf_counter() - start


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_dim_max"):
        return "rows"
    return "count"


class Bench:
    """One run: passes over a workload's cases, their checks and tallies."""

    def __init__(self, workload_specs, seconds):
        self.specs = workload_specs
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed checks
        self.errors: list[str] = []  # failed operations
        self.expected = None  # fingerprints of the warm-up pass
        self.started = 0.0  # end of the warm-up pass

    def one_pass(self):
        """Set up and work every case; returns (setup_s, outcomes)."""
        gc.collect()  # start every pass from a collected heap
        start = time.perf_counter()
        cases = workloads.set_up(self.specs)
        setup_s = time.perf_counter() - start
        outcomes = [workloads.work(case, OUT) for case in cases]
        for res in outcomes:
            self.attempted += 2  # the mechanism run and its certification
            if res.error:
                self.failed += 2 if res.run is None else 1
                self.errors.append(res.error)
        return setup_s, outcomes

    def check(self, outcomes, full: bool):
        """Full checks on the warm-up pass; later passes must repeat it."""
        prints = {res.spec.name: workloads.fingerprint(res) for res in outcomes if not res.error}
        if full:
            self.expected = prints
            for res in outcomes:
                if res.error:
                    continue
                try:
                    workloads.verify(res, checks.reference_objective(res.net))
                except checks.CheckFailed as e:
                    self.problems.append(str(e))
        elif prints != {k: v for k, v in self.expected.items() if k in prints}:
            changed = sorted(k for k in prints if prints[k] != self.expected.get(k))
            self.problems.append(f"trace CSV or report changed between passes: {changed}")

    def warm_up(self):
        _, outcomes = self.one_pass()
        print(f"warm-up: work {sum(res.wall_s for res in outcomes):.3f} s", file=sys.stderr)
        self.check(outcomes, full=True)
        self.started = time.perf_counter()

    def more(self, durations) -> bool:
        if len(durations) < MIN_PASSES:
            return True
        return time.perf_counter() - self.started + statistics.median(durations) <= self.seconds


def end_to_end(bench: Bench, import_s: float) -> dict:
    """Medians over passes of each pass's times at the reference speed: a
    pass's times are scaled by CALIBRATION_REF_S over the mean of the
    calibration loop timed just before and just after it."""
    setups, walls, certifies, round_ms, speed, rounds, durations = [], [], [], [], [], set(), []
    loop_s = calibrate()
    while bench.more(durations):
        start = time.perf_counter()
        setup_s, outcomes = bench.one_pass()
        durations.append(time.perf_counter() - start)
        loop_before, loop_s = loop_s, calibrate()
        scale = CALIBRATION_REF_S / (0.5 * (loop_before + loop_s))
        bench.check(outcomes, full=False)
        ran = [res for res in outcomes if res.run is not None]
        total_rounds = sum(res.run.rounds for res in ran)
        speed.append(scale)
        setups.append(scale * setup_s)
        walls.append(scale * sum(res.wall_s for res in outcomes))
        certifies.append(scale * sum(res.certify_s for res in outcomes))
        round_ms.append(scale * 1e3 * sum(res.run_s for res in ran) / max(total_rounds, 1))
        rounds.add(total_rounds)
        print(f"pass {len(durations)}: set-up {setup_s:.3f} s, work "
              f"{sum(res.wall_s for res in outcomes):.3f} s, speed scale {scale:.3f}",
              file=sys.stderr)
    if len(rounds) != 1:
        bench.problems.append(f"round count changed between passes: {sorted(rounds)}")
    values = {"setup_s": statistics.median(speed) * import_s + statistics.median(setups),
              "wall_s": statistics.median(walls),
              "certify_s": statistics.median(certifies),
              "rounds": max(rounds),
              "round_ms": statistics.median(round_ms),
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    units = {"setup_s": "s", "wall_s": "s", "certify_s": "s", "rounds": "count",
             "round_ms": "ms", "peak_rss_mib": "MiB"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(bench: Bench, workload: str) -> dict:
    tracer = tracing.Tracer()
    plain, traced, layers, durations = [], [], [], []
    while bench.more(durations):
        start = time.perf_counter()
        bench.check(bench.one_pass()[1], full=False)
        plain.append(time.perf_counter() - start)
        tracer.reset()
        with tracer.installed():
            start = time.perf_counter()
            _, outcomes = bench.one_pass()
            traced.append(time.perf_counter() - start)
        bench.check(outcomes, full=False)
        layers.append(tracer.metrics())
        if len(layers) == 1:
            tracer.dump(OUT / f"spans-{workload}.json")
        durations.append(plain[-1] + traced[-1])
    values = {}
    for name in layers[0]:
        if name in tracing.COUNT_METRICS or name.endswith("_ratio"):
            seen = {m[name] for m in layers}
            if len(seen) != 1:
                bench.problems.append(f"{name} changed between traced passes: {sorted(seen)}")
            values[name] = layers[0][name]
        else:
            values[name] = statistics.median(m[name] for m in layers)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flexmarket" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    import_s = import_seconds()
    sys.path[:0] = [str(SRC), str(HERE)]
    global checks, tracing, workloads
    import flexmarket
    if Path(flexmarket.__file__).resolve().parent != (SRC / "flexmarket").resolve():
        print(f"error: imported flexmarket from {flexmarket.__file__}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    bench = Bench(workloads.specs(args.workload, args.seed), args.seconds)
    try:
        bench.warm_up()
        metrics = per_layer(bench, args.workload) if args.trace else end_to_end(bench, import_s)
    except workloads.SetupError as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    for problem in bench.errors + bench.problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": not bench.problems,
              "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
