#!/usr/bin/env python3
"""Screen generated networks for the ladder and cold-certify workloads.

    python3 perfbench/vet.py 4x16 0 10 --rounds 120

Runs seeds [first, last) of one rung through the same pass the benchmark
makes (validate, mechanism for a fixed round budget, certification) and
prints, per seed, the time taken and either ``ok`` or what went wrong: an
invalid network, a failed operation with its round and area, or a failed
check.  README.md lists what this found for the networks the workloads use.
"""
import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rung", help="AREASxBUSES, e.g. 4x16")
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--rounds", type=int, default=workloads.LADDER_ROUNDS)
    args = parser.parse_args()
    n_areas, buses = (int(x) for x in args.rung.split("x"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for seed in range(args.first, args.last):
        spec = workloads.synthetic_spec(n_areas, buses, seed, args.rounds)
        start = time.perf_counter()
        try:
            (case,) = workloads.set_up([spec])
        except workloads.SetupError as e:
            print(f"{spec.name}: invalid: {e}", flush=True)
            continue
        res = workloads.work(case, out)
        verdict = res.error or "ok"
        if not res.error:
            try:
                workloads.verify(res, None)
            except checks.CheckFailed as e:
                verdict = f"check failed: {e}"
        print(f"{spec.name}: {time.perf_counter() - start:6.2f} s  {verdict}", flush=True)


if __name__ == "__main__":
    main()
