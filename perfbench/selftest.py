#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each passes on a real result and
rejects a perturbed one.  Takes a few seconds.

    python3 perfbench/selftest.py
"""
import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from flexmarket import grid  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from gen import synthetic_case  # noqa: E402


def shifted(clearing, field, key, delta):
    """A clearing whose decision has one entry moved by delta."""
    values = dict(getattr(clearing.decision, field))
    values[key] += delta
    return dataclasses.replace(clearing, decision=dataclasses.replace(clearing.decision,
                                                                      **{field: values}))


def rejects(label, check):
    try:
        check()
    except checks.CheckFailed as e:
        print(f"ok   rejects {label}: {e}")
        return
    sys.exit(f"FAIL accepts {label}")


def main():
    doc = grid.save_case(grid.load_case(synthetic_case(4, 8, 0)))
    if doc != grid.save_case(grid.load_case(synthetic_case(4, 8, 0))):
        sys.exit("FAIL generator gives other bytes for the same seed")
    if doc == grid.save_case(grid.load_case(synthetic_case(4, 8, 1))):
        sys.exit("FAIL generator ignores its seed")
    print("ok   generator: same seed, same bytes; another seed, other bytes")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for name in ("toy2", "toy2-congested"):
        spec = next(s for s in workloads.specs("bundled-compare", 0) if s.name == name)
        (case,) = workloads.set_up([spec])
        res = workloads.work(case, out)
        reference = checks.reference_objective(res.net)
        workloads.verify(res, reference)
        print(f"ok   {name}: every check passes on the real result")

        net, lim = res.net, res.clearings
        moved = {**lim, "A": shifted(lim["A"], "delta_p", "GA", -1.0)}
        rejects("a nodal shortfall", lambda: checks.area_feasible(net, "A", moved["A"].decision, name))
        rejects("a generator off the closed form",
                lambda: checks.two_area_closed_form(net, {a: c.decision for a, c in moved.items()}, name))
        rejects("a generator past its ramp limit", lambda: checks.area_feasible(
            net, "B", shifted(lim["B"], "delta_p", "GB", 200.0).decision, name))
        priced = dataclasses.replace(lim["B"], duals=dataclasses.replace(
            lim["B"].duals, nodal_price={"B1": lim["B"].duals.nodal_price["B1"] + 0.1}))
        rejects("a price off the marginal cost", lambda: checks.marginal_prices(net, "B", priced, name))
        split = {"A": lim["A"].decision, "B": shifted(lim["B"], "delta_t", "AB", 0.5).decision}
        rejects("a tie whose sides disagree", lambda: checks.tie_capacity(net, split, name))
        over = {a: shifted(c, "delta_t", "AB", 10.0 if a == "A" else -10.0).decision
                for a, c in lim.items()}
        if name == "toy2-congested":
            rejects("a tie over capacity", lambda: checks.tie_capacity(net, over, name))
        else:
            rejects("a flow off the optimum",
                    lambda: checks.matches_central(net, over, res.central, name))
        costly = {a: c.decision for a, c in moved.items()}
        rejects("an objective gap", lambda: checks.matches_central(net, costly, res.central, name))
        failed = {**res.report, "checks": {**res.report["checks"], "kkt": False}}
        rejects("a failed KKT check", lambda: checks.report_passes(failed, name))
        rejects("a centralized optimum off the scipy reference",
                lambda: checks.central_reference(net, res.central, reference + 0.01, name))
        rejects("a run that did not converge", lambda: workloads.verify(dataclasses.replace(
            res, run=dataclasses.replace(res.run, converged=False)), None))
        edited = dataclasses.replace(res, csv=res.csv.replace("\n1,", "\n1,9", 1))
        if workloads.fingerprint(edited) == workloads.fingerprint(res):
            sys.exit("FAIL accepts an edited trace CSV")
        print("ok   rejects an edited trace CSV (fingerprint differs)")

    spec = workloads.specs("cold-certify", 0)[0]
    (case,) = workloads.set_up([spec])
    res = workloads.work(case, out)
    workloads.verify(res, None)
    short = dataclasses.replace(res, run=dataclasses.replace(res.run, rounds=res.run.rounds - 1))
    rejects("a fixed-budget run that stopped early", lambda: workloads.verify(short, None))
    print("selftest passed")


if __name__ == "__main__":
    main()
