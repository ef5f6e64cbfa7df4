"""Per-layer spans and counts, recorded from outside the package.

``Tracer.installed()`` replaces each public entry point of a flexmarket
module with a wrapper, at the name its caller looks up at call time (for
example ``flexmarket.qp.solve``, which ``market`` reaches as ``qpmod.solve``,
or ``flexmarket.benchmark.clear_area_fn``), and restores every name on exit.
A wrapper records one span (key, start, end, parent span) and any attributes
the call's arguments and result yield; spans stay in memory until
``metrics`` reduces them and ``dump`` writes them out.  A call nested inside
a span of the same key is not recorded again, so time is never counted
twice.  ``Network.tie_views`` runs about three times per area clear and is
counted, not timed.

The package itself is not modified.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from flexmarket import benchmark, coupling, grid, market, qp


def _qp_attrs(args, kwargs, sol):
    program = args[0]
    return {"hinted": kwargs.get("active_hint") is not None, "status": sol.status,
            "iterations": sol.iterations,
            "dim": program.n + len(program.b_eq) + len(program.h_ineq)}


# (owner, attribute, span key, attribute extractor); an owner is a module or
# a class, and the key's prefix before the dot names the layer.
TARGETS = (
    (grid, "load_bundled", "grid.load", None),
    (grid, "load_case", "grid.load", None),
    (grid, "validate", "grid.validate", None),
    (market, "aggregate_requirement", "stochastic.requirement", None),
    (benchmark, "aggregate_requirement", "stochastic.requirement", None),
    (qp, "solve", "qp.solve", _qp_attrs),
    (qp, "QuadraticProgram", "qp.program_build", None),
    (market.AreaProblem, "clear", "market.clear", None),
    (market.AreaProblem, "assemble", "market.assemble", None),
    (market, "autarky_infeasibility", "market.autarky", None),
    (market, "clear", "market.clear_fn", None),
    (benchmark, "clear_area_fn", "market.clear_fn", None),
    (market, "ChanceConstrainedClearing", "market.engine_build", None),
    (coupling, "ChanceConstrainedClearing", "market.engine_build", None),
    (coupling, "run", "coupling.run", lambda a, k, out: {"rounds": out.rounds}),
    (coupling, "encode_message", "coupling.encode", lambda a, k, out: {"bytes": len(out)}),
    (coupling, "decode_message", "coupling.decode", None),
    (coupling, "terms_for_area", "coupling.terms", None),
    (coupling, "trace_to_csv", "coupling.trace_csv", None),
    (coupling, "verify_nash", "coupling.nash", None),
    (benchmark, "solve_centralized", "benchmark.central", None),
    (benchmark, "optimal_terms_of_trade", "benchmark.terms", None),
    (benchmark, "verify_fixed_point", "benchmark.fixed_point", None),
    (benchmark, "verify_kkt_equivalence", "benchmark.kkt", None),
    (benchmark, "check_limit_feasibility", "benchmark.feasibility", None),
    (benchmark, "comparison_report", "benchmark.report", None),
)
COUNTED = ((grid.Network, "tie_views", "grid.tie_views_calls"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id or -1, key, start, end, attrs]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _span(self, key, fn, attrs):
        def wrapper(*args, **kwargs):
            if self._open[key]:
                return fn(*args, **kwargs)
            rec = [len(self.spans), self._stack[-1] if self._stack else -1, key, 0.0, 0.0, None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            self._open[key] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                rec[3] = start
                self._stack.pop()
                self._open[key] -= 1
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out
        return wrapper

    def _count(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, name, key, attrs in TARGETS:
                saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, self._span(key, getattr(owner, name), attrs))
            for owner, name, key in COUNTED:
                saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, self._count(key, getattr(owner, name)))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "parent", "key", "start_s", "end_s", "attrs"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)

    def metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        children: dict[int, list] = defaultdict(list)
        for sid, parent, key, start, end, _ in self.spans:
            total[key] += end - start
            calls[key] += 1
            if parent >= 0:
                children[parent].append(sid)
        layer_self: dict[str, float] = defaultdict(float)
        for sid, _, key, start, end, _ in self.spans:
            inner = sum(self.spans[c][4] - self.spans[c][3] for c in children[sid])
            layer_self[key.split(".")[0]] += end - start - inner

        solves = [s[5] for s in self.spans if s[2] == "qp.solve"]
        hinted = [a for a in solves if a["hinted"]]
        hits = [a for a in hinted if a["status"] == "optimal" and a["iterations"] == 0]
        cold_clears = [s for s in self.spans if s[2] == "market.clear" and any(
            self.spans[c][2] == "qp.solve" and not self.spans[c][5]["hinted"]
            for c in children[s[0]])]
        return {
            "grid.load_s": total["grid.load"],
            "grid.validate_s": total["grid.validate"],
            "grid.tie_views_calls": self.counts["grid.tie_views_calls"],
            "stochastic.requirement_calls": calls["stochastic.requirement"],
            "stochastic.requirement_s": total["stochastic.requirement"],
            "qp.solves": len(solves),
            "qp.solve_s": total["qp.solve"],
            "qp.solve_us": 1e6 * total["qp.solve"] / max(len(solves), 1),
            "qp.hinted": len(hinted),
            "qp.hint_hits": len(hits),
            "qp.hint_hit_ratio": len(hits) / max(len(hinted), 1),
            "qp.cold_solves": len(solves) - len(hinted),
            "qp.ipm_iters": sum(a["iterations"] for a in solves),
            "qp.failed": sum(a["status"] != "optimal" for a in solves),
            "qp.program_build_s": total["qp.program_build"],
            "qp.kkt_dim_max": max((a["dim"] for a in solves), default=0),
            "market.clears": calls["market.clear"],
            "market.clear_s": total["market.clear"],
            "market.assemble_s": total["market.assemble"],
            "market.self_s": layer_self["market"],
            "market.cold_clears": len(cold_clears),
            "market.cold_clear_s": sum(s[4] - s[3] for s in cold_clears),
            "coupling.rounds": sum(s[5]["rounds"] for s in self.spans if s[2] == "coupling.run"),
            "coupling.run_s": total["coupling.run"],
            "coupling.wire_s": total["coupling.encode"] + total["coupling.decode"],
            "coupling.messages": calls["coupling.encode"],
            "coupling.wire_bytes": sum(s[5]["bytes"] for s in self.spans
                                       if s[2] == "coupling.encode"),
            "coupling.terms_s": total["coupling.terms"],
            "coupling.self_s": layer_self["coupling"],
            "coupling.trace_csv_s": total["coupling.trace_csv"],
            "coupling.nash_s": total["coupling.nash"],
            "benchmark.central_s": total["benchmark.central"],
            "benchmark.terms_s": total["benchmark.terms"],
            "benchmark.fixed_point_s": total["benchmark.fixed_point"],
            "benchmark.kkt_s": total["benchmark.kkt"],
            "benchmark.feasibility_s": total["benchmark.feasibility"],
            "benchmark.report_s": total["benchmark.report"],
        }


COUNT_METRICS = ("grid.tie_views_calls", "stochastic.requirement_calls", "qp.solves",
                 "qp.hinted", "qp.hint_hits", "qp.cold_solves", "qp.ipm_iters", "qp.failed",
                 "qp.kkt_dim_max", "market.clears", "market.cold_clears", "coupling.rounds",
                 "coupling.messages", "coupling.wire_bytes")
