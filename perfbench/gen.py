"""Seeded synthetic multi-area networks for the scale ladder.

``synthetic_case(n_areas, buses_per_area, seed)`` returns a case document in
the format ``flexmarket.grid.load_case`` reads.  It draws from
``random.Random`` seeded with a string, whose stream Python keeps stable
across versions and platforms, and rounds every number, so one
(areas, buses, seed) triple always gives a byte-identical ``save_case``
output.  numpy is not used here: its generator streams may change between
releases.

Each area is a path of buses with a few chords, about one generator per two
buses, and Gaussian nodal demand.  Day-ahead set-points cover 90-100% of the
area's mean demand, so every area has to re-dispatch or import intraday.
Areas are joined in a ring, with extra chord ties on larger networks.  Tie
capacities are drawn small enough that some ties congest.  Margins are sized
so that every area can meet its demand alone, which ``grid.validate`` checks.
"""
from __future__ import annotations

import random


def _r(x: float) -> float:
    return round(x, 4)


def synthetic_case(n_areas: int, buses_per_area: int, seed: int) -> dict:
    if n_areas < 2 or buses_per_area < 1:
        raise ValueError("need at least 2 areas and 1 bus per area")
    rng = random.Random(f"flexmarket-ladder:{n_areas}x{buses_per_area}:{seed}")
    areas = [f"A{i:02d}" for i in range(n_areas)]
    buses, gens, lines, demand = [], [], [], {}
    area_demand, area_buses = {}, {}
    for a in areas:
        ids = [f"{a}b{j:02d}" for j in range(buses_per_area)]
        area_buses[a] = ids
        level = rng.uniform(15.0, 45.0)  # the area's price level, USD/MWh
        total = 0.0
        for b in ids:
            buses.append({"id": b, "area": a})
            mean = _r(rng.uniform(4.0, 20.0))
            demand[b] = {"mean": mean, "std": _r(0.05 * mean)}
            total += mean
        area_demand[a] = total
        for j in range(1, buses_per_area):
            lines.append({"id": f"{a}L{j:02d}", "from_bus": ids[j - 1], "to_bus": ids[j],
                          "reactance": _r(rng.uniform(0.02, 0.2)),
                          "capacity": _r(rng.uniform(0.6, 1.0) * total + 20.0)})
        for j in range(buses_per_area // 4):
            u, v = sorted(rng.sample(range(buses_per_area), 2))
            if v - u < 2:
                continue  # parallel to a path line; keep the topology simple
            lines.append({"id": f"{a}C{j:02d}", "from_bus": ids[u], "to_bus": ids[v],
                          "reactance": _r(rng.uniform(0.05, 0.3)),
                          "capacity": _r(rng.uniform(0.3, 0.6) * total)})
        n_gen = max(1, (buses_per_area + 1) // 2)
        shares = [rng.uniform(0.5, 1.5) for _ in range(n_gen)]
        da_total = rng.uniform(0.9, 1.0) * total
        for g in range(n_gen):
            p_max = rng.uniform(1.5, 3.0) * total / n_gen
            p_da = min(da_total * shares[g] / sum(shares), 0.9 * p_max)
            gens.append({"id": f"{a}G{g:02d}", "bus": ids[rng.randrange(buses_per_area)],
                         "cost_quadratic": _r(rng.uniform(0.02, 0.2)),
                         "cost_linear": _r(level + rng.uniform(-5.0, 5.0)),
                         "cost_constant": 0.0, "p_min": 0.0, "p_max": _r(p_max),
                         "ramp_down": _r(-rng.uniform(0.02, 0.08) * p_max),
                         "ramp_up": _r(rng.uniform(0.3, 0.5) * p_max),
                         "p_da": _r(p_da)})
    pairs = [(i, (i + 1) % n_areas) for i in range(n_areas if n_areas > 2 else 1)]
    for _ in range(n_areas // 4):
        i, j = sorted(rng.sample(range(n_areas), 2))
        pairs.append((i, j))
    ties = []
    for i, j in pairs:
        a, b = areas[i], areas[j]
        cap = rng.uniform(0.05, 0.3) * min(area_demand[a], area_demand[b])
        ties.append({"id": f"T{len(ties):03d}", "from_area": a,
                     "from_bus": rng.choice(area_buses[a]), "to_area": b,
                     "to_bus": rng.choice(area_buses[b]),
                     "reactance": _r(rng.uniform(0.05, 0.3)), "capacity": _r(cap),
                     "t_da": _r(rng.uniform(-0.2, 0.2) * cap)})
    return {"areas": areas, "buses": buses, "generators": gens, "lines": lines,
            "tie_lines": ties, "demand": {"buses": demand},
            "confidence": {a: rng.choice([0.05, 0.1]) for a in areas},
            "slack": {"area": areas[0], "bus": area_buses[areas[0]][0]}}
