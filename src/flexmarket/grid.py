"""Multi-area grid data model: case files, validation, scenario modifiers.

Conventions: power in MW, prices in USD/MWh, reactances in per-unit with an
implicit 1.0 base so a line flow is simply (angle difference) / reactance.
Each tie-line is stored once with a canonical direction; either endpoint area
derives its own orientation through :meth:`Network.tie_views`.
"""
from __future__ import annotations

import json
import logging
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Mapping

log = logging.getLogger("flexmarket.grid")

BUNDLED_CASES = ("toy2", "toy2-congested", "tri3")


class CaseError(ValueError):
    """Raised when a case document cannot be parsed or fails validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Bus:
    id: str
    area_id: str
    mean_net_demand: float = 0.0
    demand_std: float = 0.0


@dataclass(frozen=True)
class Generator:
    id: str
    bus_id: str
    cost_quadratic: float  # USD/MW^2 h, must be > 0
    cost_linear: float  # USD/MWh
    cost_constant: float  # USD/h
    p_min: float
    p_max: float
    ramp_down: float  # signed lower adjustment bound, ramp_down <= ramp_up
    ramp_up: float
    p_da: float  # day-ahead setpoint

    def cost(self, output: float) -> float:
        return self.cost_quadratic * output * output + self.cost_linear * output + self.cost_constant

    def marginal_cost(self, output: float) -> float:
        return 2.0 * self.cost_quadratic * output + self.cost_linear


@dataclass(frozen=True)
class InternalLine:
    id: str
    from_bus: str
    to_bus: str
    reactance: float
    capacity: float


@dataclass(frozen=True)
class TieLine:
    id: str
    from_area: str
    from_bus: str
    to_area: str
    to_bus: str
    reactance: float
    capacity: float
    t_da: float  # day-ahead flow, signed from->to

    @property
    def open(self) -> bool:
        """A zero-capacity tie models an open intertie: no flow, no coupling."""
        return self.capacity == 0.0


@dataclass(frozen=True)
class Area:
    id: str
    bus_ids: tuple[str, ...]
    generator_ids: tuple[str, ...]
    line_ids: tuple[str, ...]
    tie_ids: tuple[str, ...]
    confidence_tail: float  # t in (0,1): supply covers demand with prob 1-t


@dataclass(frozen=True)
class TieView:
    """One area's orientation of a tie-line.

    ``t_da`` is the day-ahead flow signed positive *out of* ``own_bus``;
    the reverse view of the same line negates it.
    """

    tie_id: str
    own_bus: str
    neighbor_area: str
    neighbor_bus: str
    reactance: float
    capacity: float
    t_da: float
    canonical: bool


@dataclass(frozen=True)
class Network:
    areas: tuple[Area, ...]
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    lines: tuple[InternalLine, ...]
    tie_lines: tuple[TieLine, ...]
    slack: tuple[str, str]  # (area id, bus id); the one fixed phase angle

    def __post_init__(self):
        object.__setattr__(self, "_areas", {a.id: a for a in self.areas})
        object.__setattr__(self, "_buses", {b.id: b for b in self.buses})
        object.__setattr__(self, "_gens", {g.id: g for g in self.generators})
        object.__setattr__(self, "_lines", {l.id: l for l in self.lines})
        object.__setattr__(self, "_ties", {t.id: t for t in self.tie_lines})
        # the clearing programs built from this network, by market and
        # benchmark, once each: the network is frozen, so they never go stale
        object.__setattr__(self, "_programs", {})

    def area(self, area_id: str) -> Area:
        return self._areas[area_id]

    def bus(self, bus_id: str) -> Bus:
        return self._buses[bus_id]

    def generator(self, gen_id: str) -> Generator:
        return self._gens[gen_id]

    def line(self, line_id: str) -> InternalLine:
        return self._lines[line_id]

    def tie(self, tie_id: str) -> TieLine:
        return self._ties[tie_id]

    def tie_views(self, area_id: str) -> tuple[TieView, ...]:
        """This area's orientation of every incident tie-line, sorted by id."""
        views = []
        for tie_id in sorted(self.area(area_id).tie_ids):
            t = self.tie(tie_id)
            if t.open:
                continue
            if t.from_area == area_id:
                views.append(TieView(t.id, t.from_bus, t.to_area, t.to_bus,
                                     t.reactance, t.capacity, t.t_da, True))
            else:
                views.append(TieView(t.id, t.to_bus, t.from_area, t.from_bus,
                                     t.reactance, t.capacity, -t.t_da, False))
        return tuple(views)

    def boundary_buses(self, area_id: str) -> tuple[str, ...]:
        return tuple(sorted({v.own_bus for v in self.tie_views(area_id)}))

    def active_ties(self) -> tuple[TieLine, ...]:
        return tuple(t for t in self.tie_lines if not t.open)


@dataclass(frozen=True)
class ScenarioModifiers:
    """Case perturbations used by the scenario studies."""

    generator_capacity_scale: float = 1.0
    ramp_scale: float = 1.0
    tie_capacity_overrides: Mapping[str, float] = field(default_factory=dict)
    demand_cov_override: float | None = None

    def __post_init__(self):
        for name in ("generator_capacity_scale", "ramp_scale"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0")
        if self.demand_cov_override is not None and not (0 <= self.demand_cov_override < math.inf):
            raise ValueError("demand_cov_override must be finite and >= 0")
        for tie_id, capacity in self.tie_capacity_overrides.items():
            if not math.isfinite(capacity):
                raise ValueError(f"tie capacity override for {tie_id} must be finite")


def _structural_violations(net: Network) -> list[str]:
    out = []
    seen: dict[str, str] = {}
    # bus/generator/line/tie ids share one namespace for unambiguous reporting
    for kind, items in (("bus", net.buses), ("generator", net.generators),
                        ("line", net.lines), ("tie_line", net.tie_lines)):
        for item in items:
            if item.id in seen:
                out.append(f"{kind}[{item.id}]: duplicate id (also used by {seen[item.id]})")
            else:
                seen[item.id] = kind
    area_ids = {a.id for a in net.areas}
    if len(area_ids) != len(net.areas):
        out.append("areas: duplicate area id")
    bus_ids = {b.id for b in net.buses}
    for b in net.buses:
        if b.area_id not in area_ids:
            out.append(f"bus[{b.id}]: unknown area {b.area_id}")
        if b.demand_std < 0:
            out.append(f"bus[{b.id}]: demand_std must be >= 0")
    for g in net.generators:
        if g.bus_id not in bus_ids:
            out.append(f"generator[{g.id}]: unknown bus {g.bus_id}")
        if g.cost_quadratic <= 0:
            out.append(f"generator[{g.id}]: cost_quadratic must be > 0")
        if not (g.p_min <= g.p_da <= g.p_max):
            out.append(f"generator[{g.id}]: requires p_min <= p_da <= p_max")
        if g.ramp_down > g.ramp_up:
            out.append(f"generator[{g.id}]: ramp_down must be <= ramp_up")
    for l in net.lines:
        for end in (l.from_bus, l.to_bus):
            if end not in bus_ids:
                out.append(f"line[{l.id}]: unknown bus {end}")
        if l.from_bus in bus_ids and l.to_bus in bus_ids:
            if net.bus(l.from_bus).area_id != net.bus(l.to_bus).area_id:
                out.append(f"line[{l.id}]: endpoints must be in the same area")
        if l.reactance <= 0:
            out.append(f"line[{l.id}]: reactance must be > 0")
        if l.capacity <= 0:
            out.append(f"line[{l.id}]: capacity must be > 0")
    for t in net.tie_lines:
        if t.from_area == t.to_area:
            out.append(f"tie_line[{t.id}]: from_area and to_area must differ")
        for area_id, bus_id in ((t.from_area, t.from_bus), (t.to_area, t.to_bus)):
            if area_id not in area_ids:
                out.append(f"tie_line[{t.id}]: unknown area {area_id}")
            elif bus_id not in bus_ids or net.bus(bus_id).area_id != area_id:
                out.append(f"tie_line[{t.id}]: bus {bus_id} not in area {area_id}")
        if t.reactance <= 0:
            out.append(f"tie_line[{t.id}]: reactance must be > 0")
        if t.capacity < 0:
            out.append(f"tie_line[{t.id}]: capacity must be >= 0")
        if abs(t.t_da) > t.capacity:
            out.append(f"tie_line[{t.id}]: |t_da| must be <= capacity")
    for a in net.areas:
        if not (0.0 < a.confidence_tail < 1.0):
            out.append(f"area[{a.id}]: confidence tail must be in (0,1)")
        if not a.generator_ids:
            out.append(f"area[{a.id}]: needs at least one generator")
        if not _connected(a, net):
            log.warning("area[%s]: internal graph is disconnected", a.id)
    slack_area, slack_bus = net.slack
    if slack_area not in area_ids:
        out.append(f"slack: unknown area {slack_area}")
    elif slack_bus not in bus_ids or net.bus(slack_bus).area_id != slack_area:
        out.append(f"slack: bus {slack_bus} not in area {slack_area}")
    return out


def _connected(area: Area, net: Network) -> bool:
    if len(area.bus_ids) <= 1:
        return True
    adj: dict[str, set[str]] = {b: set() for b in area.bus_ids}
    for lid in area.line_ids:
        l = net.line(lid)
        if l.from_bus in adj and l.to_bus in adj:
            adj[l.from_bus].add(l.to_bus)
            adj[l.to_bus].add(l.from_bus)
    todo = [area.bus_ids[0]]
    seen = set(todo)
    while todo:
        for nxt in adj[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == len(area.bus_ids)


def validate(net: Network) -> list[str]:
    """Return every violated invariant; empty means the network is sound.

    A structurally sound network has each area's clearing problem solved
    with all intertie flows forced to zero; an infeasible area (one that
    cannot meet local demand on its own) is reported as a violation.
    """
    out = _structural_violations(net)
    if out:
        return out
    from . import market  # deferred: market sits above grid in the layering

    for a in net.areas:
        err = market.autarky_infeasibility(net, a.id)
        if err is not None:
            out.append(f"area[{a.id}]: cannot meet local demand on its own ({err})")
    return out


def _num(obj, key, path, out, required=True, default=0.0):
    if key not in obj:
        if required:
            out.append(f"{path}: missing field {key}")
        return default
    v = obj[key]
    # json.loads parses NaN, Infinity and integers no float can hold; no field admits them
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        out.append(f"{path}.{key}: expected a finite number")
        return default
    return float(v)


def _typed(value, kind, path, out):
    """``value`` if it is a ``kind`` (dict or list); otherwise an empty one, and an error."""
    if isinstance(value, kind):
        return value
    out.append(f"{path}: expected {'an object' if kind is dict else 'a list'}")
    return kind()


def _id(value, path, out):
    """``value`` if it is a non-empty string; otherwise None, and an error."""
    if isinstance(value, str) and value:
        return value
    out.append(f"{path}: expected a non-empty string")
    return None


# the fields each object of a case document may hold; any other is an error,
# so that a misspelt optional field cannot silently take its default
_FIELDS = {
    "case": ("areas", "buses", "generators", "lines", "tie_lines", "demand", "confidence",
             "slack"),
    "buses": ("id", "area"),
    "generators": ("id", "bus", "cost_quadratic", "cost_linear", "cost_constant", "p_min",
                   "p_max", "ramp_down", "ramp_up", "p_da"),
    "lines": ("id", "from_bus", "to_bus", "reactance", "capacity"),
    "tie_lines": ("id", "from_area", "from_bus", "to_area", "to_bus", "reactance", "capacity",
                  "t_da"),
    "demand": ("buses", "cov"),
    "demand.buses": ("mean", "std"),
    "slack": ("area", "bus"),
}


def _unknown(obj, kind, path, out):
    """Report each field of ``obj`` that _FIELDS[kind] does not list."""
    for key in obj:
        if key not in _FIELDS[kind]:
            out.append(f"{path}.{key}: unknown field")


def _entries(doc, key, out):
    """(id, path, object) per object listed under ``doc[key]``; any other entry is
    reported and skipped, and so is an unknown field.  The path names an entry
    by its id, or by its position when the id is not a non-empty string."""
    found = []
    for i, e in enumerate(_typed(doc.get(key, []), list, key, out)):
        if not isinstance(e, dict):
            out.append(f"{key}[{i}]: expected an object")
            continue
        entry_id = _id(e.get("id"), f"{key}[{i}].id", out)
        path = f"{key}[{entry_id or i}]"
        _unknown(e, key, path, out)
        found.append((entry_id, path, e))
    return found


def load_case(text: str | bytes | dict) -> Network:
    """Parse a case document (JSON text or an already-decoded dict)."""
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CaseError([f"parse error: {e}"]) from e
    else:
        doc = text
    if not isinstance(doc, dict):
        raise CaseError(["parse error: top level must be an object"])
    errs: list[str] = []
    for key in ("areas", "buses", "generators", "tie_lines", "demand", "confidence"):
        if key not in doc:
            errs.append(f"case: missing top-level key {key}")
    if errs:
        raise CaseError(errs)
    _unknown(doc, "case", "case", errs)

    demand = _typed(doc["demand"], dict, "demand", errs)
    _unknown(demand, "demand", "demand", errs)
    cov = _num(demand, "cov", "demand", errs, required=False, default=None)
    dem_buses = _typed(demand.get("buses", {}), dict, "demand.buses", errs)
    confidence = _typed(doc["confidence"], dict, "confidence", errs)

    buses = []
    for bus_id, path, b in _entries(doc, "buses", errs):
        entry = _typed(dem_buses.get(bus_id, {}), dict, f"demand.{path}", errs)
        _unknown(entry, "demand.buses", f"demand.{path}", errs)
        mean = _num(entry, "mean", path, errs, required=False)
        if "std" in entry:
            std = _num(entry, "std", path, errs, required=False)
        elif cov is not None:
            std = cov * abs(mean)
        else:
            std = 0.0
        buses.append(Bus(bus_id, _id(b.get("area"), f"{path}.area", errs), mean, std))
    bus_ids = {b.id for b in buses}
    for bus_id in dem_buses:
        if bus_id not in bus_ids:
            errs.append(f"demand.buses[{bus_id}]: unknown bus")

    gens = []
    for gen_id, path, g in _entries(doc, "generators", errs):
        gens.append(Generator(
            gen_id, _id(g.get("bus"), f"{path}.bus", errs),
            _num(g, "cost_quadratic", path, errs),
            _num(g, "cost_linear", path, errs),
            _num(g, "cost_constant", path, errs, required=False),
            _num(g, "p_min", path, errs),
            _num(g, "p_max", path, errs),
            _num(g, "ramp_down", path, errs),
            _num(g, "ramp_up", path, errs),
            _num(g, "p_da", path, errs),
        ))
    lines = []
    for line_id, path, l in _entries(doc, "lines", errs):
        ends = [_id(l.get(k), f"{path}.{k}", errs) for k in ("from_bus", "to_bus")]
        lines.append(InternalLine(line_id, *ends,
                                  _num(l, "reactance", path, errs), _num(l, "capacity", path, errs)))
    ties = []
    for tie_id, path, t in _entries(doc, "tie_lines", errs):
        ends = [_id(t.get(k), f"{path}.{k}", errs)
                for k in ("from_area", "from_bus", "to_area", "to_bus")]
        ties.append(TieLine(tie_id, *ends,
                            _num(t, "reactance", path, errs), _num(t, "capacity", path, errs),
                            _num(t, "t_da", path, errs, required=False)))

    # each area's buses, generators, lines (by from-bus) and ties, in document
    # order; a bus id listed in several areas puts its generators and lines in each
    bus_areas = defaultdict(set)
    members = defaultdict(lambda: ([], [], [], []))
    for b in buses:
        bus_areas[b.id].add(b.area_id)
        members[b.area_id][0].append(b.id)
    for g in gens:
        for area_id in bus_areas.get(g.bus_id, ()):
            members[area_id][1].append(g.id)
    for l in lines:
        for area_id in bus_areas.get(l.from_bus, ()):
            members[area_id][2].append(l.id)
    for t in ties:
        for area_id in {t.from_area, t.to_area}:
            members[area_id][3].append(t.id)
    areas = []
    for i, area_id in enumerate(_typed(doc["areas"], list, "areas", errs)):
        area_id = _id(area_id, f"areas[{i}]", errs)
        if area_id is None:
            continue
        tail = _num(confidence, area_id, "confidence", errs, default=0.5)
        areas.append(Area(area_id, *map(tuple, members[area_id]), tail))
    area_ids = {a.id for a in areas}
    for area_id in confidence:
        if area_id not in area_ids:
            errs.append(f"confidence.{area_id}: unknown area")

    slack_doc = _typed(doc.get("slack", {}), dict, "slack", errs)
    _unknown(slack_doc, "slack", "slack", errs)
    if slack_doc:
        slack = (_id(slack_doc.get("area"), "slack.area", errs),
                 _id(slack_doc.get("bus"), "slack.bus", errs))
    elif areas and areas[0].bus_ids:
        slack = (areas[0].id, areas[0].bus_ids[0])
    else:
        errs.append("slack: cannot default, first area has no bus")
        slack = ("?", "?")
    if errs:
        raise CaseError(errs)

    net = Network(tuple(areas), tuple(buses), tuple(gens), tuple(lines), tuple(ties), slack)
    errs = _structural_violations(net)
    if errs:
        raise CaseError(errs)
    return net


def save_case(net: Network) -> str:
    """Serialize back to the case format; load_case(save_case(n)) == n."""
    doc = {
        "areas": [a.id for a in net.areas],
        "buses": [{"id": b.id, "area": b.area_id} for b in net.buses],
        "generators": [
            {"id": g.id, "bus": g.bus_id, "cost_quadratic": g.cost_quadratic,
             "cost_linear": g.cost_linear, "cost_constant": g.cost_constant,
             "p_min": g.p_min, "p_max": g.p_max, "ramp_down": g.ramp_down,
             "ramp_up": g.ramp_up, "p_da": g.p_da}
            for g in net.generators
        ],
        "lines": [
            {"id": l.id, "from_bus": l.from_bus, "to_bus": l.to_bus,
             "reactance": l.reactance, "capacity": l.capacity}
            for l in net.lines
        ],
        "tie_lines": [
            {"id": t.id, "from_area": t.from_area, "from_bus": t.from_bus,
             "to_area": t.to_area, "to_bus": t.to_bus, "reactance": t.reactance,
             "capacity": t.capacity, "t_da": t.t_da}
            for t in net.tie_lines
        ],
        "demand": {"buses": {b.id: {"mean": b.mean_net_demand, "std": b.demand_std}
                             for b in net.buses}},
        "confidence": {a.id: a.confidence_tail for a in net.areas},
        "slack": {"area": net.slack[0], "bus": net.slack[1]},
    }
    return json.dumps(doc, indent=2)


def load_bundled(name: str) -> Network:
    """Load one of the bundled cases: toy2, toy2-congested, tri3."""
    if name not in BUNDLED_CASES:
        raise CaseError([f"unknown bundled case {name!r}; choose from {BUNDLED_CASES}"])
    fname = name.replace("-", "_") + ".json"
    text = resources.files("flexmarket.cases").joinpath(fname).read_text()
    return load_case(text)


def apply_scenario(net: Network, mods: ScenarioModifiers) -> Network:
    """Return a modified copy of the network; the original is untouched."""
    for tie_id in mods.tie_capacity_overrides:
        if not any(t.id == tie_id for t in net.tie_lines):
            raise CaseError([f"tie capacity override references unknown tie-line {tie_id}"])
    gens = tuple(
        replace(g, p_max=g.p_max * mods.generator_capacity_scale,
                ramp_down=g.ramp_down * mods.ramp_scale,
                ramp_up=g.ramp_up * mods.ramp_scale)
        for g in net.generators
    )
    ties = tuple(
        replace(t, capacity=mods.tie_capacity_overrides.get(t.id, t.capacity))
        for t in net.tie_lines
    )
    buses = net.buses
    if mods.demand_cov_override is not None:
        buses = tuple(replace(b, demand_std=mods.demand_cov_override * abs(b.mean_net_demand))
                      for b in net.buses)
    out = Network(net.areas, buses, gens, net.lines, ties, net.slack)
    errs = _structural_violations(out)
    if errs:
        raise CaseError(errs)
    return out
