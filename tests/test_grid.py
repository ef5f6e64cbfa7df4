import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexmarket import (CaseError, ScenarioModifiers, apply_scenario, load_bundled,
                        load_case, save_case, validate)
from flexmarket.grid import BUNDLED_CASES


def _toy2_doc():
    return json.loads(save_case(load_bundled("toy2")))


def _tri3_doc():
    return json.loads(save_case(load_bundled("tri3")))


def _set(*path_and_value):
    """An edit that sets doc[path...] to value."""
    *path, value = path_and_value

    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


def test_bundled_toy2_structure(toy2):
    assert [a.id for a in toy2.areas] == ["A", "B"]
    assert len(toy2.buses) == 2
    assert len(toy2.tie_lines) == 1
    assert all(len(toy2.area(a).bus_ids) == 1 for a in ("A", "B"))


def test_all_bundled_cases_load_and_validate():
    for name in BUNDLED_CASES:
        net = load_bundled(name)
        assert validate(net) == []


def test_round_trip_is_identity():
    for name in BUNDLED_CASES:
        net = load_bundled(name)
        assert load_case(save_case(net)) == net


LADDER_24X2 = Path(__file__).parent / "data" / "ladder_24x2_s4.json"


@pytest.mark.parametrize("name", [*BUNDLED_CASES, "ladder_24x2_s4"])
def test_area_membership_is_restated_in_document_order(name):
    # an area holds its buses, the generators at them, the lines leaving
    # them and the ties that touch it, each in the document's order
    text = LADDER_24X2.read_text() if name == "ladder_24x2_s4" else save_case(load_bundled(name))
    net = load_case(text)
    assert save_case(net) == text
    for area in net.areas:
        buses = [b.id for b in net.buses if b.area_id == area.id]
        assert area.bus_ids == tuple(buses)
        assert area.generator_ids == tuple(g.id for g in net.generators if g.bus_id in buses)
        assert area.line_ids == tuple(l.id for l in net.lines if l.from_bus in buses)
        assert area.tie_ids == tuple(t.id for t in net.tie_lines
                                     if area.id in (t.from_area, t.to_area))
    assert sum(len(a.bus_ids) for a in net.areas) == len(net.buses)
    assert sum(len(a.generator_ids) for a in net.areas) == len(net.generators)


def test_confidence_tails_are_loaded(tri3):
    assert all(tri3.area(a).confidence_tail == 0.05 for a in ("A", "B", "C"))


def test_cov_becomes_per_bus_std(tri3):
    assert tri3.bus("B1").demand_std == pytest.approx(6.0)
    assert tri3.bus("A2").demand_std == 0.0


def test_zero_reactance_tie_rejected():
    doc = _toy2_doc()
    doc["tie_lines"][0]["reactance"] = 0.0
    with pytest.raises(CaseError) as err:
        load_case(doc)
    assert any("tie_line[AB]" in v and "reactance" in v for v in err.value.violations)


def test_duplicate_bus_id_rejected():
    doc = _toy2_doc()
    doc["buses"].append({"id": "A1", "area": "B"})
    with pytest.raises(CaseError) as err:
        load_case(doc)
    assert any("duplicate" in v for v in err.value.violations)


def test_parse_error_is_reported():
    with pytest.raises(CaseError) as err:
        load_case("{ not json")
    assert any("parse error" in v for v in err.value.violations)


@pytest.mark.parametrize("text", [b"\xff{", b"\x80abc"])
def test_bytes_that_do_not_decode_are_a_parse_error(text):
    with pytest.raises(CaseError) as err:
        load_case(text)
    assert any("parse error" in v for v in err.value.violations)


@pytest.mark.parametrize("path, value, where", [
    (("demand",), [10.0], "demand"),
    (("buses", 0), "A1", "buses[0]"),
    (("areas",), {"A": "B"}, "areas"),
    (("slack",), "A", "slack"),
    (("confidence", "A"), "x", "confidence.A"),
    (("tie_lines", 0, "capacity"), float("nan"), "tie_lines[AB].capacity"),
    (("generators", 0, "p_max"), float("inf"), "generators[GA].p_max"),
    (("generators", 0, "p_min"), 10 ** 400, "generators[GA].p_min"),
    # ids and id references must be non-empty strings, never str() of another value
    (("generators", 0, "id"), None, "generators[0].id"),
    (("generators", 0, "id"), {"a": 1}, "generators[0].id"),
    (("generators", 1, "bus"), ["B1"], "generators[GB].bus"),
    (("buses", 0, "area"), 7, "buses[A1].area"),
    (("tie_lines", 0, "to_bus"), "", "tie_lines[AB].to_bus"),
    (("tie_lines", 0, "from_area"), True, "tie_lines[AB].from_area"),
    (("areas", 1), 2, "areas[1]"),
    (("slack", "bus"), 0, "slack.bus"),
    (("lines",), [{"id": "L", "from_bus": 3, "to_bus": "A1", "reactance": 0.1, "capacity": 1.0}],
     "lines[L].from_bus"),
    # only a missing slack defaults; a present one that is no object is an error
    (("slack",), [], "slack"),
    (("slack",), 0, "slack"),
    (("slack",), False, "slack"),
    (("slack",), "", "slack"),
    (("slack",), None, "slack"),
])
def test_misshapen_case_is_rejected_with_its_path(path, value, where):
    doc = _toy2_doc()
    _set(*path, value)(doc)
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))  # NaN and Infinity travel as JSON literals
    assert any(v.startswith(where + ":") for v in err.value.violations), err.value.violations


def _renamed(doc, old, new):
    doc[new] = doc.pop(old)


UNKNOWN_KEYS = [
    # a misspelt optional field would otherwise load as its default (t_da 0.0)
    (lambda doc: _renamed(doc["tie_lines"][0], "t_da", "tda"), "tie_lines[AB].tda"),
    (lambda doc: doc["confidence"].update(Z=0.1), "confidence.Z"),
    (lambda doc: doc["generators"][0].update(cost_qudratic=0.1), "generators[GA].cost_qudratic"),
    (lambda doc: doc.update(notes="x"), "case.notes"),
    (lambda doc: doc["demand"].update(cv=0.1), "demand.cv"),
    (lambda doc: doc["demand"]["buses"]["A1"].update(sd=1.0), "demand.buses[A1].sd"),
    (lambda doc: doc["slack"].update(angle=0.0), "slack.angle"),
    (lambda doc: doc["buses"][1].update(zone="B"), "buses[B1].zone"),
]


@pytest.mark.parametrize("edit, where", UNKNOWN_KEYS, ids=[where for _, where in UNKNOWN_KEYS])
def test_unknown_key_is_rejected_with_its_path(edit, where):
    doc = _toy2_doc()
    doc["tie_lines"][0]["t_da"] = 3.0
    load_case(doc)
    edit(doc)
    with pytest.raises(CaseError) as err:
        load_case(doc)
    assert [v for v in err.value.violations if v.startswith(where + ":")], err.value.violations


def _new_area_without_generators(doc):
    doc["areas"].append("D")
    doc["confidence"]["D"] = 0.05


def _case(edit, *violations, id):
    return pytest.param(edit, list(violations), id=id)


STRUCTURAL = [
    _case(lambda doc: doc["areas"].append("C"), "areas: duplicate area id", id="duplicate-area"),
    _case(_set("buses", 3, "area", "Z"), "bus[C1]: unknown area Z",
          "tie_line[AC1]: bus C1 not in area C", "tie_line[BC1]: bus C1 not in area C",
          "tie_line[BC2]: bus C1 not in area C", "area[C]: needs at least one generator",
          id="bus-unknown-area"),
    _case(_set("demand", "buses", "A1", "std", -1.0), "bus[A1]: demand_std must be >= 0",
          id="negative-demand-std"),
    _case(_set("generators", 0, "bus", "Q1"), "generator[GA1]: unknown bus Q1",
          id="generator-unknown-bus"),
    _case(_set("generators", 0, "cost_quadratic", 0.0),
          "generator[GA1]: cost_quadratic must be > 0", id="cost-quadratic"),
    _case(_set("generators", 0, "p_da", 70.0),
          "generator[GA1]: requires p_min <= p_da <= p_max", id="p-da-outside-limits"),
    _case(_set("generators", 0, "ramp_down", 1.0),
          "generator[GA1]: ramp_down must be <= ramp_up", id="ramp-order"),
    _case(_set("lines", 0, "to_bus", "Q1"), "line[LA]: unknown bus Q1", id="line-unknown-bus"),
    _case(_set("lines", 0, "to_bus", "B1"), "line[LA]: endpoints must be in the same area",
          id="line-across-areas"),
    _case(_set("lines", 0, "reactance", 0.0), "line[LA]: reactance must be > 0",
          id="line-reactance"),
    _case(_set("lines", 0, "capacity", 0.0), "line[LA]: capacity must be > 0",
          id="line-capacity"),
    _case(lambda doc: doc["tie_lines"][0].update(to_area="A", to_bus="A1"),
          "tie_line[AB1]: from_area and to_area must differ", id="tie-within-one-area"),
    _case(_set("tie_lines", 0, "to_area", "Z"), "tie_line[AB1]: unknown area Z",
          id="tie-unknown-area"),
    _case(_set("tie_lines", 0, "capacity", -1.0), "tie_line[AB1]: capacity must be >= 0",
          "tie_line[AB1]: |t_da| must be <= capacity", id="tie-capacity"),
    _case(_set("confidence", "A", 1.0), "area[A]: confidence tail must be in (0,1)",
          id="confidence-tail"),
    _case(_new_area_without_generators, "area[D]: needs at least one generator",
          id="area-without-generator"),
    _case(_set("slack", "area", "Z"), "slack: unknown area Z", id="slack-unknown-area"),
    _case(lambda doc: doc["generators"][0].pop("p_min"), "generators[GA1]: missing field p_min",
          id="missing-field"),
]


@pytest.mark.parametrize("edit, violations", STRUCTURAL)
def test_each_structural_fault_is_named(edit, violations):
    doc = _tri3_doc()
    edit(doc)
    with pytest.raises(CaseError) as err:
        load_case(doc)
    assert err.value.violations == violations


def test_a_top_level_list_is_a_parse_error():
    with pytest.raises(CaseError) as err:
        load_case("[]")
    assert err.value.violations == ["parse error: top level must be an object"]


def test_an_unknown_bundled_case_is_named():
    with pytest.raises(CaseError) as err:
        load_bundled("nope")
    assert err.value.violations == [
        "unknown bundled case 'nope'; choose from ('toy2', 'toy2-congested', 'tri3')"]


def test_a_scenario_that_breaks_the_structure_is_rejected(tri3):
    # p_max shrinks below p_da at every generator dispatched day-ahead
    with pytest.raises(CaseError) as err:
        apply_scenario(tri3, ScenarioModifiers(generator_capacity_scale=0.01))
    assert err.value.violations == [f"generator[{g}]: requires p_min <= p_da <= p_max"
                                    for g in ("GA1", "GB1", "GB2", "GC1", "GC2")]


def test_day_ahead_flow_must_fit_capacity():
    doc = _toy2_doc()
    doc["tie_lines"][0]["t_da"] = 120.0
    with pytest.raises(CaseError) as err:
        load_case(doc)
    assert any("t_da" in v for v in err.value.violations)


def test_every_tie_listed_once_per_endpoint_area(tri3):
    seen = {}
    for area in tri3.areas:
        for tie_id in area.tie_ids:
            seen.setdefault(tie_id, []).append(area.id)
    for tie in tri3.tie_lines:
        assert sorted(seen[tie.id]) == sorted([tie.from_area, tie.to_area])


def test_tie_views_orient_day_ahead_flow(toy2):
    doc = _toy2_doc()
    doc["tie_lines"][0]["t_da"] = 3.0
    net = load_case(doc)
    (view_a,) = net.tie_views("A")
    (view_b,) = net.tie_views("B")
    assert view_a.t_da == 3.0 and view_a.canonical
    assert view_b.t_da == -3.0 and not view_b.canonical
    assert view_a.own_bus == "A1" and view_a.neighbor_bus == "B1"


def test_scenario_identity(tri3):
    assert apply_scenario(tri3, ScenarioModifiers(ramp_scale=1.0)) == tri3


def test_scenario_is_pure(tri3):
    mods = ScenarioModifiers(generator_capacity_scale=1.2, ramp_scale=0.75,
                             tie_capacity_overrides={"BC1": 1.5}, demand_cov_override=0.1)
    first = apply_scenario(tri3, mods)
    second = apply_scenario(tri3, mods)
    assert first == second
    assert tri3 == load_bundled("tri3")  # original untouched


def test_capacity_scale_twenty_percent(toy2):
    scaled = apply_scenario(toy2, ScenarioModifiers(generator_capacity_scale=1.2))
    assert scaled.generator("GA").p_max == pytest.approx(120.0)
    # cost curve extrapolated: coefficients unchanged over the extended range
    assert scaled.generator("GA").cost_quadratic == toy2.generator("GA").cost_quadratic
    assert scaled.generator("GA").cost_linear == toy2.generator("GA").cost_linear


def test_tie_capacity_override(tri3):
    scaled = apply_scenario(tri3, ScenarioModifiers(tie_capacity_overrides={"BC1": 150.0}))
    assert scaled.tie("BC1").capacity == 150.0
    assert scaled.tie("BC2").capacity == tri3.tie("BC2").capacity


def test_unknown_tie_override_rejected(tri3):
    with pytest.raises(CaseError):
        apply_scenario(tri3, ScenarioModifiers(tie_capacity_overrides={"nope": 1.0}))


def test_ramp_scale_applies_to_both_bounds(tri3):
    scaled = apply_scenario(tri3, ScenarioModifiers(ramp_scale=0.75))
    assert scaled.generator("GB1").ramp_up == pytest.approx(15.0)
    assert scaled.generator("GB1").ramp_down == pytest.approx(-3.75)


def test_demand_cov_override_changes_std_not_mean(tri3):
    scaled = apply_scenario(tri3, ScenarioModifiers(demand_cov_override=0.1))
    assert scaled.bus("B1").demand_std == pytest.approx(10.0)
    assert scaled.bus("B1").mean_net_demand == tri3.bus("B1").mean_net_demand


@given(st.floats(min_value=0.1, max_value=3.0))
def test_scenario_scale_round_trips(scale):
    net = load_bundled("toy2")
    scaled = apply_scenario(net, ScenarioModifiers(generator_capacity_scale=scale))
    assert scaled.generator("GB").p_max == pytest.approx(100.0 * scale)


def test_disconnected_internal_graph_warns_but_passes(caplog):
    doc = {
        "areas": ["X"],
        "buses": [{"id": "X1", "area": "X"}, {"id": "X2", "area": "X"}],
        "generators": [
            {"id": "G1", "bus": "X1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 100.0,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
            {"id": "G2", "bus": "X2", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 100.0,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
        ],
        "tie_lines": [],
        "demand": {"buses": {"X1": {"mean": 5.0}, "X2": {"mean": 5.0}}},
        "confidence": {"X": 0.5},
    }
    import logging
    with caplog.at_level(logging.WARNING, logger="flexmarket.grid"):
        net = load_case(doc)
        violations = validate(net)
    assert violations == []
    assert any("disconnected" in rec.message for rec in caplog.records)


def test_autarky_violation_reported():
    # area Y cannot reach its own requirement: flagged by the feasibility probe
    doc = {
        "areas": ["X", "Y"],
        "buses": [{"id": "X1", "area": "X"}, {"id": "Y1", "area": "Y"}],
        "generators": [
            {"id": "GX", "bus": "X1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 100.0,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
            {"id": "GY", "bus": "Y1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 6.0,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
        ],
        "tie_lines": [
            {"id": "XY", "from_area": "X", "from_bus": "X1", "to_area": "Y", "to_bus": "Y1",
             "reactance": 0.1, "capacity": 50.0, "t_da": 0.0}
        ],
        "demand": {"buses": {"X1": {"mean": 0.0}, "Y1": {"mean": 10.0}}},
        "confidence": {"X": 0.5, "Y": 0.5},
    }
    net = load_case(doc)
    # independent check: max deliverable supply in Y is below its requirement
    gen = net.generator("GY")
    assert min(gen.p_max - gen.p_da, gen.ramp_up) + gen.p_da < 10.0
    violations = validate(net)
    assert any("area[Y]" in v and "cannot meet local demand" in v for v in violations)
    assert not any("area[X]" in v for v in violations)
    # the probe is the only failure: structure itself is fine
    assert len(violations) == 1
