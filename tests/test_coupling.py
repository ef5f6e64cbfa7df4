import json
import math
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexmarket import (MechanismConfig, RhoSchedule, ScenarioModifiers, apply_scenario,
                        coupling, decode_message, encode_message, inertial_update, load_case,
                        run, save_case, step_rho, trace_to_csv, update_capacity_price,
                        verify_nash)
from flexmarket.coupling import (AreaTrace, ExchangeMessage, MechanismError, MessageError,
                                 StaleMessageError, TieQuote, TieTrace, TraceRecord,
                                 terms_for_area)
from flexmarket.market import (AreaDecision, AreaDuals, ChanceConstrainedClearing,
                               ClearingResult, TermsOfTrade, TieTerms, autarky_infeasibility,
                               clear)
from flexmarket.qp import DEFAULT_TOL

from conftest import BUNDLED_RUN_CONFIG, PassThroughEngine
from oracles import trace_row

LADDER_4X8 = Path(__file__).parent / "data" / "ladder_4x8_s0.json"

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_step_rho_examples():
    assert step_rho(1, RhoSchedule(1.0, 0.0, 1.0)) == 1.0
    assert step_rho(4, RhoSchedule(1.0, 0.0, 1.0)) == 0.25


def test_step_rho_partial_sums():
    k = np.arange(1, 10**6 + 1, dtype=float)
    rho = 1.0 / (k + 0.0)
    assert rho.sum() > 10.0  # diverging in practice
    assert (rho ** 2).sum() < 2.0


def test_rho_schedule_validation():
    with pytest.raises(ValueError):
        RhoSchedule(exponent=0.4)  # squares would dominate the sums
    with pytest.raises(ValueError):
        RhoSchedule(exponent=1.2)
    with pytest.raises(ValueError):
        RhoSchedule(rho0=4.0, k0=0.0, exponent=1.0)  # rho_1 > 1


@pytest.mark.parametrize("setting", [{"solver_max_iter": 0}, {"max_rounds": 0}])
def test_mechanism_config_rejects_a_zero_count(setting):
    with pytest.raises(ValueError):
        MechanismConfig(**setting)


def test_step_rho_counts_rounds_from_one():
    with pytest.raises(ValueError) as err:
        step_rho(0, RhoSchedule())
    assert str(err.value) == "rounds are counted from 1"


@pytest.mark.parametrize("setting, message", [
    ({"beta": 1.0}, "beta must lie in (0,1)"),
    ({"solver_tol": 0.0}, "solver_tol must be finite and > 0"),
])
def test_mechanism_config_rejects_a_bad_setting(setting, message):
    with pytest.raises(ValueError) as err:
        MechanismConfig(**setting)
    assert str(err.value) == message


def test_inertial_update_endpoints():
    prev = np.array([1.0, -2.0])
    fresh = np.array([3.0, 5.0])
    assert np.array_equal(inertial_update(prev, fresh, 1.0), fresh)
    assert np.array_equal(inertial_update(prev, fresh, 0.0), prev)
    assert np.array_equal(inertial_update(np.zeros(1), np.array([8.0]), 0.5), [4.0])


def test_inertial_update_shape_mismatch():
    with pytest.raises(ValueError):
        inertial_update(np.zeros(2), np.zeros(3), 0.5)


@given(st.lists(finite.filter(lambda v: abs(v) < 1e12), min_size=1, max_size=6).flatmap(
    lambda p: st.tuples(st.just(p),
                        st.lists(finite.filter(lambda v: abs(v) < 1e12),
                                 min_size=len(p), max_size=len(p)),
                        st.floats(min_value=0.0, max_value=1.0))))
def test_inertial_update_damps_monotonically(args):
    prev, fresh, rho = args
    prev = np.asarray(prev)
    fresh = np.asarray(fresh)
    moved = np.max(np.abs(inertial_update(prev, fresh, rho) - prev))
    bound = rho * np.max(np.abs(fresh - prev))
    assert moved <= bound * (1 + 1e-12) + 1e-9 * (1 + np.max(np.abs(prev)))


def test_capacity_price_update_examples():
    # within capacity: clamped at zero
    assert update_capacity_price(0.0, 1.0, 1.0, 0.0, 10.0, 0.5) == 0.0
    # mu 1, beta 0.5, violation term -0.4 -> 0.8
    assert update_capacity_price(1.0, 0.6, 0.6, 0.0, 1.0, 0.5) == pytest.approx(0.8)
    # mu 0, beta 0.1, both adjustments 100, cap 80 -> 2.0
    assert update_capacity_price(0.0, 100.0, 100.0, 0.0, 80.0, 0.1) == pytest.approx(2.0)
    # arrays update elementwise, exactly as the scalar calls do
    cases = np.array([[0.0, 1.0, 1.0, 0.0, 10.0], [1.0, 0.6, 0.6, 0.0, 1.0],
                      [0.0, 100.0, 100.0, 0.0, 80.0], [2.5, 3.0, 1.0, 4.0, 7.0]])
    out = update_capacity_price(*cases.T, 0.3)
    assert out.tolist() == [update_capacity_price(*row, 0.3) for row in cases.tolist()]


@given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6),
       st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6),
       st.floats(min_value=0, max_value=1e6), st.floats(min_value=1e-6, max_value=0.999))
def test_capacity_price_never_negative(mu, a, b, tda, cap, beta):
    assert update_capacity_price(mu, a, b, tda, cap, beta) >= 0.0


def _message():
    return ExchangeMessage("A", 3, (TieQuote("T1", 1.25, -0.5, 8.0),
                                    TieQuote("T2", -3.5e-7, 0.125, 61.0),
                                    TieQuote("T3", 0.1 + 0.2, 1e-300, 17.0)))


def test_message_round_trip_identity():
    msg = _message()
    assert decode_message(encode_message(msg)) == msg


def test_wire_format_is_the_documented_json():
    doc = json.loads(encode_message(_message()))
    assert set(doc) == {"sender", "round", "ties"}
    assert doc["sender"] == "A" and doc["round"] == 3
    assert [set(t) for t in doc["ties"]] == \
        [{"id", "delta_t_mw", "theta_rad", "delta_price"}] * 3
    assert [t["id"] for t in doc["ties"]] == ["T1", "T2", "T3"]  # sorted by id


@given(st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_message_round_trip_is_bit_faithful(dt, theta, price):
    import math
    msg = ExchangeMessage("X", 0, (TieQuote("t", dt, theta, price),))
    out = decode_message(encode_message(msg))
    q = out.ties[0]
    for sent, got in zip((dt, theta, price), (q.delta_t_mw, q.theta_rad, q.delta_price)):
        assert sent == got
        assert math.copysign(1.0, sent) == math.copysign(1.0, got)  # -0.0 survives


def test_non_finite_values_rejected_at_encode():
    msg = ExchangeMessage("X", 0, (TieQuote("t", float("nan"), 0.0, 0.0),))
    with pytest.raises(MessageError):
        encode_message(msg)


def test_tampered_payload_rejected():
    data = encode_message(_message())
    with pytest.raises(MessageError):
        decode_message(data[:-7])
    with pytest.raises(MessageError):
        decode_message(b'{"sender": 3, "round": "x", "ties": []}')


@pytest.mark.parametrize("tie, message", [
    ({"id": "AB"}, "malformed payload: bad tie entry"),
    ({"id": "AB", "delta_t_mw": "1", "theta_rad": 0.0, "delta_price": 0.0},
     "malformed payload: bad tie field types"),
    ({"id": 7, "delta_t_mw": 1.0, "theta_rad": 0.0, "delta_price": 0.0},
     "malformed payload: bad tie field types"),
    ({"id": "AB", "delta_t_mw": 1.0, "theta_rad": True, "delta_price": 0.0},
     "malformed payload: bad tie field types"),
])
def test_a_bad_tie_entry_is_rejected(tie, message):
    data = json.dumps({"sender": "A", "round": 1, "ties": [tie]}).encode()
    with pytest.raises(MessageError) as err:
        decode_message(data)
    assert str(err.value) == message


def test_stale_round_detected():
    data = encode_message(_message())
    with pytest.raises(StaleMessageError) as err:
        decode_message(data, expected_round=4)
    assert err.value.expected == 4 and err.value.got == 3
    assert decode_message(data, expected_round=3).round_k == 3


def test_toy2_converges_to_hand_kkt_values(toy2_run):
    # equalized marginal costs: dP = (8, 2), flow 8, both quotes at 8 USD/MWh
    result, _ = toy2_run
    last = result.trace[-1]
    assert result.converged
    assert last.ties["AB"].flow_from == pytest.approx(8.0, abs=1e-2)
    assert last.ties["AB"].flow_to == pytest.approx(-8.0, abs=1e-2)
    assert last.ties["AB"].delta_from == pytest.approx(8.0, abs=1e-2)
    assert last.ties["AB"].delta_to == pytest.approx(8.0, abs=1e-2)
    assert last.ties["AB"].mu <= 1e-6


def test_congested_toy2_prices_the_bottleneck(toy2_congested_run):
    # capped at 5 MW: marginal costs split to 5 and 20, the capacity price
    # bridges the 15 USD/MWh gap at half weight per side
    result, _ = toy2_congested_run
    last = result.trace[-1]
    assert last.ties["AB"].flow_from == pytest.approx(5.0, abs=1e-2)
    assert last.ties["AB"].mu / 2 == pytest.approx(15.0, abs=0.1)
    assert last.ties["AB"].delta_from == pytest.approx(5.0, abs=0.1)
    assert last.ties["AB"].delta_to == pytest.approx(20.0, abs=0.1)


def test_mu_never_negative_along_the_run(toy2_congested_run):
    result, _ = toy2_congested_run
    assert all(t.mu >= 0.0 for rec in result.trace for t in rec.ties.values())


def test_zero_capacity_network_clears_at_autarky(tri3):
    # a zero-capacity tie is an open intertie: no trade possible, nothing to
    # exchange, so every round is the autarky clear and the state never moves
    dead = apply_scenario(tri3, ScenarioModifiers(
        tie_capacity_overrides={t.id: 0.0 for t in tri3.tie_lines}))
    result = run(dead, MechanismConfig(max_rounds=40, tol=1e-12))
    assert result.converged and result.rounds <= 10
    for rec in result.trace:
        assert rec.ties == {}
        assert rec.dx_inf == 0.0
    from flexmarket.market import AreaProblem
    for area in dead.areas:
        autarky = AreaProblem(dead, area.id, autarky=True).clear(TermsOfTrade({}))
        for rec in result.trace:
            assert rec.areas[area.id].reliability_price == pytest.approx(
                autarky.duals.reliability_price, abs=1e-7)


def test_a_generated_network_runs_to_its_stop():
    # 2x4-s1 once stopped at round 920 with MechanismError: a clamped
    # multiplier failed validation and ended the polish (ROADMAP item 1)
    net = load_case((Path(__file__).parent / "data" / "ladder_2x4_s1.json").read_text())
    result = run(net, BUNDLED_RUN_CONFIG)
    assert result.converged


def test_convergence_metrics_on_converged_run(toy2_run):
    result, _ = toy2_run
    last = result.trace[-1]
    assert last.consensus <= 1e-3
    assert abs(last.slackness) <= 1e-3
    assert last.dx_inf < 1e-8
    assert set(last.ties) == {"AB"}


def test_trace_slackness_keeps_the_sign_of_the_largest_product(toy2_congested, toy2_run):
    # at beta 0.5 the AB tie is priced (mu ~ 30) while its flow sits just under
    # capacity, so its product is negative and far from zero after 80 rounds
    result = run(toy2_congested, MechanismConfig(beta=0.5, max_rounds=80))
    for rec in result.trace:
        assert rec.slackness == max((t.slackness for t in rec.ties.values()), key=abs)
    assert result.trace[-1].slackness < -1.0
    # mu == 0 below capacity gives products of -0.0; the record reads 0.0
    result, _ = toy2_run
    assert all(math.copysign(1.0, t.slackness) == -1.0 for t in result.trace[-1].ties.values())
    assert all(math.copysign(1.0, rec.slackness) == 1.0 for rec in result.trace)


def test_nash_gaps_vanish_at_the_limit(toy2, toy2_run):
    result, _ = toy2_run
    gaps = verify_nash(toy2, result.state, result.clearings)
    for report in gaps.values():
        assert report.passed
        assert report.gap <= report.tolerance
        assert report.gap >= -1e-6  # the re-clear can only improve


def test_perturbed_state_shows_profitable_deviation(toy2, toy2_run):
    result, _ = toy2_run
    clearings = dict(result.clearings)
    limit = clearings["B"]
    worse = AreaDecision(
        delta_p={"GB": limit.decision.delta_p["GB"] + 1.0},
        delta_t={"AB": limit.decision.delta_t["AB"] + 1.0},
        theta={"B1": limit.decision.theta["B1"] + 0.1},
    )
    clearings["B"] = replace(limit, decision=worse)
    gaps = verify_nash(toy2, result.state, clearings)
    assert gaps["B"].gap > 0.1
    assert not gaps["B"].passed


def test_near_never_changes_the_clearing(toy2, toy2_run):
    # the perturbed decision above binds other rows than the best response; as
    # a seed it may cost a cold solve, but it never changes what is accepted
    result, _ = toy2_run
    limit = result.clearings["B"].decision
    worse = AreaDecision(
        delta_p={"GB": limit.delta_p["GB"] + 1.0},
        delta_t={"AB": limit.delta_t["AB"] + 1.0},
        theta={"B1": limit.theta["B1"] + 0.1},
    )
    terms = terms_for_area(toy2, result.state, "B")
    unseeded = clear(toy2, "B", terms)
    seeded = clear(toy2, "B", terms, near=worse)
    for field in ("delta_p", "delta_t", "theta"):
        expected = getattr(unseeded.decision, field)
        got = getattr(seeded.decision, field)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-9)
    assert seeded.kkt_residual <= DEFAULT_TOL


def test_single_area_network_is_trivially_nash():
    net = load_case({
        "areas": ["X"],
        "buses": [{"id": "X1", "area": "X"}],
        "generators": [{"id": "G", "bus": "X1", "cost_quadratic": 1.0, "cost_linear": 0.0,
                        "cost_constant": 0.0, "p_min": 0.0, "p_max": 50.0,
                        "ramp_down": -20.0, "ramp_up": 20.0, "p_da": 5.0}],
        "tie_lines": [],
        "demand": {"buses": {"X1": {"mean": 12.0}}},
        "confidence": {"X": 0.5},
    })
    result = run(net, MechanismConfig(max_rounds=20, tol=1e-10))
    gaps = verify_nash(net, result.state, result.clearings)
    assert gaps["X"].gap == pytest.approx(0.0, abs=1e-9)


def test_shared_capacity_price_across_orientations(tri3, tri3_run):
    result, _ = tri3_run
    for area_id in ("B", "C"):
        terms = terms_for_area(tri3, result.state, area_id)
        for view in tri3.tie_views(area_id):
            assert terms.for_tie(view.tie_id).capacity_price == result.state.mu[view.tie_id]


def test_wire_round_trip_gives_the_direct_terms(tri3, tri3_run):
    # run() exchanges broadcasts in memory; that is safe because a networked
    # exchange through the wire format would hand every area the same terms
    state = tri3_run[0].state
    received = {}
    for area_id, b in state.areas.items():
        quotes = tuple(TieQuote(v.tie_id, b.delta_t[v.tie_id], b.theta[v.own_bus],
                                b.price[v.tie_id]) for v in tri3.tie_views(area_id))
        data = encode_message(ExchangeMessage(area_id, state.k, quotes))
        received[area_id] = {q.tie_id: q for q in
                             decode_message(data, expected_round=state.k).ties}
    for area in tri3.areas:
        terms = terms_for_area(tri3, state, area.id)
        for view in tri3.tie_views(area.id):
            quote = received[view.neighbor_area][view.tie_id]
            assert quote.delta_price == terms.for_tie(view.tie_id).price
            assert quote.theta_rad == terms.for_tie(view.tie_id).neighbor_angle


def test_day_ahead_flow_orientation_carries_through(toy2):
    # schedule 3 MW day-ahead on the tie: the physical optimum is still 8 MW
    # total, so the adjustments split 5 / -5 across the two orientations
    doc = json.loads(__import__("flexmarket").save_case(toy2))
    doc["tie_lines"][0]["t_da"] = 3.0
    net = load_case(doc)
    result = run(net, MechanismConfig(max_rounds=3000, tol=1e-9))
    last = result.trace[-1]
    assert result.converged
    assert last.ties["AB"].flow_from == pytest.approx(8.0, abs=1e-2)
    assert last.ties["AB"].flow_to == pytest.approx(-8.0, abs=1e-2)
    assert result.state.areas["A"].delta_t["AB"] == pytest.approx(5.0, abs=1e-2)
    assert result.state.areas["B"].delta_t["AB"] == pytest.approx(-5.0, abs=1e-2)
    assert last.consensus <= 1e-3
    assert last.ties["AB"].mu <= 1e-6


def test_any_clearing_engine_plugs_in(toy2):
    # the orchestrator depends only on the clearing contract: wrap the default
    # engine and make sure the wrapper is what actually gets driven
    from flexmarket import ChanceConstrainedClearing

    class CountingEngine:
        def __init__(self, net):
            self.inner = ChanceConstrainedClearing(net)
            self.calls = 0

        def clear_area(self, area_id, terms):
            self.calls += 1
            return self.inner.clear_area(area_id, terms)

    engine = CountingEngine(toy2)
    result = run(toy2, MechanismConfig(max_rounds=15, tol=1e-12), engine=engine)
    assert engine.calls == result.rounds * len(toy2.areas)


def test_an_empty_trace_writes_nothing():
    assert trace_to_csv(()) == ""


def test_trace_csv_shape(toy2_run):
    result, _ = toy2_run
    text = trace_to_csv(result.trace)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "k"
    assert header[1:6] == ["AB.flow_from", "AB.flow_to", "AB.mu", "AB.delta_from", "AB.delta_to"]
    assert header[6:10] == ["A.gamma", "A.objective", "B.gamma", "B.objective"]
    assert header[10:] == ["dx_inf", "consensus", "slackness"]
    assert len(lines) == len(result.trace) + 1
    # the max starts from 0.0, so rounds with mu == 0 never print -0.0
    assert all(line.split(",")[-1] != "-0.0" for line in lines[1:])


def test_a_run_builds_no_record_per_round(toy2_congested, monkeypatch):
    # the trace keeps one float64 row per round; record objects are views,
    # built only when an item is read
    built = Counter()
    for cls in (TraceRecord, TieTrace, AreaTrace):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    result = run(toy2_congested, BUNDLED_RUN_CONFIG)
    assert built == Counter()
    trace = result.trace
    stored = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
    assert len(stored) == 1
    width = 7 * len(toy2_congested.active_ties()) + 2 * len(toy2_congested.areas) + 3
    assert stored[0].dtype == np.float64 and stored[0].shape[1] == width
    assert result.rounds <= stored[0].shape[0] <= 2 * result.rounds
    assert trace.rows.shape == (result.rounds, width)
    assert trace[-1].k == result.rounds
    assert built == Counter(TraceRecord=1, TieTrace=1, AreaTrace=2)


def test_a_default_engine_run_builds_results_only_for_its_last_round(toy2_congested,
                                                                    monkeypatch):
    # the default engine's round reads terms from and writes broadcasts to
    # arrays; result objects are built only for the run's final clearings
    built = Counter()
    for cls in (AreaDecision, AreaDuals, ClearingResult, TermsOfTrade, TieTerms):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    result = run(toy2_congested, BUNDLED_RUN_CONFIG)
    areas = len(toy2_congested.areas)
    assert result.rounds > 100
    assert all(built[name] <= areas for name in
               ("AreaDecision", "AreaDuals", "ClearingResult", "TermsOfTrade"))
    assert built["TieTerms"] <= sum(len(toy2_congested.tie_views(a.id))
                                    for a in toy2_congested.areas)
    assert len(result.clearings) == areas


def _bits(value):
    """``value`` with each float as its type name and float.hex, recursively."""
    if isinstance(value, float):
        return type(value).__name__, float.hex(value)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


@pytest.mark.parametrize("case", ["toy2", "toy2-congested", "tri3", "ladder"])
def test_the_array_round_matches_the_terms_of_trade_round(case, request):
    # the default engine's array round against the terms-of-trade round that a
    # plugged-in engine takes, on the same clearing code: every byte agrees
    if case == "ladder":
        net = load_case(json.loads(LADDER_4X8.read_text()))
        config = MechanismConfig(max_rounds=80, tol=1e-300)
        default = run(net, config)
    else:
        net = request.getfixturevalue(case.replace("-", "_"))
        config = BUNDLED_RUN_CONFIG
        default, _ = request.getfixturevalue(case.replace("-", "_") + "_run")
        assert default.converged
    plugged = run(net, config, engine=PassThroughEngine(net))
    assert plugged.rounds == default.rounds
    assert trace_to_csv(plugged.trace) == trace_to_csv(default.trace)
    assert plugged.state == default.state
    assert list(plugged.clearings) == list(default.clearings) == [a.id for a in net.areas]
    assert _bits({a: asdict(c) for a, c in plugged.clearings.items()}) == \
        _bits({a: asdict(c) for a, c in default.clearings.items()})


def test_both_rounds_report_an_infeasible_area_alike():
    net = load_case(INFEASIBLE_PAIR)
    default, plugged = ChanceConstrainedClearing(net), PassThroughEngine(net)
    messages = []
    for engine, inner in ((default, default), (plugged, plugged.inner)):
        # a stale binding set, held, whose map the clear tries first; the
        # failed clear must drop it
        inner._hints["Y"] = ((0,), True)
        with pytest.raises(MechanismError) as err:
            run(net, MechanismConfig(max_rounds=5), engine=engine)
        assert err.value.round_k == 1
        messages.append(str(err.value))
        assert inner._hints["Y"] == (None, False)
    assert messages[0] == messages[1]
    assert messages[0].startswith("round 1: area[Y]: clearing infeasible")


def _assert_views_read_the_csv(trace):
    lines = trace_to_csv(trace).splitlines()
    header = lines[0].split(",")
    assert len(lines) == len(trace) + 1
    for k, (rec, line) in enumerate(zip(trace, lines[1:]), 1):
        csv_row = dict(zip(header, line.split(",")))
        assert rec.k == k == int(csv_row.pop("k"))
        view = {f"{t}.{f}": getattr(tt, f) for t, tt in rec.ties.items()
                for f in ("flow_from", "flow_to", "mu", "delta_from", "delta_to")}
        for a, at in rec.areas.items():
            view[f"{a}.gamma"], view[f"{a}.objective"] = at.reliability_price, at.objective
        view.update(dx_inf=rec.dx_inf, consensus=rec.consensus, slackness=rec.slackness)
        assert {c: float.hex(v) for c, v in view.items()} == \
            {c: float.hex(float(v)) for c, v in csv_row.items()}
        # each tie keeps its own products; the round's figures reduce them
        assert all(tt.consensus == abs(tt.flow_from + tt.flow_to) for tt in rec.ties.values())
        assert rec.consensus == max([0.0, *(tt.consensus for tt in rec.ties.values())])
        assert rec.slackness == max((tt.slackness for tt in rec.ties.values()),
                                    key=abs, default=0.0) + 0.0


def test_trace_views_read_the_csv_rows(tri3, tri3_run):
    result, _ = tri3_run
    trace = result.trace
    n = len(trace)
    assert n == result.rounds
    _assert_views_read_the_csv(trace)
    assert trace[-1] == trace[n - 1] and trace[-1].k == n
    assert trace[-n].k == 1 and trace[-2].k == n - 1
    assert [rec.k for rec in trace[1:4]] == [2, 3, 4]
    assert [rec.k for rec in trace[::-400]] == list(range(n, 0, -400))
    assert [rec.k for rec in trace] == list(range(1, n + 1))
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[past]
    # ties and areas out of sorted order: the CSV sorts, the views keep network order
    doc = json.loads(save_case(tri3))
    doc["areas"] = doc["areas"][::-1]
    for tie in doc["tie_lines"]:
        tie["id"] = tie["id"][::-1]
    relabeled = run(load_case(doc), MechanismConfig(max_rounds=30))
    assert list(relabeled.trace[-1].ties) == ["1BA", "2BA", "1CA", "1CB", "2CB"]
    assert list(relabeled.trace[-1].areas) == ["C", "B", "A"]
    _assert_views_read_the_csv(relabeled.trace)
    # without ties a row keeps its area and round columns
    dead = run(apply_scenario(tri3, ScenarioModifiers(
        tie_capacity_overrides={t.id: 0.0 for t in tri3.tie_lines})),
        MechanismConfig(max_rounds=40, tol=1e-12))
    assert dead.trace.rows.shape == (dead.rounds, 2 * 3 + 3)
    assert dead.trace[-1].ties == {} and list(dead.trace[-1].areas) == ["A", "B", "C"]
    assert trace_to_csv(dead.trace).splitlines()[0] == \
        "k,A.gamma,A.objective,B.gamma,B.objective,C.gamma,C.objective,dx_inf,consensus,slackness"
    _assert_views_read_the_csv(dead.trace)


def _recorded_run(net, config, monkeypatch):
    """A default-engine run and, per round, its broadcast vector x, capacity
    prices mu and the (gamma, objective) that each area's response returned."""
    xs, mus, scores = [], [], []

    def recording(real, into):
        def wrapper(*args):
            into.append(real(*args))
            return into[-1]
        return wrapper

    monkeypatch.setattr(coupling, "inertial_update", recording(coupling.inertial_update, xs))
    monkeypatch.setattr(coupling, "update_capacity_price",
                        recording(coupling.update_capacity_price, mus))
    engine = ChanceConstrainedClearing(net, config.solver_tol, config.solver_max_iter)
    engine.respond = recording(engine.respond, scores)
    result = run(net, config, engine=engine)
    areas = len(net.areas)
    return result, xs, mus, [scores[i:i + areas] for i in range(0, len(scores), areas)]


@pytest.mark.parametrize("case", ["toy2-congested", "tri3", "tri3-untied"])
def test_the_trace_rows_are_the_one_piece_formula(case, request, monkeypatch):
    # a round writes part of its row and run derives the rest of every row at
    # once before it returns: the rows must be the one-piece formula's, byte for byte
    if case == "toy2-congested":
        net, config = request.getfixturevalue("toy2_congested"), BUNDLED_RUN_CONFIG
    else:
        net, config = request.getfixturevalue("tri3"), MechanismConfig(max_rounds=60, tol=1e-300)
        if case == "tri3-untied":  # zero capacity opens every tie: no tie columns
            net = apply_scenario(net, ScenarioModifiers(
                tie_capacity_overrides={t.id: 0.0 for t in net.tie_lines}))
    result, xs, mus, scores = _recorded_run(net, config, monkeypatch)
    assert result.converged == (case != "tri3")
    assert len(xs) == len(mus) == len(scores) == result.rounds
    ties = net.active_ties()
    assert bool(ties) == (case != "tri3-untied")
    # the oracle finds each tie's dT and price slots of x by the slot's key
    slot = {key: i for i, key in enumerate(coupling._BroadcastIndex(net).keys)}
    sides = [[slot[getattr(t, side), field, t.id] for t in ties]
             for field in ("delta_t", "price") for side in ("from_area", "to_area")]
    t_da = np.array([t.t_da for t in ties], dtype=float)
    capacity = np.array([t.capacity for t in ties], dtype=float)
    rows, previous = [], np.zeros_like(xs[0])
    for x, mu, score in zip(xs, mus, scores):
        dx = float(np.max(np.abs(x - previous), initial=0.0))
        rows.append(trace_row(t_da, capacity, *(x[s] for s in sides), mu, score, dx))
        previous = x
    assert np.array(rows).tobytes() == result.trace.rows.tobytes()
    if ties:
        # rounds with mu == 0 below capacity: a tie's product is -0.0, the round's 0.0
        n = 7 * len(ties)
        trace = result.trace.rows
        unpriced = (trace[:, 2:n:7] == 0.0) & np.signbit(trace[:, 6:n:7])
        assert unpriced.any()
        assert not np.signbit(trace[unpriced.any(axis=1), -1]).any()


# importer Y that cannot cover demand once its tiny partner is priced out
INFEASIBLE_PAIR = {
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
    "tie_lines": [{"id": "XY", "from_area": "X", "from_bus": "X1", "to_area": "Y",
                   "to_bus": "Y1", "reactance": 0.1, "capacity": 0.0, "t_da": 0.0}],
    "demand": {"buses": {"X1": {"mean": 0.0}, "Y1": {"mean": 10.0}}},
    "confidence": {"X": 0.5, "Y": 0.5},
}


def test_mechanism_reports_infeasible_round(toy2):
    net = load_case(INFEASIBLE_PAIR)
    assert autarky_infeasibility(net, "Y") is not None
    from flexmarket.coupling import MechanismError
    with pytest.raises(MechanismError) as err:
        run(net, MechanismConfig(max_rounds=5))
    assert err.value.round_k == 1
    assert "area[Y]" in str(err.value)

    # an engine that quotes NaN for area B must stop the run in that round,
    # naming the area, instead of blending NaN into the state
    from flexmarket import ChanceConstrainedClearing

    class NanEngine:
        def __init__(self, net):
            self.inner = ChanceConstrainedClearing(net)

        def clear_area(self, area_id, terms):
            out = self.inner.clear_area(area_id, terms)
            if area_id == "B":
                out = replace(out, willingness_to_pay={t: float("nan")
                                                       for t in out.willingness_to_pay})
            return out

    with pytest.raises(MechanismError) as err:
        run(toy2, MechanismConfig(max_rounds=5), engine=NanEngine(toy2))
    assert err.value.round_k == 1
    assert "area[B]" in str(err.value)


@pytest.mark.parametrize("field, key", [("theta", "B1"), ("price", "AB"), ("delta_t", "AB")])
def test_a_missing_broadcast_entry_names_the_round_and_area(toy2, field, key):
    # a plugged-in engine whose second clear of area B lacks one broadcast entry
    from flexmarket import ChanceConstrainedClearing

    class DroppingEngine:
        def __init__(self, net):
            self.inner = ChanceConstrainedClearing(net)
            self.clears_of_b = 0

        def clear_area(self, area_id, terms):
            out = self.inner.clear_area(area_id, terms)
            if area_id == "B":
                self.clears_of_b += 1
                if self.clears_of_b == 2:
                    theta, delta_t = dict(out.decision.theta), dict(out.decision.delta_t)
                    price = dict(out.willingness_to_pay)
                    {"theta": theta, "delta_t": delta_t, "price": price}[field].pop(key)
                    out = replace(out, decision=replace(out.decision, theta=theta,
                                                        delta_t=delta_t),
                                  willingness_to_pay=price)
            return out

    with pytest.raises(MechanismError) as err:
        run(toy2, MechanismConfig(max_rounds=5), engine=DroppingEngine(toy2))
    assert err.value.round_k == 2
    assert str(err.value) == f"round 2: area[B]: no {field}[{key}] in its clearing result"
