"""Tests of the benchmark itself: every check refuses a wrong result.

Run with ``python3 -m pytest bench`` from the root of the checkout.
"""

import math
import os
import random
import sys
from itertools import product
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed  # noqa: E402


def test_closure_agreement():
    closure = [10, 20, 30]
    checks.check_closure_agrees([30, 10, 20], closure)
    with pytest.raises(CheckFailed):
        checks.check_closure_agrees([10, 20], closure)  # a closure word decided nontrivial
    with pytest.raises(CheckFailed):
        checks.check_closure_agrees([10, 20, 30, 40], closure)  # decided trivial outside
    with pytest.raises(CheckFailed):
        checks.check_closure_agrees([10, 20, 30], closure + [10])


def test_identity_permutations():
    checks.check_identity_permutations([(), (1, -1), (2, 1, -1, -2)], 3)
    with pytest.raises(CheckFailed):
        checks.check_identity_permutations([(1, -1), (1, 2, -1)], 3)


def _degree2_trivial(max_len):
    return [w for n in range(max_len + 1) for w in product((1, -1), repeat=n) if sum(w) == 0]


def test_degree2_counts():
    words = _degree2_trivial(8)
    assert len(words) == sum(math.comb(2 * k, k) for k in range(5))
    checks.check_degree2(words, 8)
    with pytest.raises(CheckFailed):
        checks.check_degree2(words[:-1], 8)
    with pytest.raises(CheckFailed):
        checks.check_degree2(words + [(1, 1)], 8)


def test_searches():
    checks.check_searches([((1, -1), True, True), ((1, 2, -1, -2), False, True)])
    with pytest.raises(CheckFailed):
        checks.check_searches([((1, 2), True, False)])
    with pytest.raises(CheckFailed):
        checks.check_searches([((1, 2), False, False)])  # built trivial, decided nontrivial


def _chart(kinds, degree=4, edges=(), loops=()):
    vertices = tuple(SimpleNamespace(kind=k, cycle=c) for k, c in kinds)
    return SimpleNamespace(degree=degree, vertices=vertices, edges=tuple(edges),
                           loops=tuple(loops), pattern_loops=())


def test_handle_count():
    chart = _chart([("white", (1,)), ("crossing", (2,)), ("crossing", (3,))])
    upper = 1 + 2 * 2 + 3
    checks.check_handle_count(upper, upper, 0, chart)
    checks.check_handle_count(2, 2, 2, chart)
    with pytest.raises(CheckFailed):
        checks.check_handle_count(3, 2, 0, chart)  # attach steps differ from the count
    with pytest.raises(CheckFailed):
        checks.check_handle_count(upper + 1, upper + 1, 0, chart)
    with pytest.raises(CheckFailed):
        checks.check_handle_count(1, 1, 2, chart)  # below c_alg_total


def test_final_chart():
    edge = SimpleNamespace(darts=(1, 7))
    chart = _chart([("white", (1, 2, 3, 4, 5, 6)), ("free_end", (7,))], edges=[edge])
    on_handle = SimpleNamespace(chart=chart, handles=(SimpleNamespace(feet=(7,)),))
    checks.check_final_chart(on_handle)
    with pytest.raises(CheckFailed):
        checks.check_final_chart(SimpleNamespace(chart=chart, handles=()))
    looped = _chart([], loops=[object()])
    with pytest.raises(CheckFailed):
        checks.check_final_chart(SimpleNamespace(chart=looped, handles=()))


def test_round_trip_and_tightened_claims():
    checks.check_round_trip(("a", "b"), ("empty",), ("a", "b"), ("empty",))
    with pytest.raises(CheckFailed):
        checks.check_round_trip(("a", "b"), ("empty",), ("a",), ("empty",))
    with pytest.raises(CheckFailed):
        checks.check_round_trip(("a",), ("empty",), ("a",), ())
    tight = checks.tightened_claims(("empty", "weak-forms", "handle-count<=9"), 4)
    assert tight == ("empty", "weak-forms", "handle-count<=3")


def test_handle_normal_forms():
    rows = [("1", 4, 3), ("1", -6, 5)]
    checks.check_thm2(rows, [("1", 2, 7), ("1", 0, 1)])
    with pytest.raises(CheckFailed):
        checks.check_thm2(rows, [("1", 4, 7), ("1", 0, 1)])
    pairing = 4 * 3 - 6 * 5
    checks.check_thm3(rows, [("1", 0, 1), ("1", 0, 0), ("1", 2, pairing // 2)])
    with pytest.raises(CheckFailed):
        checks.check_thm3(rows, [("1", 0, 1), ("1", 0, 0), ("1", 2, pairing // 2 + 1)])
    # gcd of every entry is 1, pairing -18 is even: off type, k = 1
    assert checks.standard_type(rows) == ("off", 1)
    checks.check_thm1_thm4(rows, ("off", 1), ("off", 1))
    with pytest.raises(CheckFailed):
        checks.check_thm1_thm4(rows, ("off", 1), ("diagonal", 1))
    with pytest.raises(CheckFailed):
        checks.check_thm1_thm4(rows, ("diagonal", 1), ("diagonal", 1))
    checks.check_standard_form("off", 1, [("1", 1, 0), ("1", 0, 0)])
    with pytest.raises(CheckFailed):
        checks.check_standard_form("off", 1, [("1", 1, 1), ("1", 0, 0)])
    checks.check_replay_system([("1", 1, 0)], [("1", 1, 0)])
    with pytest.raises(CheckFailed):
        checks.check_replay_system([("1", 1, 0)], [("1", 0, 1)])


def test_inputs_repeat_and_drift_is_refused():
    assert inputs.search_words(5) == inputs.search_words(5)
    assert inputs.trivial_systems(5) == inputs.trivial_systems(5)
    assert inputs.trivial_systems(5) != inputs.trivial_systems(6)
    digests = inputs.load_digests()
    assert len(digests) == len(inputs.UNBRAID_CHARTS) + len(inputs.cli_chart_keys())
    degree, steps, j = inputs.cli_chart_keys()[-1]
    key = f"cli-{degree}-{steps}-{j}"
    from handleforge.engine import generate_blackless_chart

    chart = generate_blackless_chart(degree, steps, random.Random(inputs.generator_seed(degree, steps, j)))
    assert inputs._checked(chart, key, digests) is chart
    with pytest.raises(inputs.InputDrift):
        inputs._checked(chart, key, {**digests, key: "0" * 20})


def test_tracer_wraps_every_binding_and_restores_them():
    from handleforge import chart, cli, engine, handles
    from tracer import Tracer

    original = chart.validate_chart
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.validate_chart is chart.validate_chart is cli.validate_chart
        assert chart.validate_chart is not original
        assert cli._NORMALIZERS["thm2"] is handles.normalize_general
        with open(os.path.join(inputs.DATA_DIR, "unbraid_v106.chart"), encoding="utf-8") as fh:
            parsed = chart.parse_chart(fh.read())
        chart.chart_stats(parsed)
    finally:
        tracer.uninstall()
    assert engine.validate_chart is chart.validate_chart is original
    assert cli._NORMALIZERS["thm2"] is handles.normalize_general
    totals = tracer.totals()
    assert totals["chart.chart_stats"]["calls"] == 1
    assert totals["chart.validate_chart"]["calls"] == 1  # inside chart_stats
    stats = totals["chart.chart_stats"]
    assert 0 < stats["self_s"] < stats["s"]


def test_meter_sets_each_call_against_the_loops_next_to_it(monkeypatch):
    import meter

    loops = iter([0.004, 0.002, 0.006])  # before the first call, after it, after the second
    monkeypatch.setattr(meter, "calibrate", lambda: next(loops))
    m = meter.Meter()
    result, took, ref = m.time(lambda x: x + 1, 1)
    assert result == 2
    assert ref == pytest.approx(took * (meter.CALIBRATION_REF_S / 0.003) ** meter.CALIBRATION_EXPONENT)
    _, took, ref = m.time(lambda: None)  # the loop after the first call is reused
    assert ref == pytest.approx(took * (meter.CALIBRATION_REF_S / 0.004) ** meter.CALIBRATION_EXPONENT)
