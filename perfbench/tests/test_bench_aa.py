import json
import os

from perfbench import aa

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BOUNDS = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def test_steady_sets_pass():
    first = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    second = [v * 1.01 for v in first]
    assert aa.judge("op_ms", first, second, 0.2, "lower")["verdict"] == "ok"


def test_setup_s_has_the_largest_bound():
    assert BOUNDS["setup_s"] == max(BOUNDS.values())


def test_setup_shift_of_sixteen_percent_is_caught():
    # an earlier A/A pair of the same code: setup_s 0.450 s -> 0.525 s
    first = [0.45, 0.44, 0.46, 0.45, 0.45, 0.44, 0.46, 0.45, 0.45, 0.45]
    second = [v * 0.525 / 0.45 for v in first]
    row = aa.judge("setup_s", first, second, BOUNDS["setup_s"], "lower")
    assert row["shift"] > 0.16
    assert row["verdict"] == "NOISY"


def test_op_ms_shift_of_nine_percent_is_caught():
    # an earlier A/A pair of the same code: op_ms 355 ms -> 387 ms
    first = [355.0, 352.0, 357.0, 355.0, 354.0, 356.0, 355.0, 353.0,
             357.0, 355.0]
    second = [v * 387.0 / 355.0 for v in first]
    row = aa.judge("op_ms", first, second, BOUNDS["op_ms"], "lower")
    assert 0.08 < row["shift"] < 0.1
    assert row["verdict"] == "NOISY"


def test_worse_than_the_bound_fails():
    first = [1.0] * 10
    second = [1.3] * 10
    assert aa.judge("op_ms", first, second, 0.2, "lower")["verdict"] == \
        "FAIL"
    # higher-is-better metrics worsen when they fall
    assert aa.judge("ops_per_s", second, first, 0.2, "higher")["verdict"] \
        == "FAIL"


def test_setup_spread_is_exempt_but_its_shift_is_not():
    wide = [0.3, 0.4, 0.3, 0.4, 0.3, 0.4, 0.3, 0.4, 0.3, 0.4]
    assert aa.judge("setup_s", wide, list(wide), 0.25, "lower")["verdict"] \
        == "ok"
    assert aa.judge("op_ms", wide, list(wide), 0.25, "lower")["verdict"] \
        == "FAIL"


def test_sets_are_interleaved_with_alternating_order():
    order = aa.schedule(4)
    assert order == [(1, 0), (1, 1), (2, 1), (2, 0),
                     (3, 0), (3, 1), (4, 1), (4, 0)]
    # a drift that slows every later run costs both sets alike
    for which in (0, 1):
        positions = [i for i, (_, w) in enumerate(order) if w == which]
        assert sum(positions) == sum(range(len(order))) / 2
