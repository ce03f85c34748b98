"""Tests of the benchmark's own arithmetic: python3 -m pytest -q bench"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from tracing import (  # noqa: E402
    END,
    START,
    Tracer,
    layer_metrics,
    mc_read_ratio,
    percentile,
    self_times,
)
from workloads import ref_err  # noqa: E402


def test_self_time_subtracts_child_coverage():
    spans = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, None),
        ("b", 3.0, 6.0, 0, None),  # overlaps a: the union 1..6 counts once
        ("c", 2.0, 3.0, 1, None),  # grandchild: covered by a, not by root
        ("d", 9.0, 12.0, 0, None),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_layer_time_counts_nested_calls_of_one_layer_once():
    spans = [
        ("potential", 0.0, 4.0, -1, None),
        ("potential", 1.0, 2.0, 0, None),
        ("mc", 5.0, 9.0, -1, {"level": 16, "samples": 400}),
        ("potential", 6.0, 8.0, 2, None),
    ]
    m = layer_metrics(spans)
    assert m["measures.potential_s"] == pytest.approx(4.0 + 2.0)
    assert m["measures.potential_calls"] == 3
    assert m["averaging.mc_s"] == pytest.approx(2.0)  # self time
    assert m["averaging.mc_draws"] == 400


def test_ref_err_matches_exact_components():
    assert ref_err([0.3, 0.7], [0.2, 0.8], [0.3, 0.7], [0.2, 0.8]) == 0.0
    # order of the recovered components does not matter
    assert ref_err([0.71, 0.29], [0.79, 0.2], [0.3, 0.7], [0.2, 0.8]) == (
        pytest.approx(0.01)
    )


def test_ref_err_charges_a_spurious_component_as_weight_error():
    # 0.05 of the mass sits in a third cluster between the two true ones
    err = ref_err([0.3, 0.05, 0.65], [0.2, 0.5, 0.8], [0.3, 0.7], [0.2, 0.8])
    assert err == pytest.approx(0.05)
    # a biased center is charged too
    assert ref_err([0.4, 0.6], [0.158, 0.75], [0.4, 0.6], [0.2, 0.75]) == (
        pytest.approx(0.042)
    )


@pytest.mark.parametrize("window, length, ratio", [(4096, 13, 2 / 9), (1024, 11, 2 / 7)])
def test_mc_read_ratio_on_default_schedules(window, length, ratio):
    from ergodec.averaging import EXACT_LEVEL_CAP, default_schedule

    schedule = default_schedule(window)
    assert len(schedule) == length
    mc_levels = [n for n in schedule if n > EXACT_LEVEL_CAP]
    assert mc_read_ratio([(schedule, mc_levels)] * 3) == pytest.approx(ratio)
    assert mc_read_ratio([]) == 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 99) == 0.0


def test_tracer_records_and_restores_bindings():
    import ergodec.decomposition as dec

    original = dec.split_by_gaps
    tracer = Tracer()
    tracer.install([("cluster", "ergodec.decomposition", "split_by_gaps", None)])
    try:
        import numpy as np

        groups = dec.split_by_gaps(np.array([0.1, 0.9]), 0.5)
    finally:
        tracer.uninstall()
    assert dec.split_by_gaps is original
    assert len(groups) == 2
    (span,) = tracer.spans
    assert span[0] == "cluster" and span[END] >= span[START]
