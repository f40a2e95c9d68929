"""Checks of the benchmark's own machinery: the rank-one closed forms agree
with the exact oracles, inputs depend only on the seed, and the tracer
wraps, attributes and restores without changing results."""

import math

import numpy as np
import pytest

import permlog
import permlog.interpolation
import permlog.series
from permlog import ComplexMatrix, ComplexTensor, SymmetricComplexMatrix, RegionKind, RegionSpec, check_region
from refs import answer_ok, log_exact, log_haf_rank_one, log_per_rank_one, log_tensor_rank_one
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, build_ops, instance_json, rank_one_factor


def test_closed_forms_match_oracles():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        u, v = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
        assert log_per_rank_one(u, v) == pytest.approx(log_exact(ComplexMatrix(np.outer(u, v))).real, abs=1e-12)
    for two_n in range(2, 12, 2):
        u = rng.uniform(0.5, 1.5, two_n)
        want = log_exact(SymmetricComplexMatrix(np.outer(u, u))).real
        assert log_haf_rank_one(u) == pytest.approx(want, abs=1e-12)
    for n in range(1, 5):
        us = [rng.uniform(0.5, 1.5, n) for _ in range(3)]
        want = log_exact(ComplexTensor(np.einsum("i,j,k->ijk", *us))).real
        assert log_tensor_rank_one(us) == pytest.approx(want, abs=1e-12)


def test_rank_one_factor_stays_in_disc():
    rng = np.random.default_rng(3)
    for eta in (0.01, 0.05, 0.1, 0.2):
        u, v = rank_one_factor(rng, 50, eta), rank_one_factor(rng, 50, eta)
        spec = RegionSpec(kind=RegionKind.DISC_PER, eta=eta)
        assert check_region(ComplexMatrix(np.outer(u, v)), spec).inside


def test_answer_ok():
    assert answer_ok(1.0 + 0j, 1e-3, 1e-2, 1.0005)
    assert not answer_ok(1.0 + 0j, 1e-3, 1e-2, 1.002)
    assert not answer_ok(1.0 + 0j, 2e-2, 1e-2, 1.0)
    assert not answer_ok(1.0 + 0j, None, 1e-2, 1.0)


def test_inputs_follow_the_seed(tmp_path):
    for workload in WORKLOADS:
        a = build_ops(workload, 5, str(tmp_path))
        b = build_ops(workload, 5, str(tmp_path))
        c = build_ops(workload, 6, str(tmp_path))
        assert [op.name for op in a] == [op.name for op in c]
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x.value.array, y.value.array)
            if x.expect is None:
                assert not np.array_equal(x.value.array, z.value.array)
            else:
                assert np.array_equal(x.value.array, z.value.array)


def test_instance_json_round_trips(tmp_path):
    from permlog.cli import load_instance

    for op in build_ops("disc-truncated", 1, str(tmp_path)):
        path = tmp_path / "x.json"
        path.write_text(instance_json(op.value))
        assert np.array_equal(load_instance(str(path)).array, op.value.array)


def test_tracer_wraps_rebinds_and_restores():
    original = permlog.series.series_mul
    mat = ComplexMatrix(np.full((3, 3), 0.8))
    plain = permlog.approx_log_strip(mat, 0.55, 0.1)
    tracer = Tracer()
    tracer.install()
    try:
        assert permlog.interpolation.series_mul is permlog.series.series_mul
        assert permlog.series.series_mul is not original
        tracer.op = "a"
        traced = permlog.approx_log_strip(mat, 0.55, 0.1)
    finally:
        tracer.restore()
    assert permlog.series.series_mul is original
    assert permlog.interpolation.series_mul is original
    assert traced.log_value == plain.log_value

    by_id = {s["id"]: s for s in tracer.spans}
    top = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in top] == ["approx_log_strip"]
    muls = [s for s in tracer.spans if s["name"] == "series_mul"]
    assert muls and all(by_id[s["parent"]]["layer"] in ("interpolation", "series") for s in muls)
    for s in tracer.spans:
        children = [c for c in tracer.spans if c["parent"] == s["id"]]
        assert s["self"] == pytest.approx(s["end"] - s["start"] - sum(c["end"] - c["start"] for c in children))
        assert s["self"] >= 0.0
    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["series.series_mul_calls"] == len(muls)
    assert metrics["interpolation.coeff_calls"] == 1
    assert metrics["series.peak_alloc_mb"] > 0.0
    total_self = sum(s["self"] for s in tracer.spans)
    assert total_self == pytest.approx(top[0]["end"] - top[0]["start"])


def test_fallback_counted_once_per_op():
    mat = ComplexMatrix(np.full((8, 8), 0.9))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "a"
        permlog.approx_log_disc(mat, 0.4, 1e-3)
    finally:
        tracer.restore()
    names = [s["name"] for s in sorted(tracer.spans, key=lambda s: s["start"]) if s["name"].startswith("g_")]
    assert names == ["g_derivatives_permanent", "g_full_expansion_permanent"]
    assert layer_metrics(tracer.spans, 1)["interpolation.coeff_fallbacks"] == 1
    assert math.isfinite(layer_metrics(tracer.spans, 1)["interpolation.coeff_s"])
