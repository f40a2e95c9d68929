"""Command-line interface: instance files, subcommands, exit codes."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import permlog.interpolation
from permlog import ComplexMatrix, ComplexTensor, SymmetricComplexMatrix, permanent_exact
from permlog import cli
from permlog.cli import (
    EXIT_BUDGET,
    EXIT_CERTIFICATE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REGION,
    instance_digest,
    load_instance,
    main,
    save_instance,
)


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(60)
    value = ComplexMatrix(rng.uniform(0.7, 1.0, (4, 4)))
    path = tmp_path / "mat.json"
    save_instance(value, path)
    return path, value


class TestInstanceFiles:
    def test_round_trip_matrix(self, tmp_path, matrix_file):
        path, value = matrix_file
        loaded = load_instance(path)
        assert isinstance(loaded, ComplexMatrix)
        assert np.array_equal(loaded.array, value.array)
        assert instance_digest(loaded) == instance_digest(value)

    def test_round_trip_symmetric(self, tmp_path):
        raw = np.array([
            [0.0, 2.0, 3.0, 1.0],
            [2.0, 0.0, 5.0, 4.0],
            [3.0, 5.0, 0.0, 6.0],
            [1.0, 4.0, 6.0, 0.0],
        ])
        value = SymmetricComplexMatrix(raw)
        p = tmp_path / "sym.json"
        save_instance(value, p)
        loaded = load_instance(p)
        assert isinstance(loaded, SymmetricComplexMatrix)
        assert np.array_equal(loaded.array, value.array)

    def test_round_trip_tensor(self, tmp_path):
        rng = np.random.default_rng(61)
        value = ComplexTensor(rng.uniform(0.8, 1.0, (2, 2, 2)) + 0.01j)
        p = tmp_path / "ten.json"
        save_instance(value, p)
        loaded = load_instance(p)
        assert isinstance(loaded, ComplexTensor)
        assert np.allclose(loaded.array, value.array)
        assert instance_digest(loaded) == instance_digest(value)

    def test_digest_is_stable_hex(self, matrix_file):
        _, value = matrix_file
        d = instance_digest(value)
        assert isinstance(d, str) and len(d) == 64
        assert d == instance_digest(value)

    def test_digest_distinguishes_values(self, matrix_file):
        _, value = matrix_file
        other = ComplexMatrix(value.array + 1e-9)
        assert instance_digest(other) != instance_digest(value)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["exact", str(p)]) == EXIT_INPUT

    def test_shape_cross_check(self, tmp_path):
        p = tmp_path / "bad_n.json"
        p.write_text(json.dumps({"kind": "matrix", "n": 3, "entries": [[1, 2], [3, 4]]}))
        assert main(["exact", str(p)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"kind": "matrix"}, "needs 'kind' and 'entries'"),
            ({"entries": [[1.0]]}, "needs 'kind' and 'entries'"),
            ({"kind": "graph", "entries": [[1.0]]}, "unknown kind 'graph'"),
            ({"kind": "symmetric", "two_n": 4, "entries": [[0, 1], [1, 0]]}, "two_n=4"),
            ({"kind": "tensor", "entries": [[1.0, 0.5], [0.5, 1.0]]}, "integer 'd' >= 2"),
            ({"kind": "tensor", "d": 1, "entries": [1.0]}, "integer 'd' >= 2"),
            ({"kind": "tensor", "d": 2.0, "entries": [[1.0, 0.5], [0.5, 1.0]]}, "integer 'd' >= 2"),
            ({"kind": "tensor", "d": 2, "n": 3, "entries": [[1.0, 0.5], [0.5, 1.0]]}, "n=3"),
        ],
    )
    def test_refusals_exit_with_one_error_line(self, capsys, tmp_path, data, message):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(data))
        assert main(["exact", str(p)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err


class TestInstanceEntries:
    def write(self, tmp_path, data):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(data))
        return p

    def test_uniform_numbers_and_pairs(self, tmp_path):
        numbers = [[0.9, 1], [0.8, 1.1]]
        loaded = load_instance(self.write(tmp_path, {"kind": "matrix", "entries": numbers}))
        assert loaded.array.dtype == np.complex128
        assert np.array_equal(loaded.array, np.array([[0.9, 1.0], [0.8, 1.1]], dtype=complex))
        pairs = [[[0.9, 0.1], [1, 0]], [[0.8, -0.2], [1.1, 0.0]]]
        loaded = load_instance(self.write(tmp_path, {"kind": "matrix", "entries": pairs}))
        assert np.array_equal(loaded.array, np.array([[0.9 + 0.1j, 1.0], [0.8 - 0.2j, 1.1]]))
        cube = np.arange(8.0).reshape(2, 2, 2) / 8.0 + 0.5
        data = {"kind": "tensor", "d": 3, "entries": np.stack((cube, -cube), axis=-1).tolist()}
        loaded = load_instance(self.write(tmp_path, data))
        assert isinstance(loaded, ComplexTensor)
        assert np.array_equal(loaded.array, cube - 1j * cube)

    def test_mixed_numbers_and_pairs(self, tmp_path):
        data = {"kind": "matrix", "n": 2, "entries": [[1.0, [0.9, 0.1]], [0.8, 1.1]]}
        loaded = load_instance(self.write(tmp_path, data))
        assert np.array_equal(loaded.array, np.array([[1.0, 0.9 + 0.1j], [0.8, 1.1]]))

    @pytest.mark.parametrize(
        "kind, entries",
        [
            ("matrix", [["a", "b"], ["c", "d"]]),
            ("matrix", [["1.0", "0.5"], ["0.5", "1.0"]]),
            ("matrix", [[1.0, "b"], [0.5, 1.0]]),
            ("matrix", [[None, 1.0], [0.5, 1.0]]),
            ("matrix", [[1.0, 0.5], [0.5]]),
            ("matrix", [[[1.0, 0.0], [1.0]], [[1.0, 0.0], [1.0, 0.0]]]),
            ("matrix", [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]),
            ("matrix", [1.0, 0.5, 0.5, 1.0]),
            ("matrix", [[[[1.0, 0.0]]]]),
            ("tensor", [[1.0, 0.5], [0.5, 1.0]]),
        ],
    )
    def test_malformed_entries_rejected(self, tmp_path, kind, entries):
        p = self.write(tmp_path, {"kind": kind, "d": 3, "entries": entries})
        with pytest.raises(ValueError):
            load_instance(p)
        assert main(["exact", str(p)]) == EXIT_INPUT


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_successive_calls_parse_independently(self, capsys, matrix_file):
        def rhos(argv):
            assert main(argv) == EXIT_OK
            return [row["rho"] for row in json.loads(capsys.readouterr().out)["results"]]

        assert rhos(["phi-table", "--rho", "0.5", "--rho", "0.25"]) == [0.5, 0.25]
        assert rhos(["phi-table"]) == [0.1, 0.25, 0.5, 1.0]
        assert rhos(["phi-table", "--rho", "1.0"]) == [1.0]
        assert rhos(["phi-table"]) == [0.1, 0.25, 0.5, 1.0]
        path, _ = matrix_file
        assert main(["exact", str(path), "--format", "text"]) == EXIT_OK
        assert "command: exact" in capsys.readouterr().out
        assert main(["exact", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["command"] == "exact"
        assert main(["approx", str(path), "--eta", "0.3", "--force"]) == EXIT_OK
        assert "force" in capsys.readouterr().err
        assert main(["approx", str(path), "--eta", "0.3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["results"]["approx"]["error_bound"] is not None

    @pytest.mark.parametrize(
        "args",
        [["--eta", "abc"], ["--bogus"], ["--budget", "10"], None],
        ids=["bad-value", "unknown-flag", "removed-budget", "missing-instance"],
    )
    def test_usage_errors_exit_as_bad_input(self, capsys, matrix_file, args):
        # argparse's own code 2 would read as a region violation
        path, _ = matrix_file
        argv = ["approx"] if args is None else ["approx", str(path), *args]
        assert main(argv) == EXIT_INPUT
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["approx", "--help"]) == EXIT_OK
        assert "--epsilon" in capsys.readouterr().out


class TestExactCommand:
    def test_json_output(self, capsys, matrix_file):
        path, value = matrix_file
        assert main(["exact", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["command"] == "exact"
        res = out["results"]
        logv = complex(*res["log_value"])
        raw = complex(*res["value"])
        assert abs(np.exp(logv) - raw) < 1e-9 * abs(raw)
        assert raw == pytest.approx(permanent_exact(value))

    def test_zero_value_notes_undefined_log(self, capsys, tmp_path):
        # rank-1 with a zero row gives permanent exactly 0
        a = np.outer([1.0, 0.0], [1.0, 1.0])
        p = tmp_path / "zero.json"
        save_instance(ComplexMatrix(a), p)
        assert main(["exact", str(p)]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["log_value"] is None
        assert "zero" in res["note"]

    def test_text_format(self, capsys, matrix_file):
        path, _ = matrix_file
        assert main(["exact", str(path), "--format", "text"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "command: exact" in text
        assert "{" not in text


class TestApproxCommand:
    def test_disc_json(self, capsys, matrix_file):
        path, value = matrix_file
        code = main(["approx", str(path), "--method", "disc", "--eta", "0.3",
                     "--epsilon", "1e-3"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        approx = out["results"]["approx"]
        assert approx["pipeline"] == "disc"
        assert approx["error_bound"] <= 1e-3
        exact = math.log(abs(permanent_exact(value)))
        assert abs(approx["log_value"][0] - exact) <= approx["error_bound"]

    def test_strip_needs_delta(self, capsys, matrix_file):
        path, _ = matrix_file
        assert main(["approx", str(path), "--method", "strip"]) == EXIT_INPUT
        assert main(["approx", str(path), "--method", "strip", "--delta", "0.7",
                     "--epsilon", "0.1"]) == EXIT_OK

    def test_disc_needs_eta(self, matrix_file):
        path, _ = matrix_file
        assert main(["approx", str(path), "--method", "disc"]) == EXIT_INPUT

    @pytest.mark.parametrize("method", ["disc", "l1"])
    def test_zero_eta_exit_code(self, capsys, tmp_path, method):
        # all ones is inside the region at eta = 0, where beta is undefined
        p = tmp_path / "ones.json"
        save_instance(ComplexMatrix(np.ones((3, 3))), p)
        assert main(["approx", str(p), "--method", method, "--eta", "0"]) == EXIT_INPUT
        assert "eta > 0" in capsys.readouterr().err

    def test_region_exit_code(self, tmp_path):
        a = np.ones((3, 3))
        a[0, 0] = 1.9
        p = tmp_path / "out.json"
        save_instance(ComplexMatrix(a), p)
        assert main(["approx", str(p), "--method", "disc", "--eta", "0.3"]) == EXIT_REGION

    def test_force_warns_and_succeeds(self, capsys, tmp_path):
        a = np.ones((3, 3))
        a[0, 0] = 1.9
        p = tmp_path / "out.json"
        save_instance(ComplexMatrix(a), p)
        code = main(["approx", str(p), "--method", "disc", "--eta", "0.3", "--force"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        approx = json.loads(captured.out)["results"]["approx"]
        assert approx["error_bound"] is None
        assert "force" in captured.err.lower()

    def test_non_finite_sum_exit_code(self, capsys, tmp_path):
        # far outside its region a forced degree overflows the log series
        p = tmp_path / "far.json"
        save_instance(ComplexMatrix(np.array([[5.0, -3.0], [-3.0, 5.0]])), p)
        argv = ["approx", str(p), "--method", "disc", "--eta=0.3", "--epsilon=0.1", "--degree=1000", "--force"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert errors == ["error: approx_log_disc: the log sum at degree 1000 is not finite"]
        assert caught == []

    def test_budget_exit_code(self, tmp_path):
        # n = 12 is beyond the full-expansion fallback, and the tuple route
        # needs more than the default budget at this epsilon
        rng = np.random.default_rng(62)
        p = tmp_path / "big.json"
        save_instance(ComplexMatrix(rng.uniform(0.7, 1.0, (12, 12))), p)
        assert main(["approx", str(p), "--method", "disc", "--eta", "0.35",
                     "--epsilon", "1e-3"]) == EXIT_BUDGET

    def test_degree_cap_exit_code(self, capsys, matrix_file):
        path, _ = matrix_file
        code = main(["approx", str(path), "--method", "disc", "--eta", "0.3",
                     "--degree", "10000000000"])
        err = capsys.readouterr().err
        assert code == EXIT_BUDGET
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ["0.28", "0.2"])
    def test_strip_delta_below_double_range_exit_code(self, capsys, tmp_path, delta):
        # rho < 1/36 here: phi's beta rounds to 1, which no degree certifies
        p = tmp_path / "flat.json"
        save_instance(ComplexMatrix(np.full((3, 3), 0.3)), p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["approx", str(p), "--method", "strip", "--delta", delta])
        err = capsys.readouterr().err
        assert code == EXIT_BUDGET
        assert err.startswith("error: ") and err.count("\n") == 1
        assert caught == []

    @pytest.mark.parametrize(
        "work, args",
        [
            ("series_log_coeffs_direct", ["--method", "disc", "--eta", "0.3"]),
            # m <= N: the roots route runs in place of the series work
            ("series_log_prefix_sum", ["--method", "strip", "--delta", "0.7", "--epsilon", "0.1"]),
            # epsilon 0.01 puts the degree past N, on the FFT series route
            ("series_log_prefix_sum", ["--method", "strip", "--delta", "0.7", "--epsilon", "0.01"]),
        ],
    )
    def test_out_of_memory_exit_code(self, capsys, monkeypatch, matrix_file, work, args):
        def exhausted(*a):
            raise MemoryError

        monkeypatch.setattr(permlog.interpolation, work, exhausted)
        monkeypatch.setattr(permlog.interpolation, "_strip_roots_sum", exhausted)
        path, _ = matrix_file
        code = main(["approx", str(path), *args])
        err = capsys.readouterr().err
        assert code == EXIT_BUDGET
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_hafnian_degree_zero(self, capsys, tmp_path):
        p = tmp_path / "haf.json"
        save_instance(SymmetricComplexMatrix(np.full((4, 4), 1.00001)), p)
        assert main(["approx", str(p), "--method", "disc", "--eta", "1e-4",
                     "--epsilon", "0.5"]) == EXIT_OK
        approx = json.loads(capsys.readouterr().out)["results"]["approx"]
        assert approx["degree_used"] == 0

    def test_verify_pass(self, capsys, matrix_file):
        path, _ = matrix_file
        code = main(["approx", str(path), "--method", "disc", "--eta", "0.3",
                     "--epsilon", "1e-3", "--verify"])
        assert code == EXIT_OK
        verify = json.loads(capsys.readouterr().out)["results"]["verify"]
        assert verify["certified"] is True
        assert verify["realized_error"] <= 1e-3

    def test_verify_fails_outside_the_bound(self, capsys, monkeypatch, matrix_file):
        real = cli.approx_log_disc

        def off_by_one(*a, **kw):
            rep = real(*a, **kw)
            return dataclasses.replace(rep, log_value=rep.log_value + 1.0)

        monkeypatch.setattr(cli, "approx_log_disc", off_by_one)
        path, _ = matrix_file
        code = main(["approx", str(path), "--method", "disc", "--eta", "0.3", "--verify"])
        captured = capsys.readouterr()
        assert code == EXIT_CERTIFICATE
        verify = json.loads(captured.out)["results"]["verify"]
        assert verify["certified"] is False
        assert verify["realized_error"] == pytest.approx(1.0)
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_verify_skipped_when_exact_value_is_zero(self, capsys, tmp_path):
        # per [[1, 1], [1, -1]] = 0; --force, since g has a zero at z = 1
        p = tmp_path / "zero.json"
        save_instance(ComplexMatrix(np.array([[1.0, 1.0], [1.0, -1.0]])), p)
        code = main(["approx", str(p), "--method", "disc", "--eta", "0.3", "--force", "--verify"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        verify = json.loads(captured.out)["results"]["verify"]
        assert verify == {"skipped": True, "reason": "exact value is zero"}
        assert "error:" not in captured.err

    def test_verify_skipped_when_oracle_cannot_run(self, capsys, tmp_path):
        # n = 15 is approximable at this m but beyond the exact oracle
        rng = np.random.default_rng(63)
        p = tmp_path / "big15.json"
        save_instance(ComplexMatrix(1.0 + 0.08 * rng.uniform(-1, 1, (15, 15))), p)
        code = main(["approx", str(p), "--method", "disc", "--eta", "0.1",
                     "--epsilon", "1e-2", "--verify"])
        assert code == EXIT_OK
        verify = json.loads(capsys.readouterr().out)["results"]["verify"]
        assert verify["skipped"] is True
        assert verify["reason"]


def _param(low, high):
    """Mostly a valid value in [low, high]; else absent, zero, negative, NaN
    or anything in [-0.5, 1.5]."""
    valid = st.floats(low, high)
    invalid = st.one_of(st.sampled_from([None, 0.0, -0.3, math.nan]), st.floats(-0.5, 1.5))
    return st.one_of(valid, valid, valid, valid, invalid)


@st.composite
def _small_instances(draw):
    """A matrix, symmetric matrix or 3-tensor of side at most 4, with real
    or complex entries, mostly near the all-ones instance."""
    kind = draw(st.sampled_from(["matrix", "symmetric", "tensor"]))
    n = draw(st.sampled_from([2, 4]) if kind == "symmetric" else st.integers(1, 4))
    shape = (n,) * (3 if kind == "tensor" else 2)
    size = math.prod(shape)
    spread = draw(st.sampled_from([0.05, 0.3, 2.0]))
    entries = st.lists(st.floats(-spread, spread), min_size=size, max_size=size)
    arr = 1.0 - np.abs(draw(entries)) + 0j
    if draw(st.booleans()):
        arr += 1j * np.array(draw(entries))
    arr = arr.reshape(shape)
    if kind == "symmetric":
        return SymmetricComplexMatrix((arr + arr.T) / 2)
    return ComplexTensor(arr) if kind == "tensor" else ComplexMatrix(arr)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    value=_small_instances(),
    method=st.sampled_from(["disc", "l1", "strip"]),
    eta=_param(0.01, 0.3),
    delta=_param(0.5, 1.0),
    epsilon=_param(1e-4, 0.5),
    degree=st.integers(-2, 1000),
    flags=st.lists(st.sampled_from(["--force", "--verify"]), unique=True),
)
def test_approx_always_exits_with_a_code(tmp_path, value, method, eta, delta, epsilon, degree, flags):
    # every input the constructors accept gives a result or a typed error,
    # never a traceback
    path = tmp_path / "instance.json"
    save_instance(value, path)
    argv = ["approx", str(path), "--method", method, f"--degree={degree}", *flags]
    for name, param in (("eta", eta), ("delta", delta), ("epsilon", epsilon)):
        if param is not None:
            argv.append(f"--{name}={param}")
    assert isinstance(main(argv), int)


class TestCheckRegionCommand:
    def test_inside(self, capsys, matrix_file):
        path, _ = matrix_file
        assert main(["check-region", str(path), "--region", "disc-per",
                     "--eta", "0.31"]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["inside"] is True
        assert res["margin"] >= 0

    def test_outside(self, capsys, tmp_path):
        a = np.ones((3, 3))
        a[1, 1] = 1.5
        p = tmp_path / "o.json"
        save_instance(ComplexMatrix(a), p)
        assert main(["check-region", str(p), "--region", "disc-per",
                     "--eta", "0.3"]) == EXIT_REGION
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["inside"] is False
        assert res["worst_index"] == [2, 2]

    def test_zero_tau_is_the_real_segment(self, capsys, tmp_path):
        p = tmp_path / "s.json"
        save_instance(ComplexMatrix(np.array([[0.75, 1.25], [1.0, 0.9]])), p)
        argv = ["check-region", str(p), "--region", "strip-per", "--tau", "0"]
        assert main([*argv, "--eta", "0.25"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["tau"] == 0.0
        assert main([*argv, "--eta", "0.2"]) == EXIT_REGION


class TestBenchmarkCommand:
    def test_small_suite_deterministic(self, capsys):
        assert main(["benchmark", "--suite", "small"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["benchmark", "--suite", "small"]) == EXIT_OK
        second = capsys.readouterr().out

        def strip_times(s):
            report = json.loads(s)
            report.pop("elapsed_s")
            for r in report["results"]:
                r.pop("elapsed_s")
            return report

        assert strip_times(first) == strip_times(second)

    def test_rows_are_certified(self, capsys):
        assert main(["benchmark", "--suite", "small"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["results"]
        assert len(rows) >= 10
        for r in rows:
            assert r["certified"] is True
            assert r["realized_error"] <= r["error_bound"]

    def test_exits_4_when_a_row_is_outside_its_bound(self, capsys, monkeypatch):
        real = cli.approx_log_strip

        def off_by_one(*a, **kw):
            rep = real(*a, **kw)
            return dataclasses.replace(rep, log_value=rep.log_value + 1.0)

        monkeypatch.setattr(cli, "approx_log_strip", off_by_one)
        assert main(["benchmark", "--suite", "small"]) == EXIT_CERTIFICATE
        captured = capsys.readouterr()
        rows = json.loads(captured.out)["results"]
        assert [r["case"] for r in rows if not r["certified"]] == ["strip-per-n4"]
        assert captured.err == "error: realized error above the bound in strip-per-n4\n"

    def test_epsilon_ladder_monotone(self, capsys):
        assert main(["benchmark", "--suite", "small"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["results"]
        ladder = [r["degree"] for r in rows if r["case"].startswith("eps-per-n5")]
        assert len(ladder) == 3
        assert ladder == sorted(ladder)
        assert len(set(ladder)) == len(ladder)


class TestPhiTableCommand:
    def test_default_rows(self, capsys):
        assert main(["phi-table"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["results"]
        assert [row["rho"] for row in rows] == [0.1, 0.25, 0.5, 1.0]
        for row in rows:
            assert row["N"] >= 14
            assert row["one_minus_phi_at_1"] < 1e-12

    def test_explicit_rho(self, capsys):
        assert main(["phi-table", "--rho", "0.5"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["results"]
        assert len(rows) == 1
        assert rows[0]["N"] == 60
