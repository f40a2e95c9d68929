"""Command-line interface: instance files, subcommands, exit codes."""

import json
import math

import numpy as np
import pytest

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

    def test_budget_exit_code(self, tmp_path):
        # n = 12 is beyond the full-expansion fallback, and the tuple route
        # needs more than the default budget at this epsilon
        rng = np.random.default_rng(62)
        p = tmp_path / "big.json"
        save_instance(ComplexMatrix(rng.uniform(0.7, 1.0, (12, 12))), p)
        assert main(["approx", str(p), "--method", "disc", "--eta", "0.35",
                     "--epsilon", "1e-3"]) == EXIT_BUDGET

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
