import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jxcircuit
from jxcircuit.circuit import PhaseProgram, apply_fault_plan
from jxcircuit.experiments import ExperimentRecord
from jxcircuit.fileio import (
    RECORD_COLUMNS,
    read_matrix,
    read_metadata,
    read_phases,
    read_records,
    write_matrix,
    write_metadata,
    write_phases,
    write_records,
    write_text,
)
from jxcircuit.config import load_config, parse_config_text
from jxcircuit.numerics import SpdSolver, _blas_threads
from jxcircuit.sampling import haar_unitary


class TestMatrixFiles:
    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "u.json"
        u = haar_unitary(5, 7)
        write_matrix(path, u)
        back = read_matrix(path)
        assert json.loads(path.read_text())["role"] == "unitary"
        assert np.array_equal(back, u)

    def test_awkward_values_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        m = np.array([[1e-308, -0.1], [0.1 + 0.3j, 12345.6789e200]])
        # not unitary, so a file of role "general", which write_matrix never writes
        path.write_text(json.dumps({"schema_version": "1.0", "kind": "matrix",
                                    "role": "general", "n": 2,
                                    "re": m.real.tolist(), "im": m.imag.tolist()}))
        back = read_matrix(path)
        assert np.array_equal(back, m)

    def test_non_square_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match=r"stores square matrices, got \(2, 3\)$"):
            write_matrix(tmp_path / "wide.json", np.ones((2, 3)))
        assert not (tmp_path / "wide.json").exists()

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "bad.json", np.array([[np.inf, 0], [0, 1]]))

    def test_unitary_role_validated_on_load(self, tmp_path):
        path = tmp_path / "claims.json"
        write_matrix(path, np.eye(2))
        doc = json.loads(path.read_text())
        doc["role"] = "unitary"
        doc["re"][0][0] = 2.0  # breaks unitarity
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unitary"):
            read_matrix(path)

    def test_unknown_major_version_rejected(self, tmp_path):
        path = tmp_path / "v2.json"
        write_matrix(path, np.eye(2))
        doc = json.loads(path.read_text())
        doc["schema_version"] = "2.0"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema version"):
            read_matrix(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "kind": "matrix",\n oops\n}')
        with pytest.raises(ValueError, match=r"broken\.json:3"):
            read_matrix(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "shape.json"
        write_matrix(path, np.eye(2))
        doc = json.loads(path.read_text())
        doc["n"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            read_matrix(path)


class TestPhaseFiles:
    def test_round_trip_canonicalizes(self, tmp_path):
        path = tmp_path / "p.json"
        theta = np.array([[7.0, -0.25], [0.5, 1.0]])
        program = apply_fault_plan(PhaseProgram(theta, np.zeros(theta.shape, bool)),
                                   [(1, 1, 9.5)])
        write_phases(path, program)
        back = read_phases(path)
        assert np.all(back.theta >= 0) and np.all(back.theta < 2 * np.pi)
        assert np.array_equal(back.fixed, program.fixed)
        assert np.allclose(back.theta, np.mod(program.theta, 2 * np.pi), atol=1e-15)
        # stability: a second round trip is bitwise identical
        path2 = tmp_path / "p2.json"
        write_phases(path2, back)
        again = read_phases(path2)
        assert np.array_equal(again.theta, back.theta)
        assert np.array_equal(again.fixed, back.fixed)

    def test_mask_value_is_authoritative(self, tmp_path):
        path = tmp_path / "mask.json"
        program = apply_fault_plan(PhaseProgram.zeros(1, 2), [(0, 0, 1.5)])
        write_phases(path, program)
        doc = json.loads(path.read_text())
        doc["theta"][0][0] = 0.1  # stale grid entry
        path.write_text(json.dumps(doc))
        back = read_phases(path)
        assert back.theta[0, 0] == 1.5

    def test_dimension_validation(self, tmp_path):
        path = tmp_path / "dims.json"
        write_phases(path, PhaseProgram.zeros(2, 3))
        doc = json.loads(path.read_text())
        doc["m"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_phases(path)


def make_record(**overrides):
    base = dict(
        experiment_label="universality", n=4, m=5, sigma_k=0.003,
        fault_plan="", target_index=3, seed=12345,
        loss_before=1.5e-4, loss_after=2.5e-29, delta_f=None, delta_u=None,
        mu_dx=None, sigma_dx=None, corr_x=None,
        iterations=31, free_count=20, wall_time=0.125,
    )
    base.update(overrides)
    return ExperimentRecord(**base)


class TestRecordFiles:
    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "r.csv"
        records = [
            make_record(),
            make_record(target_index=4, fault_plan='[[0,1,3.141592653589793]]',
                        loss_before=None, mu_dx=-0.1, sigma_dx=2.5, corr_x=0.01),
        ]
        write_records(path, records)
        assert read_records(path) == records

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_records(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        records = [make_record(), make_record(target_index=4)]
        write_records(path, records)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([lines[0], "\r\n", lines[1], "\r\n", lines[2]]))
        assert read_records(path) == records

    def test_row_of_another_width_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        write_records(path, [make_record(), make_record(target_index=4)])
        text = path.read_text()
        path.write_text(text[:text.rindex(",")] + "\r\n")  # the last cell cut
        columns = len(RECORD_COLUMNS)
        with pytest.raises(ValueError,
                           match=f"short.csv:3: {columns - 1} cells, expected {columns}$"):
            read_records(path)

    def test_fault_plan_quoting(self, tmp_path):
        path = tmp_path / "quoted.csv"
        rec = make_record(fault_plan='[[0,1,0.5],[2,3,1.25]]')
        write_records(path, [rec])
        assert read_records(path)[0].fault_plan == '[[0,1,0.5],[2,3,1.25]]'


class TestWriteText:
    def test_replaces_with_the_text_as_given(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous\n")
        write_text(path, "a,b\r\nc\n")
        assert path.read_bytes() == b"a,b\r\nc\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("name, error", [("nodir/out.csv", FileNotFoundError),
                                             ("afile/out.csv", NotADirectoryError),
                                             ("adir", IsADirectoryError)])
    def test_an_error_names_the_destination_and_leaves_no_temporary_file(
            self, tmp_path, name, error):
        # the temporary file cannot be made (no directory, or a file in its
        # place), or cannot replace the destination (a directory)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        path = tmp_path / name
        with pytest.raises(error) as caught:
            write_text(path, "text\n")
        assert caught.value.filename == str(path) and ".tmp" not in str(caught.value)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile"]


class TestMetadata:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "meta.json"
        write_metadata(path, "universality", 7, {"targets": 10, "m_list": [3, 4]})
        doc = read_metadata(path)
        assert doc["experiment"] == "universality"
        assert doc["master_seed"] == 7
        assert doc["parameters"]["m_list"] == [3, 4]
        assert "jxcircuit" in doc["versions"]

    def test_versions_record_the_numeric_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        path = tmp_path / "meta.json"
        write_metadata(path, "x", 0, {})
        versions = read_metadata(path)["versions"]
        assert versions["python"] == platform.python_version()
        assert versions["numpy"] == np.__version__
        assert isinstance(versions["blas"], str) and isinstance(versions["blas_version"], str)
        assert versions["damped_solve"] == SpdSolver.lapack in ("dpotrf", "gesv")
        assert versions["OPENBLAS_NUM_THREADS"] is None
        assert versions["OMP_NUM_THREADS"] == "3"
        threads = versions["blas_threads"]
        assert threads == _blas_threads() and (threads is None or threads >= 1)

    @pytest.mark.skipif(_blas_threads() is None, reason="numpy's BLAS is not OpenBLAS here")
    def test_blas_threads_are_read_from_openblas(self, tmp_path):
        # the count OpenBLAS reports, which follows OPENBLAS_NUM_THREADS
        path = tmp_path / "meta.json"
        code = ("import sys; from jxcircuit.fileio import write_metadata; "
                "write_metadata(sys.argv[1], 'x', 0, {})")
        src = str(Path(jxcircuit.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True, timeout=60)
        versions = read_metadata(path)["versions"]
        assert versions["blas_threads"] == 1 and versions["OPENBLAS_NUM_THREADS"] == "1"

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "meta.json"
        write_metadata(path, "x", 0, {})
        doc = json.loads(path.read_text())
        doc["schema_version"] = "9.0"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_metadata(path)


class TestConfig:
    def test_parse_types(self):
        cfg = parse_config_text(
            """
            # comment line
            targets = 100
            sigma_k_list = [0.001, 0.003]
            label = "run-a"
            resume = true
            jitter = 0.1
            """
        )
        assert cfg == {
            "targets": 100,
            "sigma_k_list": [0.001, 0.003],
            "label": "run-a",
            "resume": True,
            "jitter": 0.1,
        }

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_config_text("a = 1\nnot an assignment\n", source="cfg")
        with pytest.raises(ValueError, match=":1:"):
            parse_config_text("a = oops", source="cfg")

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('n_list = [4]\ntargets = 2\n')
        assert load_config(path) == {"n_list": [4], "targets": 2}
