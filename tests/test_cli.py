import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jxcircuit
from jxcircuit.cli import main
from jxcircuit.circuit import PhaseProgram
from jxcircuit.fileio import (
    read_matrix,
    read_phases,
    read_records,
    write_matrix,
    write_phases,
    write_records,
)
from jxcircuit.lattice import dfrft
from jxcircuit.numerics import frobenius_norm
from jxcircuit.sampling import haar_unitary


def run(*argv):
    return main([str(a) for a in argv])


class TestHaarCommand:
    def test_writes_reproducible_set(self, tmp_path):
        assert run("haar", "--ports", 3, "--count", 2, "--seed", 5,
                   "--out-dir", tmp_path) == 0
        paths = sorted(tmp_path.glob("haar_n3_*.json"))
        assert len(paths) == 2
        first_bytes = [p.read_bytes() for p in paths]
        assert run("haar", "--ports", 3, "--count", 2, "--seed", 5,
                   "--out-dir", tmp_path) == 0
        assert [p.read_bytes() for p in paths] == first_bytes
        for p in paths:
            read_matrix(p)
            assert json.loads(p.read_text())["role"] == "unitary"

    def test_different_seeds_differ(self, tmp_path):
        run("haar", "--ports", 4, "--seed", 1, "--out", tmp_path / "a.json")
        run("haar", "--ports", 4, "--seed", 2, "--out", tmp_path / "b.json")
        a = read_matrix(tmp_path / "a.json")
        b = read_matrix(tmp_path / "b.json")
        assert frobenius_norm(a - b) > 1e-3

    def test_out_with_count_is_usage_error(self, tmp_path):
        assert run("haar", "--ports", 2, "--count", 3,
                   "--out", tmp_path / "x.json") == 2


class TestDecomposeCommand:
    def test_converges_above_transition(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        run("haar", "--ports", 3, "--seed", 9, "--out", target)
        out = tmp_path / "p.json"
        code = run("decompose", "--target", target, "--layers", 4,
                   "--restarts", 20, "--seed", 1, "--out", out)
        assert code == 0
        summary = capsys.readouterr().out
        assert "loss" in summary and "stopped by target" in summary
        assert "rejected trial(s) over 1 restart(s)" in summary
        program = read_phases(out)
        assert program.layers == 4 and program.ports == 3

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        run("haar", "--ports", 3, "--seed", 10, "--out", target)
        code = run("decompose", "--target", target, "--layers", 2,
                   "--restarts", 5, "--seed", 1, "--out", tmp_path / "p.json")
        assert code == 1
        assert "stopped by target" not in capsys.readouterr().out

    def test_identity_target_converges(self, tmp_path):
        target = tmp_path / "eye.json"
        write_matrix(target, np.eye(3))
        code = run("decompose", "--target", target, "--layers", 4,
                   "--restarts", 20, "--seed", 2, "--out", tmp_path / "p.json")
        assert code == 0

    def test_non_unitary_target_hard_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        write_matrix(bad, np.eye(3))
        doc = json.loads(bad.read_text())
        doc["role"], doc["re"] = "general", (np.eye(3) * 1.5).tolist()
        bad.write_text(json.dumps(doc))
        code = run("decompose", "--target", bad, "--layers", 4,
                   "--out", tmp_path / "p.json")
        assert code == 2
        assert "not unitary" in capsys.readouterr().err

    def test_slightly_non_unitary_warns(self, tmp_path, capsys):
        u = haar_unitary(3, 3)
        u[0, 0] += 1e-7  # defect lands between warn and error thresholds
        near = tmp_path / "near.json"
        write_matrix(near, u)
        code = run("decompose", "--target", near, "--layers", 4,
                   "--restarts", 10, "--seed", 4, "--out", tmp_path / "p.json")
        assert code in (0, 1)
        assert "warning" in capsys.readouterr().err

    def test_ports_cross_check(self, tmp_path):
        target = tmp_path / "t.json"
        run("haar", "--ports", 3, "--seed", 10, "--out", target)
        assert run("decompose", "--target", target, "--layers", 4,
                   "--ports", 5, "--out", tmp_path / "p.json") == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("decompose", "--target", tmp_path / "nope.json",
                   "--layers", 3, "--out", tmp_path / "p.json") == 2


class TestApplyCommand:
    def test_zero_phases_single_layer(self, tmp_path):
        phases = tmp_path / "p.json"
        write_phases(phases, PhaseProgram.zeros(1, 2))
        out = tmp_path / "u.json"
        assert run("apply", "--phases", phases, "--out", out) == 0
        matrix = read_matrix(out)
        f = dfrft(2)
        assert frobenius_norm(matrix - f @ f) < 1e-12

    def test_zero_sigma_matches_ideal(self, tmp_path):
        phases = tmp_path / "p.json"
        write_phases(phases, PhaseProgram.zeros(2, 3))
        run("apply", "--phases", phases, "--out", tmp_path / "a.json")
        run("apply", "--phases", phases, "--sigma-k", 0.0, "--seed", 9,
            "--out", tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_apply_then_decompose_round_trip(self, tmp_path):
        phases = tmp_path / "p.json"
        run("haar", "--ports", 2, "--seed", 31, "--out", tmp_path / "t.json")
        assert run("decompose", "--target", tmp_path / "t.json", "--layers", 3,
                   "--restarts", 20, "--seed", 6, "--out", phases) == 0
        assert run("apply", "--phases", phases, "--out", tmp_path / "u.json") == 0
        matrix = read_matrix(tmp_path / "u.json")
        target = read_matrix(tmp_path / "t.json")
        assert frobenius_norm(matrix - target) ** 2 / 4 < 1e-10


class TestCalibrateCommand:
    def fitted_pair(self, tmp_path, seed=41):
        target = tmp_path / "t.json"
        phases = tmp_path / "p.json"
        run("haar", "--ports", 4, "--seed", seed, "--out", target)
        assert run("decompose", "--target", target, "--layers", 5,
                   "--restarts", 30, "--seed", 7, "--out", phases) == 0
        return target, phases

    def test_zero_sigma_is_noop(self, tmp_path, capsys):
        target, phases = self.fitted_pair(tmp_path)
        out = tmp_path / "c.json"
        assert run("calibrate", "--target", target, "--phases", phases,
                   "--sigma-k", 0.0, "--seed", 3, "--out", out) == 0
        text = capsys.readouterr().out
        before = float(text.split("loss_before")[1].split()[0])
        after = float(text.split("loss_after")[1].split()[0])
        assert before == after
        assert read_phases(out).theta == pytest.approx(read_phases(phases).theta)

    def test_recovers_from_perturbation(self, tmp_path, capsys):
        target, phases = self.fitted_pair(tmp_path, seed=42)
        out = tmp_path / "c.json"
        code = run("calibrate", "--target", target, "--phases", phases,
                   "--sigma-k", 0.006, "--attempts", 10, "--seed", 4, "--out", out)
        assert code == 0
        text = capsys.readouterr().out
        before = float(text.split("loss_before")[1].split()[0])
        after = float(text.split("loss_after")[1].split()[0])
        assert after < 1e-10
        assert before / after > 1e6
        assert "\nfit: " in text and "rejected trial(s) over" in text

    def test_zero_attempts_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(jxcircuit.cli, "fit", lambda *args, **kw: pytest.fail("a fit ran"))
        target, phases = tmp_path / "t.json", tmp_path / "p.json"
        run("haar", "--ports", 2, "--seed", 1, "--out", target)
        write_phases(phases, PhaseProgram.zeros(2, 2))
        assert run("calibrate", "--target", target, "--phases", phases,
                   "--sigma-k", 0.003, "--attempts", 0, "--out", tmp_path / "c.json") == 2
        assert "--attempts" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("command, edit, message", [
    ("decompose", without("n"), "missing key 'n'"),
    ("decompose", lambda doc: [doc], "expected a JSON object, got list"),
    ("apply", without("mask"), "missing key 'mask'"),
    ("decompose", lambda doc: dict(doc, n=None), "key 'n' must be a positive integer"),
    ("apply", lambda doc: dict(doc, mask=[1]), "key 'mask' is not a grid of shape (1, 2)"),
    ("decompose", lambda doc: dict(doc, re=[[10**400, 0], [0, 1]]),
     "key 're' is not a grid of shape (2, 2) of numbers"),
], ids=["no-n", "list", "no-mask", "null-n", "flat-mask", "huge-entry"])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, command, edit, message):
    path = tmp_path / "in.json"
    if command == "decompose":
        run("haar", "--ports", 2, "--seed", 1, "--out", path)
        argv = ("decompose", "--target", path, "--layers", 1)
    else:
        write_phases(path, PhaseProgram.zeros(1, 2))
        argv = ("apply", "--phases", path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("decompose", "--layers", 3, "--restarts", 0),
    ("decompose", "--layers", 3, "--max-iterations", 0),
    ("calibrate", "--phases", "missing-p.json", "--sigma-k", 0.003, "--iterations", 0),
])
def test_zero_count_flag_is_usage_error_before_inputs_are_read(tmp_path, capsys, argv):
    # the target file does not exist: the flag is named before it is opened
    out = tmp_path / "out.json"
    assert run(*argv, "--target", tmp_path / "missing.json", "--out", out) == 2
    flag = argv[-2]
    assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("decompose", "--layers", 3, "--target-loss", "inf"),
     "--target-loss must be finite and positive, got inf"),
    (("decompose", "--layers", 3, "--target-loss", "nan"),
     "--target-loss must be finite and positive, got nan"),
    (("decompose", "--layers", 3, "--target-loss", 0),
     "--target-loss must be finite and positive, got 0.0"),
    (("calibrate", "--phases", "p.json", "--sigma-k", 0.003, "--target-loss", "inf"),
     "--target-loss must be finite and positive, got inf"),
    (("calibrate", "--phases", "p.json", "--sigma-k", 0.003, "--target-loss", -0.5),
     "--target-loss must be finite and positive, got -0.5"),
    (("calibrate", "--phases", "p.json", "--sigma-k", "nan"),
     "--sigma-k must be finite, got nan"),
    (("calibrate", "--phases", "p.json", "--sigma-k", "inf"),
     "--sigma-k must be finite, got inf"),
    (("apply", "--sigma-k", "nan"), "--sigma-k must be finite, got nan"),
    (("apply", "--sigma-k", "inf"), "--sigma-k must be finite, got inf"),
    # exponent-notation negatives parse as numbers, not as options
    (("decompose", "--layers", 3, "--target-loss", "-1e-10"),
     "--target-loss must be finite and positive, got -1e-10"),
    (("calibrate", "--phases", "p.json", "--sigma-k", 0.003, "--target-loss", "-1E+2"),
     "--target-loss must be finite and positive, got -100.0"),
    (("apply", "--sigma-k", "-1e-3"), "--sigma-k must be >= 0, got -0.001"),
    (("calibrate", "--phases", "p.json", "--sigma-k", "-2.5e-3"),
     "--sigma-k must be >= 0, got -0.0025"),
])
def test_bad_real_flag_is_usage_error_before_inputs_are_read(
        tmp_path, capsys, monkeypatch, argv, message):
    # no input file exists: the flag is named before any is opened
    monkeypatch.chdir(tmp_path)
    inputs = ("--phases", "p.json") if argv[0] == "apply" else ("--target", "t.json")
    assert run(*argv, *inputs, "--out", "out.json") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


class TestExperimentCommand:
    def config(self, tmp_path, text):
        path = tmp_path / "cfg.toml"
        path.write_text(text)
        return path

    def test_universality_outputs(self, tmp_path):
        cfg = self.config(
            tmp_path,
            'n_list = [2]\nm_list = [2, 3]\ntargets = 3\nrestarts = 5\nmaster_seed = 3\n',
        )
        out = tmp_path / "res"
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", out) == 0
        records = read_records(out / "universality_records.csv")
        assert len(records) == 6
        meta = json.loads((out / "universality_metadata.json").read_text())
        assert meta["parameters"]["targets"] == 3
        svg = (out / "universality.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_rerun_bit_identical_except_wall_time(self, tmp_path):
        cfg = self.config(
            tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 2\nrestarts = 4\n'
        )
        run("experiment", "universality", "--config", cfg, "--out-dir", tmp_path / "a")
        run("experiment", "universality", "--config", cfg, "--out-dir", tmp_path / "b")
        rec_a = read_records(tmp_path / "a" / "universality_records.csv")
        rec_b = read_records(tmp_path / "b" / "universality_records.csv")
        strip = lambda recs: [
            tuple(getattr(r, f) for f in r.__dataclass_fields__ if f != "wall_time")
            for r in recs
        ]
        assert strip(rec_a) == strip(rec_b)
        assert (tmp_path / "a" / "universality.svg").read_bytes() == \
               (tmp_path / "b" / "universality.svg").read_bytes()

    def test_resume_keeps_existing_bytes(self, tmp_path):
        cfg = self.config(
            tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 2\nrestarts = 4\n'
        )
        out = tmp_path / "res"
        run("experiment", "universality", "--config", cfg, "--out-dir", out)
        before = (out / "universality_records.csv").read_bytes()
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", out, "--resume") == 0
        assert (out / "universality_records.csv").read_bytes() == before

    @pytest.mark.parametrize("edit, row", [
        (lambda rec: dataclasses.replace(rec, m=99), "('universality', 2, 99, "),
        (lambda rec: dataclasses.replace(rec, experiment_label="universalityx"),
         "('universalityx', 2, 3, "),
        (lambda rec: dataclasses.replace(rec, seed=rec.seed + 1), "('universality', 2, 3, "),
    ], ids=["m-99", "foreign-label", "changed-seed"])
    def test_resume_refuses_rows_no_job_owes(self, tmp_path, capsys, edit, row):
        cfg = self.config(
            tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 2\nrestarts = 4\n'
        )
        out = tmp_path / "res"
        csv_path = out / "universality_records.csv"
        run("experiment", "universality", "--config", cfg, "--out-dir", out)
        first, second = read_records(csv_path)
        write_records(csv_path, [edit(first), second])
        edited = csv_path.read_bytes()
        capsys.readouterr()
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", out, "--resume") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: existing record ") and row in err
        assert "not owed by this run" in err
        assert csv_path.read_bytes() == edited

    def test_faulty_smoke(self, tmp_path):
        cfg = self.config(
            tmp_path,
            'k_list = [1]\ncombos_per_k = 1\ntargets = 2\nrestarts = 10\n'
            'n = 2\nm = 3\n',
        )
        out = tmp_path / "res"
        assert run("experiment", "faulty", "--config", cfg, "--out-dir", out) == 0
        records = read_records(out / "faulty_records.csv")
        assert len(records) == 2
        assert all(r.fault_plan for r in records)

    def test_table1_outputs(self, tmp_path):
        cfg = self.config(
            tmp_path,
            'n = 2\nm = 3\nsigma_k_list = [0.003]\nsamples = 2\nrestarts = 10\n',
        )
        out = tmp_path / "res"
        assert run("experiment", "table1", "--config", cfg, "--out-dir", out) == 0
        records = read_records(out / "table1_records.csv")
        assert len(records) == 2
        assert all(r.delta_f > 0 and r.delta_u > 0 for r in records)
        assert (out / "table1.svg").exists()

    def test_recalibration_outputs(self, tmp_path):
        cfg = self.config(
            tmp_path,
            'n = 2\nm = 3\nsigma_k_list = [0.005]\ntargets = 2\nrestarts = 10\n'
            'attempts = 5\ntruncated_iterations = 50\n',
        )
        out = tmp_path / "res"
        assert run("experiment", "recalibration", "--config", cfg,
                   "--out-dir", out) == 0
        records = read_records(out / "recalibration_records.csv")
        assert all(r.loss_after < 1e-10 for r in records)
        assert (out / "recalibration.svg").exists()

    def test_phasediff_outputs(self, tmp_path):
        cfg = self.config(
            tmp_path,
            'n = 2\nm = 3\nsigma_k_list = [0.0]\nruns = 2\n',
        )
        out = tmp_path / "res"
        assert run("experiment", "phasediff", "--config", cfg, "--out-dir", out) == 0
        records = read_records(out / "phasediff_records.csv")
        assert len(records) == 4  # two runs x two init modes
        assert (out / "phasediff.svg").exists()

    def test_threads_flag_preserves_results(self, tmp_path):
        cfg = self.config(
            tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 3\nrestarts = 4\n'
        )
        run("experiment", "universality", "--config", cfg, "--out-dir", tmp_path / "a")
        run("experiment", "universality", "--config", cfg, "--out-dir", tmp_path / "b",
            "--threads", 3)
        rec_a = read_records(tmp_path / "a" / "universality_records.csv")
        rec_b = read_records(tmp_path / "b" / "universality_records.csv")
        strip = lambda recs: [
            tuple(getattr(r, f) for f in r.__dataclass_fields__ if f != "wall_time")
            for r in recs
        ]
        assert strip(rec_a) == strip(rec_b)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = self.config(tmp_path, 'bogus_key = 1\n')
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", tmp_path / "res") == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("experiment", "nonsense", "--out-dir", tmp_path)
        assert exc.value.code == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.config(
            tmp_path,
            'n_list = [2]\nm_list = [3]\ntargets = 1\nrestarts = 3\nmaster_seed = 1\n',
        )
        run("experiment", "universality", "--config", cfg, "--seed", 2,
            "--out-dir", tmp_path / "res")
        meta = json.loads((tmp_path / "res" / "universality_metadata.json").read_text())
        assert meta["master_seed"] == 2

    def test_resume_refuses_other_seed_or_parameters(self, tmp_path, capsys):
        out = tmp_path / "res"
        first = self.config(tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 2\nrestarts = 3\n')
        assert run("experiment", "universality", "--config", first, "--seed", 1,
                   "--out-dir", out) == 0
        before = (out / "universality_records.csv").read_bytes()
        more = tmp_path / "more.toml"
        more.write_text('n_list = [2]\nm_list = [3]\ntargets = 3\nrestarts = 3\n')
        for cfg, seed in ((first, 2), (more, 1), (more, 2)):
            assert run("experiment", "universality", "--config", cfg, "--seed", seed,
                       "--out-dir", out, "--resume") == 2
            assert "--resume" in capsys.readouterr().err
        assert (out / "universality_records.csv").read_bytes() == before
        assert json.loads((out / "universality_metadata.json").read_text())["master_seed"] == 1

    def test_resume_refuses_records_without_metadata(self, tmp_path):
        cfg = self.config(tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 1\nrestarts = 3\n')
        out = tmp_path / "res"
        assert run("experiment", "universality", "--config", cfg, "--out-dir", out) == 0
        meta = out / "universality_metadata.json"
        meta.write_text("[]")  # a JSON document that is not an object
        assert run("experiment", "universality", "--config", cfg, "--out-dir", out,
                   "--resume") == 2
        meta.unlink()
        assert run("experiment", "universality", "--config", cfg, "--out-dir", out,
                   "--resume") == 2

    # small valid budgets, so that a bad value that slipped through would not
    # start a long run; the bad line comes last and overrides
    SMALL = {
        "universality": "n_list = [2]\nm_list = [3]\ntargets = 1\nrestarts = 1\n",
        "table1": "n = 2\nm = 3\nsamples = 1\nrestarts = 1\n",
        "recalibration": "n = 2\nm = 3\ntargets = 1\nrestarts = 1\n",
        "phasediff": "n = 2\nm = 3\nruns = 1\n",
        "faulty": "n = 2\nm = 3\nk_list = [1]\ncombos_per_k = 1\ntargets = 1\n"
                  "restarts = 1\n",
    }

    @pytest.mark.parametrize("name, line", [
        ("universality", "n_list = 4"),
        ("universality", "n_list = [4.5]"),
        ("universality", "m_list = 5"),
        ("universality", "targets = true"),
        ("universality", "targets = 0"),
        ("universality", 'restarts = "10"'),
        ("table1", "samples = 2.0"),
        ("phasediff", "runs = -1"),
        ("phasediff", 'init_modes = "random"'),
        ("phasediff", "jitter_fraction = false"),
        ("faulty", "combos_per_k = 0"),
        ("faulty", "k_list = [1, null]"),
        ("faulty", "k_list = [-1]"),
        ("universality", "m_list = [0]"),
        ("table1", "sigma_k_list = [-0.1]"),
        ("table1", "sigma_k_list = [NaN]"),
        ("recalibration", "sigma_k_list = [0.001, Infinity]"),
        ("phasediff", "jitter_fraction = 1.5"),
        ("phasediff", "jitter_fraction = -0.1"),
        ("recalibration", "attempts = 0"),
        ("universality", "restarts = 0"),
        ("universality", "max_iterations = 0"),
        ("recalibration", "truncated_iterations = 0"),
        ("phasediff", "truncated_iterations = 0"),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                             name, line):
        # refused before any fit runs, by the config check: the message names
        # the file and the key
        monkeypatch.setattr(jxcircuit.experiments, "fit",
                            lambda *args: pytest.fail("a fit ran"))
        cfg = self.config(tmp_path, self.SMALL[name] + line + "\n")
        assert run("experiment", name, "--config", cfg, "--out-dir", tmp_path / "res") == 2
        err = capsys.readouterr().err
        assert f"{cfg}: experiment {name!r}" in err
        assert line.split(" =")[0] in err
        assert not (tmp_path / "res" / f"{name}_records.csv").exists()

    def test_config_accepts_int_for_float_and_null_m_list(self, tmp_path):
        cfg = self.config(tmp_path, 'n_list = [1]\nm_list = null\ntargets = 1\nrestarts = 1\n')
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", tmp_path / "a") == 0
        cfg = self.config(tmp_path, 'n = 1\nm = 1\nsigma_k_list = [0]\nruns = 1\n'
                                    'jitter_fraction = 0\ninit_modes = ["jittered"]\n')
        assert run("experiment", "phasediff", "--config", cfg,
                   "--out-dir", tmp_path / "b") == 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_study_error_is_usage_error(self, tmp_path, capsys, monkeypatch, threads):
        # past the config check the bad value reaches the study, which raises
        # in a worker process when threads > 1
        monkeypatch.setattr(jxcircuit.cli, "check_values", lambda *args: None)
        cfg = self.config(tmp_path, "n = 2\nm = 3\nruns = 2\njitter_fraction = 1.5\n")
        out = tmp_path / "res"
        assert run("experiment", "phasediff", "--config", cfg, "--out-dir", out,
                   "--threads", threads) == 2
        assert "jitter_fraction must lie in [0, 1)" in capsys.readouterr().err
        assert not (out / "phasediff_records.csv").exists()

    def test_threads_below_one_is_usage_error(self, tmp_path):
        cfg = self.config(tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 1\nrestarts = 1\n')
        assert run("experiment", "universality", "--config", cfg, "--threads", 0,
                   "--out-dir", tmp_path / "res") == 2

    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", " "])
    def test_bad_threads_variable_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                 value):
        monkeypatch.setattr(jxcircuit.experiments, "fit",
                            lambda *args: pytest.fail("a fit ran"))
        monkeypatch.setenv("JXCIRCUIT_THREADS", value)
        cfg = self.config(tmp_path, self.SMALL["universality"])
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", tmp_path / "res") == 2
        assert "JXCIRCUIT_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_empty_threads_variable_means_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JXCIRCUIT_THREADS", "")
        cfg = self.config(tmp_path, self.SMALL["universality"])
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", tmp_path / "res") == 0

    def test_interrupted_write_keeps_previous_outputs(self, tmp_path, capsys, monkeypatch):
        cfg = self.config(tmp_path, "n = 2\nm = 3\nruns = 2\n")
        out = tmp_path / "res"
        assert run("experiment", "phasediff", "--config", cfg, "--out-dir", out) == 0
        count = len(read_records(out / "phasediff_records.csv"))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        format_cell = jxcircuit.fileio._format_cell
        cells = []

        def disk_fills_up(value):  # part way through the rewrite of the CSV
            cells.append(value)
            if len(cells) > 2 * len(jxcircuit.fileio.RECORD_COLUMNS):
                raise OSError("No space left on device")
            return format_cell(value)

        monkeypatch.setattr(jxcircuit.fileio, "_format_cell", disk_fills_up)
        assert run("experiment", "phasediff", "--config", cfg, "--out-dir", out,
                   "--resume") == 2
        # every output as it was, and no temporary file left beside them
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        monkeypatch.undo()
        monkeypatch.setattr(jxcircuit.experiments, "fit",
                            lambda *args: pytest.fail("a fit ran"))
        capsys.readouterr()
        assert run("experiment", "phasediff", "--config", cfg, "--out-dir", out,
                   "--resume") == 0
        assert f"resuming: {count} record(s) already present" in capsys.readouterr().out

    def test_impossible_clustered_faults_fail_fast(self, tmp_path):
        # with one port per layer no layer can hold two faults, so the second
        # (clustered) combo has no valid placement
        cfg = self.config(tmp_path, "n = 1\nm = 2\nk_list = [1]\ncombos_per_k = 2\n"
                                    "targets = 1\nrestarts = 1\n")
        src = str(Path(jxcircuit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "jxcircuit.cli", "experiment", "faulty",
             "--config", str(cfg), "--out-dir", str(tmp_path / "res")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert "cluster" in proc.stderr
