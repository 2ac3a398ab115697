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
from jxcircuit.fileio import read_matrix, read_phases, read_records, write_matrix, write_phases
from jxcircuit.lattice import JxSpec, dfrft
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
            matrix, role = read_matrix(p)
            assert role == "unitary"

    def test_different_seeds_differ(self, tmp_path):
        run("haar", "--ports", 4, "--seed", 1, "--out", tmp_path / "a.json")
        run("haar", "--ports", 4, "--seed", 2, "--out", tmp_path / "b.json")
        a, _ = read_matrix(tmp_path / "a.json")
        b, _ = read_matrix(tmp_path / "b.json")
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
        assert "loss" in capsys.readouterr().out
        program = read_phases(out)
        assert program.layers == 4 and program.ports == 3

    def test_nonconvergence_exit_code(self, tmp_path):
        target = tmp_path / "t.json"
        run("haar", "--ports", 3, "--seed", 10, "--out", target)
        code = run("decompose", "--target", target, "--layers", 2,
                   "--restarts", 5, "--seed", 1, "--out", tmp_path / "p.json")
        assert code == 1

    def test_identity_target_converges(self, tmp_path):
        target = tmp_path / "eye.json"
        write_matrix(target, np.eye(3), role="unitary")
        code = run("decompose", "--target", target, "--layers", 4,
                   "--restarts", 20, "--seed", 2, "--out", tmp_path / "p.json")
        assert code == 0

    def test_non_unitary_target_hard_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        write_matrix(bad, np.eye(3) * 1.5)
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
        matrix, _ = read_matrix(out)
        f = dfrft(JxSpec(2)).matrix
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
        matrix, _ = read_matrix(tmp_path / "u.json")
        target, _ = read_matrix(tmp_path / "t.json")
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
        (out / "universality_metadata.json").unlink()
        assert run("experiment", "universality", "--config", cfg, "--out-dir", out,
                   "--resume") == 2

    # small valid budgets, so that a bad value that slipped through would not
    # start a long run; the bad line comes last and overrides
    SMALL = {
        "universality": "n_list = [2]\nm_list = [3]\ntargets = 1\nrestarts = 1\n",
        "table1": "n = 2\nm = 3\nsamples = 1\nrestarts = 1\n",
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
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, name, line):
        cfg = self.config(tmp_path, self.SMALL[name] + line + "\n")
        assert run("experiment", name, "--config", cfg, "--out-dir", tmp_path / "res") == 2
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not (tmp_path / "res" / f"{name}_records.csv").exists()

    def test_config_accepts_int_for_float_and_null_m_list(self, tmp_path):
        cfg = self.config(tmp_path, 'n_list = [1]\nm_list = null\ntargets = 1\nrestarts = 1\n')
        assert run("experiment", "universality", "--config", cfg,
                   "--out-dir", tmp_path / "a") == 0
        cfg = self.config(tmp_path, 'n = 1\nm = 1\nsigma_k_list = [0]\nruns = 1\n'
                                    'jitter_fraction = 0\ninit_modes = ["jittered"]\n')
        assert run("experiment", "phasediff", "--config", cfg,
                   "--out-dir", tmp_path / "b") == 0

    def test_threads_below_one_is_usage_error(self, tmp_path):
        cfg = self.config(tmp_path, 'n_list = [2]\nm_list = [3]\ntargets = 1\nrestarts = 1\n')
        assert run("experiment", "universality", "--config", cfg, "--threads", 0,
                   "--out-dir", tmp_path / "res") == 2

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
