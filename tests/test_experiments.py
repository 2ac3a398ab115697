import json
import warnings

import numpy as np

from jxcircuit.experiments import (
    faulty_shifter_grid,
    perturbation_table,
    phase_difference_study,
    recalibration_histogram,
    record_key,
    summarize_perturbation,
    summarize_universality,
    universality_sweep,
)
from jxcircuit.optimizer import LmaOptions


def drop_wall_time(records):
    return [
        tuple(getattr(r, f) for f in r.__dataclass_fields__ if f != "wall_time")
        for r in records
    ]


class TestUniversalitySweep:
    def test_transition_at_small_scale(self):
        records = universality_sweep(
            [2], [2, 3], targets=4, options=LmaOptions(restarts=10), seed=11
        )
        summary = {(s["n"], s["m"]): s for s in summarize_universality(records)}
        assert summary[(2, 2)]["fraction_below_1e-10"] == 0.0
        assert summary[(2, 2)]["median_loss"] > 1e-6
        assert summary[(2, 3)]["fraction_below_1e-10"] == 1.0

    def test_single_port_trivial(self):
        records = universality_sweep(
            [1], [1], targets=3, options=LmaOptions(restarts=3), seed=12
        )
        assert all(r.loss_after < 1e-14 for r in records)

    def test_default_m_values_bracket_transition(self):
        records = universality_sweep(
            [2], None, targets=1, options=LmaOptions(restarts=4), seed=13
        )
        assert sorted({r.m for r in records}) == [1, 2, 3, 4]

    def test_records_well_formed(self):
        records = universality_sweep(
            [2], [3], targets=2, options=LmaOptions(restarts=4), seed=14
        )
        for rec in records:
            assert rec.experiment_label == "universality"
            assert rec.free_count == rec.m * rec.n
            assert rec.loss_before is None
            assert rec.wall_time > 0

    def test_deterministic_and_thread_invariant(self):
        kwargs = dict(m_values=[2, 3], targets=3, options=LmaOptions(restarts=4), seed=15)
        a = universality_sweep([2], **kwargs)
        b = universality_sweep([2], **kwargs)
        c = universality_sweep([2], **kwargs, threads=3)
        assert drop_wall_time(a) == drop_wall_time(b) == drop_wall_time(c)

    def test_resume_skips_done_work(self):
        kwargs = dict(m_values=[3], targets=3, options=LmaOptions(restarts=4), seed=16)
        full = universality_sweep([2], **kwargs)
        done = {record_key(r) for r in full[:2]}
        rest = universality_sweep([2], **kwargs, done=done)
        assert drop_wall_time(rest) == drop_wall_time(full[2:])


class TestPerturbationTable:
    def test_small_sample_statistics(self):
        records = perturbation_table(
            [0.002], samples=6, options=LmaOptions(restarts=30), seed=21, n=4, m=5
        )
        assert len(records) == 6
        for rec in records:
            assert rec.delta_f > 0
            assert rec.delta_u > rec.delta_f
            # uncorrected loss is (delta_u)^2 / n up to the converged fit error
            assert abs(rec.loss_before - rec.delta_u**2 / rec.n) < 1e-10
        summary = summarize_perturbation(records)[0]
        # independent per-slot disorder accumulates like sqrt(m + 1)
        assert abs(summary["ratio"] - np.sqrt(6)) / np.sqrt(6) < 0.35

    def test_zero_sigma_row(self):
        records = perturbation_table(
            [0.0], samples=2, options=LmaOptions(restarts=30), seed=22, n=4, m=5
        )
        for rec in records:
            assert rec.delta_f == 0.0
            assert rec.delta_u < 1e-10

    def test_deterministic(self):
        kwargs = dict(samples=3, options=LmaOptions(restarts=30), seed=23, n=4, m=5)
        a = perturbation_table([0.003], **kwargs)
        b = perturbation_table([0.003], **kwargs, threads=2)
        assert drop_wall_time(a) == drop_wall_time(b)


class TestRecalibrationHistogram:
    def test_recovery_below_noise(self):
        records = recalibration_histogram(
            [0.003], targets=4, options=LmaOptions(restarts=30), seed=31, n=4, m=5
        )
        assert len(records) == 4
        for rec in records:
            assert rec.loss_before > 1e-7
            assert rec.loss_after < 1e-10

    def test_zero_sigma_before_already_converged(self):
        records = recalibration_histogram(
            [0.0], targets=2, options=LmaOptions(restarts=30), seed=32, n=4, m=5
        )
        for rec in records:
            assert rec.loss_before < 1e-10
            assert rec.loss_after < 1e-10


class TestPhaseDifferenceStudy:
    def test_exact_given_vector_recovers_zero_difference(self):
        records = phase_difference_study(
            [0.0], runs=2, options=None, seed=41, n=4, m=5,
            init_modes=["jittered"], jitter_fraction=0.0,
        )
        for rec in records:
            assert rec.loss_after < 1e-10
            assert rec.mu_dx == 0.0
            assert rec.sigma_dx == 0.0
            assert abs(rec.corr_x - 1.0) < 1e-12

    def test_jittered_solutions_closer_than_random(self):
        records = phase_difference_study(
            [0.0, 0.002], runs=12, options=None, seed=42, n=4, m=5,
        )
        by_mode = {}
        for rec in records:
            by_mode.setdefault(rec.experiment_label, []).append(rec.sigma_dx)
        jittered = np.median(by_mode["phasediff/init=jittered"])
        random_init = np.median(by_mode["phasediff/init=random"])
        assert jittered < random_init

    def test_constant_vectors_record_no_correlation(self):
        # at N = M = 1 both phase vectors hold a single entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = phase_difference_study([0.0], 1, None, 1, n=1, m=1)
        assert len(records) == 2
        assert all(rec.corr_x is None for rec in records)

    def test_labels_and_counts(self):
        records = phase_difference_study(
            [0.0], runs=3, options=None, seed=43, n=2, m=3,
        )
        labels = {rec.experiment_label for rec in records}
        assert labels == {"phasediff/init=jittered", "phasediff/init=random"}
        assert len(records) == 6
        assert all(rec.free_count == 6 for rec in records)


class TestFaultyShifterGrid:
    def test_plan_structure_for_port_count_faults(self):
        records = faulty_shifter_grid(
            [4], combos_per_k=2, targets=2, options=LmaOptions(restarts=10),
            seed=51, n=4, m=5,
        )
        plans = {}
        for rec in records:
            plans[rec.experiment_label] = json.loads(rec.fault_plan)
            assert rec.free_count == 4 * 5 - 4
        spread = plans["faulty/k=4/combo=000"]
        clustered = plans["faulty/k=4/combo=001"]
        assert len({mm for mm, _, _ in spread}) == 4  # one fault per layer
        counts = {}
        for mm, _, _ in clustered:
            counts[mm] = counts.get(mm, 0) + 1
        assert max(counts.values()) >= 2

    def test_single_fault_converges(self):
        records = faulty_shifter_grid(
            [1], combos_per_k=1, targets=4, options=LmaOptions(restarts=40),
            seed=52, n=4, m=5,
        )
        assert all(rec.loss_after < 1e-10 for rec in records)
        assert all(rec.free_count == 19 for rec in records)

    def test_fault_values_in_range(self):
        records = faulty_shifter_grid(
            [2], combos_per_k=2, targets=1, options=LmaOptions(restarts=5),
            seed=53, n=4, m=5,
        )
        for rec in records:
            for mm, pp, value in json.loads(rec.fault_plan):
                assert 0 <= mm < 5 and 0 <= pp < 4
                assert 0.0 <= value < 2 * np.pi

    def test_deterministic(self):
        kwargs = dict(combos_per_k=1, targets=2, options=LmaOptions(restarts=5),
                      seed=54, n=4, m=5)
        a = faulty_shifter_grid([1], **kwargs)
        b = faulty_shifter_grid([1], **kwargs, threads=2)
        assert drop_wall_time(a) == drop_wall_time(b)


def test_record_key_uniqueness_across_experiments():
    records = universality_sweep(
        [2], [2], targets=2, options=LmaOptions(restarts=2), seed=61
    ) + faulty_shifter_grid(
        [1], combos_per_k=1, targets=2, options=LmaOptions(restarts=2),
        seed=61, n=2, m=3,
    )
    keys = [record_key(r) for r in records]
    assert len(set(keys)) == len(keys)
