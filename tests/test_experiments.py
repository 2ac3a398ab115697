import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit.circuit import ideal_circuit
from jxcircuit.experiments import (
    _haar_fits,
    _random_fault_plan,
    faulty_shifter_grid,
    perturbation_table,
    phase_difference_study,
    recalibration_histogram,
    record_key,
    summarize_perturbation,
    summarize_universality,
    universality_sweep,
)
from jxcircuit.optimizer import LmaOptions, fit
from jxcircuit.sampling import derive_seed, haar_unitary


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
        # at N = 1 the default range drops M = 0; an explicit M = 0 is refused
        records = universality_sweep(
            [1], None, targets=1, options=LmaOptions(restarts=1), seed=13
        )
        assert sorted({r.m for r in records}) == [1, 2, 3]
        with pytest.raises(ValueError, match="phase layer"):
            universality_sweep([2], [0], targets=1, options=LmaOptions(restarts=1), seed=13)

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
        done = {record_key(r): r.seed for r in full[:2]}
        rest = universality_sweep([2], **kwargs, done=done)
        assert drop_wall_time(rest) == drop_wall_time(full[2:])

    def test_batched_jobs_keep_records_and_order_at_any_thread_count(self):
        # each (N, M) splits its 5 targets into one batch, or two uneven ones
        kwargs = dict(m_values=[2, 3, 4], targets=5, options=LmaOptions(restarts=3), seed=17)
        one = universality_sweep([3, 2], **kwargs)
        two = universality_sweep([3, 2], **kwargs, threads=2)
        assert drop_wall_time(one) == drop_wall_time(two)
        assert [(r.n, r.target_index, r.m) for r in one] == [
            (n, i, m) for n in (3, 2) for i in range(5) for m in (2, 3, 4)]

    def test_a_record_is_timed_by_its_own_share_of_the_batch(self):
        # six fits share one descent: were each timed by the whole batch,
        # their times would add up to six times the study's
        t0 = time.perf_counter()
        records = universality_sweep([3], [4], targets=6, options=LmaOptions(restarts=3),
                                     seed=18)
        elapsed = time.perf_counter() - t0
        walls = [rec.wall_time for rec in records]
        assert min(walls) > 0 and sum(walls) <= elapsed


def test_a_done_subset_of_a_job_fits_only_the_targets_it_owes():
    circuit, options = ideal_circuit(4, 6), LmaOptions(restarts=3, max_iterations=60)
    seeds = [(derive_seed(2, "target", i), derive_seed(2, "fit", i)) for i in range(5)]
    rows = _haar_fits([1, 3, 4], circuit=circuit, seeds=seeds, options=options)
    for row, (target_seed, fit_seed) in zip(rows, [seeds[1], seeds[3], seeds[4]]):
        alone = fit(circuit, haar_unitary(4, target_seed), options, seed=fit_seed)
        assert (row["loss_after"], row["iterations"], row["free_count"]) == (
            alone.loss, alone.iterations, alone.phases.free_count)


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
            [0.003], targets=4, options=LmaOptions(restarts=30), seed=31, n=4, m=5,
            attempts=10, truncated_iterations=50,
        )
        assert len(records) == 4
        for rec in records:
            assert rec.loss_before > 1e-7
            assert rec.loss_after < 1e-10

    def test_zero_sigma_before_already_converged(self):
        records = recalibration_histogram(
            [0.0], targets=2, options=LmaOptions(restarts=30), seed=32, n=4, m=5,
            attempts=10, truncated_iterations=50,
        )
        for rec in records:
            assert rec.loss_before < 1e-10
            assert rec.loss_after < 1e-10


#: the phasediff study's config defaults (``STUDIES["phasediff"].defaults``)
PHASEDIFF = dict(init_modes=("jittered", "random"), jitter_fraction=0.1,
                 truncated_iterations=50, targets=1)


class TestPhaseDifferenceStudy:
    def test_exact_given_vector_recovers_zero_difference(self):
        records = phase_difference_study(
            [0.0], runs=2, seed=41, n=4, m=5,
            init_modes=["jittered"], jitter_fraction=0.0, truncated_iterations=50,
            targets=1,
        )
        for rec in records:
            assert rec.loss_after < 1e-10
            assert rec.mu_dx == 0.0
            assert rec.sigma_dx == 0.0
            assert abs(rec.corr_x - 1.0) < 1e-12

    def test_jittered_solutions_closer_than_random(self):
        records = phase_difference_study(
            [0.0, 0.002], runs=12, seed=42, n=4, m=5, **PHASEDIFF,
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
            records = phase_difference_study([0.0], 1, 1, n=1, m=1, **PHASEDIFF)
        assert len(records) == 2
        assert all(rec.corr_x is None for rec in records)

    def test_worker_errors_reach_the_caller(self):
        # FromVector refuses the fraction inside the job, so at threads=2 the
        # error is raised in a worker process
        messages = []
        for threads in (1, 2):
            with pytest.raises(ValueError) as info:
                phase_difference_study([0.0], 2, 44, n=2, m=3,
                                       **{**PHASEDIFF, "jitter_fraction": 1.5},
                                       threads=threads)
            messages.append(str(info.value))
        assert messages == ["jitter_fraction must lie in [0, 1)"] * 2

    def test_labels_and_counts(self):
        records = phase_difference_study(
            [0.0], runs=3, seed=43, n=2, m=3, **PHASEDIFF,
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

    def test_one_job_per_combo_at_any_thread_count_and_on_resume(self):
        kwargs = dict(combos_per_k=2, targets=4, options=LmaOptions(restarts=5),
                      seed=55, n=4, m=5)
        full = faulty_shifter_grid([1, 4], **kwargs)
        assert drop_wall_time(faulty_shifter_grid([1, 4], **kwargs, threads=2)) == \
            drop_wall_time(full)
        done = {record_key(r): r.seed for r in full[1::3]}
        rest = faulty_shifter_grid([1, 4], **kwargs, done=done, threads=2)
        assert drop_wall_time(rest) == drop_wall_time(
            [r for r in full if record_key(r) not in done])


def test_record_key_uniqueness_across_experiments():
    records = universality_sweep(
        [2], [2], targets=2, options=LmaOptions(restarts=2), seed=61
    ) + faulty_shifter_grid(
        [1], combos_per_k=1, targets=2, options=LmaOptions(restarts=2),
        seed=61, n=2, m=3,
    )
    keys = [record_key(r) for r in records]
    assert len(set(keys)) == len(keys)


@st.composite
def fault_requests(draw):
    """(layers, ports, k, mode, seed) on grids up to 6x6, possible or not."""
    layers = draw(st.integers(1, 6))
    ports = draw(st.integers(1, 6))
    k = draw(st.integers(-1, layers * ports + 2))
    mode = draw(st.sampled_from(["spread", "clustered", "any", "nearby"]))
    return layers, ports, k, mode, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(fault_requests())
def test_random_fault_plan_properties(case):
    layers, ports, k, mode, seed = case
    possible = (0 <= k <= layers * ports and mode in ("spread", "clustered", "any")
                and (mode != "spread" or k <= layers)
                and (mode != "clustered" or (k >= 2 and ports >= 2)))
    rng = np.random.default_rng(seed)
    if not possible:
        with pytest.raises(ValueError):
            _random_fault_plan(rng, layers, ports, k, mode)
        return
    plan = _random_fault_plan(rng, layers, ports, k, mode)
    positions = [(mm, pp) for mm, pp, _ in plan]
    assert len(plan) == k and len(set(positions)) == k
    assert positions == sorted(positions)
    assert all(0 <= mm < layers and 0 <= pp < ports for mm, pp in positions)
    assert all(0.0 <= value < 2 * np.pi for _, _, value in plan)
    per_layer = np.bincount([mm for mm, _ in positions], minlength=layers)
    if mode == "spread":
        assert per_layer.max(initial=0) <= 1
    if mode == "clustered":
        assert per_layer.max() >= 2
