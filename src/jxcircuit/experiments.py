"""Scripted studies: universality sweep, perturbation statistics,
auto-recalibration, phase-difference statistics and the faulty-shifter grid.

Every study is deterministic given its master seed: each unit of work
derives a private seed from (master seed, label, index) with
:func:`~jxcircuit.sampling.derive_seed`, so records are
bit-identical across reruns and worker counts (``wall_time`` excepted,
which is informational only).  Functions return flat lists of
:class:`ExperimentRecord`, ready for CSV serialization, sorted by their
canonical task order rather than completion order.

A study splits into independent jobs, each owing some records, and one
runner skips already-done records (refusing any that no job owes), fans
the jobs out to worker processes and flattens their records in job order.  :data:`STUDIES` registers
every study under its CLI name with its config defaults, summary lines
and plot; those defaults are the only ones, as a study function takes
every config setting as a required argument.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .circuit import (
    FitResult,
    PhaseProgram,
    apply_fault_plan,
    compose,
    ideal_circuit,
    loss,
    perturbed_circuit,
    transfer_matrix,
)
from .lattice import dfrft, relative_deviation
from .optimizer import FromVector, LmaOptions, fit, fit_targets
from .sampling import derive_seed, haar_unitary, uniform_phases
from .svgplot import histogram_svg, scatter_svg

__all__ = [
    "ExperimentRecord",
    "Study",
    "STUDIES",
    "record_key",
    "record_sort_key",
    "universality_sweep",
    "perturbation_table",
    "recalibration_histogram",
    "phase_difference_study",
    "faulty_shifter_grid",
    "summarize_universality",
    "summarize_perturbation",
]


@dataclass(frozen=True, kw_only=True)
class ExperimentRecord:
    """One self-contained result row; rerunnable from its label, seed and indices.

    Fields a study does not measure keep their defaults; ``None`` is
    written as an empty CSV cell.
    """

    experiment_label: str
    n: int
    m: int
    sigma_k: float = 0.0
    fault_plan: str = ""
    target_index: int
    seed: int
    loss_before: float | None = None
    loss_after: float | None = None
    delta_f: float | None = None
    delta_u: float | None = None
    mu_dx: float | None = None
    sigma_dx: float | None = None
    corr_x: float | None = None
    iterations: int = 0
    free_count: int = 0
    wall_time: float = 0.0


#: the fields that identify the unit of work behind a record
_IDENTITY = ("experiment_label", "n", "m", "sigma_k", "fault_plan", "target_index")


def record_sort_key(record: ExperimentRecord) -> tuple:
    """Canonical record order: by identity fields."""
    return tuple(getattr(record, name) for name in _IDENTITY)


def record_key(record: ExperimentRecord) -> tuple:
    """Identity of the unit of work that produced the record (resume key)."""
    return tuple(repr(value) if name == "sigma_k" else value
                 for name, value in zip(_IDENTITY, record_sort_key(record)))


#: an independent unit of work: the records it owes, in emission order with
#: identity fields and seed set, and ``measure(todo)``, which computes the
#: records at positions ``todo`` (those not done yet) and returns their
#: measured fields in the same order; work the owed records share (a target,
#: an ideal-mixer fit) is done once per call.  ``measure`` is a module-level
#: function bound to its inputs with :func:`functools.partial`, so it pickles
#: for a worker process under any start method
_Job = tuple[list[ExperimentRecord], Callable[[list[int]], list[dict]]]


def _run_jobs(jobs: list[_Job], threads: int, done: dict | None) -> list[ExperimentRecord]:
    """Measure the records of every job not in ``done``, in job order.

    ``done`` maps the key of each record already measured to its seed; one
    that no job owes, or owes with another seed, is refused with a
    ``ValueError`` naming it.  With ``threads > 1`` the pending jobs run on
    that many worker processes (at most one per pending job).  A worker
    returns only the measured fields, so the records are the same for any
    worker count.
    """
    done = done or {}
    seeds = {record_key(rec): rec.seed for owed, _ in jobs for rec in owed}
    for key, row_seed in done.items():
        if seeds.get(key) != row_seed:
            raise ValueError(f"existing record {key} with seed {row_seed} is not owed by this run")
    pending = []
    for owed, measure in jobs:
        todo = [k for k, rec in enumerate(owed) if record_key(rec) not in done]
        if todo:
            pending.append((owed, measure, todo))
    workers = min(threads, len(pending))
    if workers > 1:
        pool = ProcessPoolExecutor(workers)
        try:
            futures = [pool.submit(measure, todo) for _, measure, todo in pending]
            measured = [future.result() for future in futures]
        finally:
            # after a failed job, drop the queued ones instead of running them
            pool.shutdown(cancel_futures=True)
    else:
        measured = [measure(todo) for _, measure, todo in pending]
    return [dataclasses.replace(owed[k], **fields)
            for (owed, _, todo), rows in zip(pending, measured)
            for k, fields in zip(todo, rows)]


def _fitted(result: FitResult, seconds: float, **fields) -> dict:
    """Measured fields plus the record's fit (its loss, iteration and free-phase
    counts) and its wall time in ``seconds``."""
    return dict(fields, loss_after=result.loss, iterations=result.iterations,
                free_count=result.phases.free_count, wall_time=seconds)


def _haar_fits(todo, *, circuit, seeds, options) -> list[dict]:
    """Fit the circuit to one N x N Haar target per ``(target seed, fit seed)``
    of ``seeds`` at ``todo``, all in one ``fit_targets`` call; each record's
    ``wall_time`` is its target draw plus its fit's ``seconds``."""
    targets, draws = [], []
    for target_seed, _ in (seeds[k] for k in todo):
        t0 = time.perf_counter()
        targets.append(haar_unitary(circuit.ports, target_seed))
        draws.append(time.perf_counter() - t0)
    results = fit_targets(circuit, targets, options, [seeds[k][1] for k in todo])
    return [_fitted(result, draw + result.seconds) for result, draw in zip(results, draws)]


def universality_sweep(
    n_list: Sequence[int],
    m_values: Sequence[int] | None,
    targets: int,
    options: LmaOptions,
    seed: int,
    *,
    threads: int = 1,
    done: dict | None = None,
) -> list[ExperimentRecord]:
    """Best-of-restarts loss per (N, M, Haar target).

    ``m_values=None`` sweeps M = N-1 .. N+2 (M >= 1) for each N, which brackets
    the layer count where the error norm collapses to numerical noise.
    Targets are shared across M for a given N.  The fits of one (N, M) share
    one circuit and run in ``max(1, threads)`` jobs of contiguous targets,
    each one batched descent; records come in (N, target, M) order.
    """
    jobs, parts = [], max(1, threads)
    for n in n_list:
        m_list = (list(m_values) if m_values is not None else
                  [m for m in (n - 1, n, n + 1, n + 2) if m >= 1])
        target_seeds = [derive_seed(seed, f"universality/n={n}/target", i)
                        for i in range(targets)]
        for m in m_list:
            circuit = ideal_circuit(n, m)
            for b in range(parts):
                owed = [ExperimentRecord(
                    experiment_label="universality", n=n, m=m, target_index=i,
                    seed=derive_seed(seed, f"universality/n={n}/m={m}/fit", i),
                ) for i in range(b * targets // parts, (b + 1) * targets // parts)]
                jobs.append((owed, partial(_haar_fits, circuit=circuit, options=options, seeds=[
                    (target_seeds[rec.target_index], rec.seed) for rec in owed])))
    rank = {n: k for k, n in enumerate(n_list)}
    return sorted(_run_jobs(jobs, threads, done),
                  key=lambda rec: (rank[rec.n], rec.target_index))


def _ideal_fit_measure(todo, *, i, ideal, target_seed, fit_seed, options, disorder,
                       seed, measure_row) -> list[dict]:
    """Fit one Haar target against ideal mixers, then measure each sigma_k row
    at ``todo`` with the fitted phases on its ``disorder`` (sigma_k, slot label)."""
    t0 = time.perf_counter()
    target = haar_unitary(ideal.ports, target_seed)
    fitted = fit(ideal, target, options, seed=fit_seed)
    out = []
    for r in todo:
        sigma_k, slot_label = disorder[r]
        perturbed = perturbed_circuit(
            ideal.ports, ideal.layers, sigma_k, seed, label=slot_label
        ).with_program(fitted.phases)
        result, fields = measure_row(r, i, perturbed, target, fitted)
        out.append(_fitted(result, time.perf_counter() - t0, **fields))
    return out


def _ideal_fit_rows(label, index_name, sigma_k_list, count, options, seed, n, m,
                    threads, done, measure_row) -> list[ExperimentRecord]:
    """Per index, fit a Haar target against ideal mixers, then one record per sigma_k row.

    Each row puts the fitted phases on fresh independent disorder in every
    mixing slot; ``measure_row(r, i, perturbed, target, fitted)``, a
    module-level function or a partial of one, returns the fit the record
    reports plus the row's other measured fields.  The ideal-mixer fit is
    shared across the rows of one index, and ``wall_time`` runs from before
    the target draw.
    """
    ideal = ideal_circuit(n, m)
    rows = [float(sk) for sk in sigma_k_list]
    jobs = []
    for i in range(count):
        target_seed = derive_seed(seed, f"{label}/target", i)
        owed = [ExperimentRecord(experiment_label=label, n=n, m=m, sigma_k=sk,
                                 target_index=i, seed=target_seed) for sk in rows]
        disorder = [(sk, f"{label}/h1/row={r}/{index_name}={i}")
                    for r, sk in enumerate(rows)]
        jobs.append((owed, partial(
            _ideal_fit_measure, i=i, ideal=ideal, target_seed=target_seed,
            fit_seed=derive_seed(seed, f"{label}/fit", i), options=options,
            disorder=disorder, seed=seed, measure_row=measure_row)))
    return _run_jobs(jobs, threads, done)


def _perturbation_row(r, i, perturbed, target, fitted, *, f_ideal):
    u_p = compose(perturbed)
    return fitted, dict(
        loss_before=loss(u_p, target),
        delta_f=relative_deviation(f_ideal, perturbed.mixers[0]),
        delta_u=relative_deviation(target, u_p),
    )


def perturbation_table(
    sigma_k_list: Sequence[float],
    samples: int,
    options: LmaOptions,
    seed: int,
    *,
    n: int,
    m: int,
    threads: int = 1,
    done: dict | None = None,
) -> list[ExperimentRecord]:
    """Relative mixer error and end-to-end error under uncorrected phases.

    Per sample: fit phases against ideal mixers, then for each sigma_k
    draw fresh independent disorder in every mixing slot and record the
    first slot's relative deviation (delta_f) together with the deviation
    of the composed matrix from the target (delta_u).  The ideal-mixer
    fit is shared across sigma_k rows of the same sample.
    """
    measure_row = partial(_perturbation_row, f_ideal=dfrft(n))
    return _ideal_fit_rows("perturbation-table", "sample", sigma_k_list, samples,
                           options, seed, n, m, threads, done, measure_row)


def _recalibration_row(r, i, perturbed, target, fitted, *, truncated, seed):
    recal = fit(perturbed, target, truncated,
                seed=derive_seed(seed, f"recalibration/refit/row={r}", i))
    return recal, dict(loss_before=loss(compose(perturbed), target))


def recalibration_histogram(
    sigma_k_list: Sequence[float],
    targets: int,
    options: LmaOptions,
    seed: int,
    *,
    n: int,
    m: int,
    attempts: int,
    truncated_iterations: int,
    threads: int = 1,
    done: dict | None = None,
) -> list[ExperimentRecord]:
    """Loss before/after re-optimizing phases against perturbed mixers.

    ``loss_before`` evaluates the ideal-mixer phases on the perturbed
    circuit; ``loss_after`` is the truncated-descent recalibration result
    (at most ``attempts`` fresh random initializations of at most
    ``truncated_iterations`` iterations each).
    """
    truncated = dataclasses.replace(options, max_iterations=truncated_iterations,
                                    restarts=attempts)
    measure_row = partial(_recalibration_row, truncated=truncated, seed=seed)
    return _ideal_fit_rows("recalibration", "target", sigma_k_list, targets,
                           options, seed, n, m, threads, done, measure_row)


def _correlation(a: np.ndarray, b: np.ndarray) -> float | None:
    """Pearson correlation, or None when either vector is constant."""
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def _phasediff_fits(todo, *, given, target, fits, seed, jitter_fraction, options):
    """One descent per ``(init mode, sigma_k, slot label, fit seed)`` of ``fits``
    at ``todo``, against mixers perturbed at sigma_k, compared with ``given``."""
    m, n = given.shape
    out = []
    for mode, sigma_k, slot_label, fit_seed in (fits[k] for k in todo):
        t0 = time.perf_counter()
        circ = perturbed_circuit(n, m, sigma_k, seed, label=slot_label)
        init = FromVector(given, jitter_fraction) if mode == "jittered" else None
        result = fit(circ, target, options, init, seed=fit_seed)
        recovered = result.phases.theta.ravel()
        dx = given.ravel() - recovered
        out.append(_fitted(
            result, time.perf_counter() - t0, mu_dx=float(dx.mean()), sigma_dx=float(dx.std()),
            corr_x=_correlation(given.ravel(), recovered),
        ))
    return out


def phase_difference_study(
    sigma_k_list: Sequence[float],
    runs: int,
    seed: int,
    *,
    n: int,
    m: int,
    init_modes: Sequence[str],
    jitter_fraction: float,
    truncated_iterations: int,
    targets: int,
    threads: int = 1,
    done: dict | None = None,
) -> list[ExperimentRecord]:
    """Statistics of recovered-vs-given phase vectors under truncated descents.

    One target per index is built from a known uniform phase grid with
    ideal mixers.  Each run performs a single truncated descent against a
    fresh perturbed structure (ideal when sigma_k = 0), started either
    within +-``jitter_fraction`` of the given vector or fully at random,
    and records mean/std of (given - recovered) plus their Pearson
    correlation (``None`` when either vector is constant).  The
    difference uses raw (non-canonicalized) recovered phases.
    """
    truncated = LmaOptions(max_iterations=truncated_iterations, restarts=1)
    stack = ideal_circuit(n, m).mixers
    rows = [float(sk) for sk in sigma_k_list]
    for mode in init_modes:
        if mode not in ("jittered", "random"):
            raise ValueError(f"unknown init mode {mode!r}")
    cells = [(mode, r) for mode in init_modes for r in range(len(rows))]

    jobs = []
    for t in range(targets):
        given = uniform_phases(m, n, derive_seed(seed, "phasediff/given", t))
        target = transfer_matrix(stack, given)
        for j in range(runs):
            owed = [ExperimentRecord(
                experiment_label=f"phasediff/init={mode}", n=n, m=m, sigma_k=rows[r],
                target_index=t * runs + j,
                seed=derive_seed(seed, f"phasediff/fit/{mode}/row={r}/t={t}", j),
            ) for mode, r in cells]
            fits = [(mode, rows[r], f"phasediff/h1/row={r}/t={t}/run={j}", rec.seed)
                    for (mode, r), rec in zip(cells, owed)]
            jobs.append((owed, partial(
                _phasediff_fits, given=given, target=target, fits=fits, seed=seed,
                jitter_fraction=jitter_fraction, options=truncated)))
    return _run_jobs(jobs, threads, done)


def _random_fault_plan(
    rng: np.random.Generator, layers: int, ports: int, k: int, mode: str
) -> list[tuple[int, int, float]]:
    """k frozen-shifter positions plus uniform values, per placement mode.

    ``spread`` places one fault per layer (k distinct layers), ``clustered``
    rejection-samples until some layer holds at least two, ``any`` samples
    positions uniformly without replacement.
    """
    if k > layers * ports:
        raise ValueError(f"cannot place {k} faults on a {layers}x{ports} grid")
    if mode == "spread":
        if k > layers:
            raise ValueError(f"cannot spread {k} faults over {layers} layers")
        ms = rng.choice(layers, size=k, replace=False)
        ps = rng.integers(0, ports, size=k)
        positions = list(zip(ms.tolist(), ps.tolist()))
    elif mode in ("clustered", "any"):
        if mode == "clustered" and (k < 2 or ports < 2):
            raise ValueError(f"cannot cluster {k} fault(s) on {ports} port(s): "
                             "no layer can hold two faults")
        while True:
            flat = rng.choice(layers * ports, size=k, replace=False)
            positions = [(int(f) // ports, int(f) % ports) for f in flat]
            counts = np.bincount([mm for mm, _ in positions], minlength=layers)
            if mode == "any" or counts.max() >= 2:
                break
    else:
        raise ValueError(f"unknown fault placement mode {mode!r}")
    values = rng.uniform(0.0, 2.0 * np.pi, size=k)
    # the positions are distinct, so this sorts by (layer, port)
    return sorted((mm, pp, float(v)) for (mm, pp), v in zip(positions, values))


def faulty_shifter_grid(
    k_list: Sequence[int],
    combos_per_k: int,
    targets: int,
    options: LmaOptions,
    seed: int,
    *,
    n: int,
    m: int,
    threads: int = 1,
    done: dict | None = None,
) -> list[ExperimentRecord]:
    """Best achievable loss with k shifters frozen at random values.

    For k equal to the port count, the first half of the combos places
    one fault per layer and the second half forces at least two faults
    into one layer; other k use unrestricted random placements.  Every
    fault plan is drawn before any fit runs, so an impossible placement
    fails at once.
    """
    jobs = []
    for k in k_list:
        for c in range(combos_per_k):
            rng = np.random.default_rng(derive_seed(seed, f"faulty/plan/k={k}", c))
            if k == n:
                mode = "spread" if c < (combos_per_k + 1) // 2 else "clustered"
            else:
                mode = "any"
            fault_plan = _random_fault_plan(rng, m, n, k, mode)
            plan_str = json.dumps([list(f) for f in fault_plan], separators=(",", ":"))
            label = f"faulty/k={k}/combo={c:03d}"
            program = apply_fault_plan(PhaseProgram.zeros(m, n), fault_plan)
            circuit = ideal_circuit(n, m).with_program(program)
            owed = [ExperimentRecord(
                experiment_label=label, n=n, m=m, fault_plan=plan_str, target_index=i,
                seed=derive_seed(seed, f"{label}/fit", i)) for i in range(targets)]
            jobs.append((owed, partial(_haar_fits, circuit=circuit, options=options, seeds=[
                (derive_seed(seed, f"{label}/target", i), rec.seed) for i, rec in enumerate(owed)])))
    return _run_jobs(jobs, threads, done)


def _grouped(records, key) -> list[tuple]:
    """(key, records) pairs sorted by key."""
    groups: dict = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec)
    return sorted(groups.items())


def summarize_universality(records: Iterable[ExperimentRecord]) -> list[dict]:
    """Median loss and converged fraction per (n, m)."""
    fitted = [rec for rec in records
              if rec.experiment_label == "universality" and rec.loss_after is not None]
    out = []
    for (n, m), recs in _grouped(fitted, lambda rec: (rec.n, rec.m)):
        arr = np.asarray([rec.loss_after for rec in recs])
        out.append({"n": n, "m": m, "targets": len(arr), "median_loss": float(np.median(arr)),
                    "fraction_below_1e-10": float((arr < 1e-10).mean())})
    return out


def summarize_perturbation(records: Iterable[ExperimentRecord]) -> list[dict]:
    """Ensemble means of delta_f / delta_u per sigma_k, plus their ratio."""
    measured = [rec for rec in records
                if rec.experiment_label == "perturbation-table"
                and rec.delta_f is not None and rec.delta_u is not None]
    out = []
    for sk, recs in _grouped(measured, lambda rec: rec.sigma_k):
        df = float(np.mean([rec.delta_f for rec in recs]))
        du = float(np.mean([rec.delta_u for rec in recs]))
        out.append({"sigma_k": sk, "samples": len(recs), "mean_delta_f": df,
                    "mean_delta_u": du, "ratio": du / df if df > 0 else float("nan")})
    return out


# -- the registry: what ``jxcircuit experiment <name>`` runs and reports ------


@dataclass(frozen=True)
class Study:
    """A named study as the CLI runs it.

    ``defaults`` is the full config (every key a config file may set);
    ``run(cfg, threads, done)`` returns the records of a validated config
    that are not in ``done``; ``summary`` and ``plot`` render the merged
    records as report lines and an SVG document.
    """

    defaults: dict
    run: Callable[[dict, int, dict | None], list[ExperimentRecord]]
    summary: Callable[[list[ExperimentRecord]], list[str]]
    plot: Callable[[list[ExperimentRecord]], str]


def _floored(value: float) -> float:
    return max(value, 1e-30)


def _scatter(records, series_of, point, **labels) -> str:
    """Scatter plot with one series per ``series_of(rec)``, in first-appearance order."""
    series: dict = {}
    for rec in records:
        xs, ys = series.setdefault(series_of(rec), ([], []))
        x, y = point(rec)
        xs.append(x)
        ys.append(y)
    return scatter_svg(series, **labels)


def _universality_lines(records) -> list[str]:
    return [
        f"N={row['n']} M={row['m']}: median loss {row['median_loss']:.3e}, "
        f"{row['fraction_below_1e-10']:.0%} of {row['targets']} targets below 1e-10"
        for row in summarize_universality(records)
    ]


def _table1_lines(records) -> list[str]:
    return [
        f"sigma_k={row['sigma_k']:g}: mean dF {100 * row['mean_delta_f']:.2f}%, "
        f"mean dU {100 * row['mean_delta_u']:.2f}%, "
        f"ratio {row['ratio']:.2f} ({row['samples']} samples)"
        for row in summarize_perturbation(records)
    ]


def _table1_plot(records) -> str:
    rows = summarize_perturbation(records)
    series = {
        "mean dF %": ([r["sigma_k"] for r in rows],
                      [100 * r["mean_delta_f"] for r in rows]),
        "mean dU %": ([r["sigma_k"] for r in rows],
                      [100 * r["mean_delta_u"] for r in rows]),
    }
    return scatter_svg(series, title="Mixer and end-to-end relative error",
                       xlabel="sigma_k", ylabel="percent error")


def _recalibration_lines(records) -> list[str]:
    return [
        f"sigma_k={sk:g}: {sum(r.loss_after < 1e-10 for r in recs)}/{len(recs)} "
        "recalibrated below 1e-10; "
        f"median loss_before {np.median([r.loss_before for r in recs]):.3e}"
        for sk, recs in _grouped(records, lambda r: r.sigma_k)
    ]


def _recalibration_plot(records) -> str:
    series: dict = {}
    for rec in records:
        for when, value in (("before", rec.loss_before), ("after", rec.loss_after)):
            series.setdefault(f"{when} sk={rec.sigma_k:g}", []).append(
                math.log10(_floored(value)))
    return histogram_svg(series, title="Loss before/after recalibration",
                         xlabel="log10 loss")


def _phasediff_lines(records) -> list[str]:
    return [
        f"{label}: median sigma_dx {np.median([r.sigma_dx for r in recs]):.3f} "
        f"rad over {len(recs)} runs"
        for label, recs in _grouped(records, lambda r: r.experiment_label)
    ]


def _faulty_lines(records) -> list[str]:
    lines = []
    for label, recs in _grouped(records, lambda r: r.experiment_label):
        losses = np.array([r.loss_after for r in recs])
        lines.append(f"{label}: {100 * (losses < 1e-10).mean():.0f}% below 1e-10, "
                     f"median {np.median(losses):.2e}")
    return lines


def _faulty_plot(records) -> str:
    ordinal = {label: i for i, label in
               enumerate(sorted({rec.experiment_label for rec in records}))}
    return _scatter(
        records, lambda r: r.experiment_label.split("/")[1],
        lambda r: (ordinal[r.experiment_label], _floored(r.loss_after)),
        title="Loss per faulty-shifter combination",
        xlabel="combination ordinal", ylabel="loss", ylog=True,
    )


# each run looks its study function up by module name when called, so a
# wrapper bound to that name (a tracer, a test double) sees the call
STUDIES: dict[str, Study] = {
    "universality": Study(
        defaults={"master_seed": 0, "n_list": [4], "m_list": None,
                  "targets": 100, "restarts": 100, "max_iterations": 400},
        run=lambda cfg, threads, done: universality_sweep(
            cfg["n_list"], cfg["m_list"], cfg["targets"],
            LmaOptions(restarts=cfg["restarts"], max_iterations=cfg["max_iterations"]),
            cfg["master_seed"], threads=threads, done=done),
        summary=_universality_lines,
        plot=lambda records: _scatter(
            records, lambda r: f"N={r.n}", lambda r: (r.m, _floored(r.loss_after)),
            title="Error norm vs phase-layer count",
            xlabel="phase layers M", ylabel="loss", ylog=True),
    ),
    "table1": Study(
        defaults={"master_seed": 0, "n": 8, "m": 9,
                  "sigma_k_list": [0.001, 0.003, 0.006], "samples": 100,
                  "restarts": 50},
        run=lambda cfg, threads, done: perturbation_table(
            cfg["sigma_k_list"], cfg["samples"], LmaOptions(restarts=cfg["restarts"]),
            cfg["master_seed"], n=cfg["n"], m=cfg["m"], threads=threads, done=done),
        summary=_table1_lines,
        plot=_table1_plot,
    ),
    "recalibration": Study(
        defaults={"master_seed": 0, "n": 8, "m": 9,
                  "sigma_k_list": [0.001, 0.003, 0.006], "targets": 100,
                  "attempts": 10, "truncated_iterations": 50, "restarts": 50},
        run=lambda cfg, threads, done: recalibration_histogram(
            cfg["sigma_k_list"], cfg["targets"], LmaOptions(restarts=cfg["restarts"]),
            cfg["master_seed"], n=cfg["n"], m=cfg["m"], attempts=cfg["attempts"],
            truncated_iterations=cfg["truncated_iterations"], threads=threads, done=done),
        summary=_recalibration_lines,
        plot=_recalibration_plot,
    ),
    "phasediff": Study(
        defaults={"master_seed": 0, "n": 8, "m": 9,
                  "sigma_k_list": [0.0, 0.001, 0.003, 0.006], "runs": 100,
                  "init_modes": ["jittered", "random"], "jitter_fraction": 0.1,
                  "truncated_iterations": 50, "targets": 1},
        run=lambda cfg, threads, done: phase_difference_study(
            cfg["sigma_k_list"], cfg["runs"], cfg["master_seed"],
            n=cfg["n"], m=cfg["m"], init_modes=cfg["init_modes"],
            jitter_fraction=cfg["jitter_fraction"],
            truncated_iterations=cfg["truncated_iterations"],
            targets=cfg["targets"], threads=threads, done=done),
        summary=_phasediff_lines,
        plot=lambda records: _scatter(
            records, lambda r: r.experiment_label.split("init=", 1)[-1],
            lambda r: (r.mu_dx, r.sigma_dx),
            title="Recovered-vs-given phase difference",
            xlabel="mean of difference vector", ylabel="std of difference vector"),
    ),
    "faulty": Study(
        defaults={"master_seed": 0, "n": 4, "m": 5,
                  "k_list": [1, 2, 3, 4], "combos_per_k": 10, "targets": 100,
                  "restarts": 50},
        run=lambda cfg, threads, done: faulty_shifter_grid(
            cfg["k_list"], cfg["combos_per_k"], cfg["targets"],
            LmaOptions(restarts=cfg["restarts"]), cfg["master_seed"],
            n=cfg["n"], m=cfg["m"], threads=threads, done=done),
        summary=_faulty_lines,
        plot=_faulty_plot,
    ),
}
