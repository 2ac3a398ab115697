"""The benchmark's workloads: inputs, the timed call and the output checks.

A run is a sequence of rounds.  Round ``r`` of a workload is one call of a
public jxcircuit entry point on inputs derived from (seed, workload, r), so
every round of one seed is reproducible on its own and its records digest
can be compared across runs.  ``round_s`` is how long one round took on
the reference machine (see README.md); it sets how many rounds fit in a
run of ``--seconds``, so a run's work depends only on the seed and that.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: loss below which a fit counts as converged (the package's target loss)
CONVERGED = 1e-10
#: share of the fits that must converge where convergence is required
REQUIRED_FRACTION = 0.95


@dataclass
class Round:
    """Outcome of one round: records, timings and what the checks found."""

    records: list
    study_s: float
    cpu_s: float
    expected: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def round_seed(seed: int, workload: str, index: int) -> int:
    """Master seed of round ``index``, derived inside the benchmark."""
    payload = f"{seed}|{workload}|{index}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")


def records_digest(records) -> str:
    """sha256 of the records in order, ``wall_time`` left out."""
    h = hashlib.sha256()
    for rec in records:
        row = dataclasses.asdict(rec)
        row.pop("wall_time")
        h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _timed(call):
    t0, c0 = time.perf_counter(), time.process_time()
    value = call()
    return value, time.perf_counter() - t0, time.process_time() - c0


def _raised(exc: Exception, expected: int) -> Round:
    traceback.print_exc(file=sys.stderr)
    return Round([], math.nan, math.nan, expected, expected, [repr(exc)])


@dataclass(frozen=True)
class UniversalitySweep:
    """``universality_sweep`` over one N, serially, ``targets`` Haar targets per round."""

    name: str
    why: str
    n: int
    m_values: tuple[int, ...]
    targets: int
    smoke_targets: int
    options: dict
    round_s: float
    threads: int = 1

    def prepare(self, modules: dict, seed: int, out_dir: Path, smoke: bool):
        jx = modules["jxcircuit"]
        options = jx.LmaOptions(**self.options)
        targets = self.smoke_targets if smoke else self.targets
        expected = targets * len(self.m_values)

        def run_round(index: int) -> Round:
            master = round_seed(seed, self.name, index)
            try:
                records, wall, cpu = _timed(lambda: jx.universality_sweep(
                    [self.n], list(self.m_values), targets, options, master))
            except Exception as exc:  # a raised fit fails the whole round
                return _raised(exc, expected)
            return self.check(Round(records, wall, cpu, expected))

        return run_round

    def check(self, rnd: Round) -> Round:
        """M <= N never converges; M > N must, for at least 95% of its fits."""
        if len(rnd.records) != rnd.expected:
            rnd.problems.append(f"{len(rnd.records)} records, expected {rnd.expected}")
        for m in self.m_values:
            losses = [r.loss_after for r in rnd.records if r.m == m]
            converged = sum(_finite(x) and x < CONVERGED for x in losses)
            if m <= self.n and converged:
                rnd.problems.append(f"M={m}: {converged} fit(s) below {CONVERGED:g}")
            if m > self.n:
                rnd.failed += len(losses) - converged
                if converged < REQUIRED_FRACTION * len(losses):
                    rnd.problems.append(f"M={m}: only {converged}/{len(losses)} converged")
            else:
                rnd.failed += sum(not _finite(x) for x in losses)
        return rnd


@dataclass(frozen=True)
class CliPhasediff:
    """``jxcircuit experiment phasediff`` through ``cli.main`` with a thread pool."""

    name: str
    why: str
    runs: int
    smoke_runs: int
    sigma_k_list: tuple[float, ...]
    init_modes: tuple[str, ...]
    threads: int
    round_s: float

    def prepare(self, modules: dict, seed: int, out_dir: Path, smoke: bool):
        cli, fileio = modules["jxcircuit.cli"], modules["jxcircuit.fileio"]
        runs = self.smoke_runs if smoke else self.runs
        expected = runs * len(self.sigma_k_list) * len(self.init_modes)
        out_dir.mkdir(parents=True, exist_ok=True)
        config = out_dir / "phasediff.toml"
        config.write_text(
            f"runs = {runs}\n"
            f"sigma_k_list = {json.dumps(list(self.sigma_k_list))}\n"
            f"init_modes = {json.dumps(list(self.init_modes))}\n"
        )
        outputs = [out_dir / name for name in (
            "phasediff_records.csv", "phasediff_metadata.json", "phasediff.svg")]

        def run_round(index: int) -> Round:
            for path in outputs:
                path.unlink(missing_ok=True)
            argv = ["experiment", "phasediff", "--config", str(config),
                    "--out-dir", str(out_dir), "--threads", str(self.threads),
                    "--seed", str(round_seed(seed, self.name, index))]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code, wall, cpu = _timed(lambda: cli.main(argv))
            except Exception as exc:
                return _raised(exc, expected)
            if code != 0 or not outputs[0].exists():
                return Round([], wall, cpu, expected, expected, [f"exit code {code}"])
            rnd = Round(fileio.read_records(outputs[0]), wall, cpu, expected)
            return self.check(rnd, outputs)

        return run_round

    def check(self, rnd: Round, outputs) -> Round:
        """Record count, output files, finite losses, jittered inits land nearer."""
        if len(rnd.records) != rnd.expected:
            rnd.problems.append(f"{len(rnd.records)} records, expected {rnd.expected}")
        rnd.problems += [f"missing {p.name}" for p in outputs if not p.exists()]
        rnd.failed = sum(not _finite(r.loss_after) for r in rnd.records)
        spread = {
            mode: statistics.median(
                r.sigma_dx for r in rnd.records if r.experiment_label.endswith(mode))
            for mode in ("jittered", "random")
        }
        if not spread["jittered"] < spread["random"]:
            rnd.problems.append(f"median sigma_dx not lower for jittered inits: {spread}")
        return rnd


WORKLOADS = {
    w.name: w
    for w in (
        UniversalitySweep(
            name="univ-n4",
            why="restart-bound N=4: fits below the transition use every restart on "
                "4x4 matrices, so per-call overhead dominates",
            n=4, m_values=(3, 4, 6), targets=30, smoke_targets=2,
            options={"restarts": 5, "max_iterations": 40}, round_s=3.75,
        ),
        UniversalitySweep(
            name="univ-n16",
            why="solve-bound N=16: 288 free phases, so the damped O(P^3) solve "
                "dominates and per-call overhead is small",
            n=16, m_values=(18,), targets=8, smoke_targets=1,
            options={"restarts": 20}, round_s=3.1,
        ),
        CliPhasediff(
            name="cli-phasediff",
            why="threaded CLI study at N=8: truncated descents on two pool threads "
                "plus config, CSV, metadata and SVG I/O",
            runs=8, smoke_runs=1,
            sigma_k_list=(0.0, 0.001, 0.003, 0.006),
            init_modes=("jittered", "random"),
            threads=2, round_s=4.7,
        ),
    )
}
