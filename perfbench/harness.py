"""The benchmark harness behind ``run.py``: set-up, rounds, checks and metrics.

See ``run.py`` for the command line and README.md for the metrics.
"""

import argparse
import gc
import hashlib
import importlib
import json
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import machine
from tracing import Tracer, self_times
from workloads import CONVERGED, WORKLOADS, records_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-ups per run; setup_s is their median
SETUPS = 9
#: rounds with at least this many fits each give their own tail, and the
#: median over rounds is reported; smaller rounds are pooled for one tail
TAIL_FITS = 50
#: traced rounds kept in memory at most, which bounds the span buffers
MAX_TRACED = 3
#: no round starts after this many seconds of a run (nor after 1.5 x --seconds)
MAX_RUN_S = 120.0

#: (name, unit, better, bound) of the end-to-end metrics, measured untraced
END_TO_END = [
    ("study_s", "s", "lower", 0.25),
    ("fits_per_s", "1/s", "higher", 0.25),
    ("fit_p50_ms", "ms", "lower", 0.25),
    ("fit_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("converged_frac", "ratio", "higher", 0.2),
]
#: seconds one probe sample takes at reference speed, counted in a round's budget
PROBE_S = machine.SpeedProbe.REFERENCE_S
#: end-to-end metrics that are times (scaled by the probe factor) and the rate
TIMES = ("study_s", "fit_p50_ms", "fit_tail_ms", "setup_s")
RATE = "fits_per_s"
#: reported with the others but left out of the result: it is 0 on a good run
#: and its count already is the result's "failed" over "attempted"
FIT_FAIL_FRAC = ("fit_fail_frac", "ratio", "lower")

STUDIES = ("universality_sweep", "perturbation_table", "recalibration_histogram",
           "phase_difference_study", "faulty_shifter_grid")

#: (name, unit, better) of the per-layer metrics, from the traced rounds
PER_LAYER = [
    ("optimizer.fit.calls", "count", "lower"),
    ("optimizer.fit.self_s", "s", "lower"),
    ("optimizer.restarts_per_fit", "restarts/fit", "lower"),
    ("optimizer.iterations_per_fit", "iters/fit", "lower"),
    ("optimizer.solves_per_iteration", "solves/iter", "lower"),
    ("optimizer.evals_per_iteration", "evals/iter", "lower"),
    ("optimizer.useful_descent_ratio", "ratio", "higher"),
    ("circuit.transfer_matrix.calls", "count", "lower"),
    ("circuit.transfer_matrix.self_s", "s", "lower"),
    ("circuit.transfer_matrix.gflops_computed", "GFLOP/s", "higher"),
    ("circuit.residuals_and_jacobian.calls", "count", "lower"),
    ("circuit.residuals_and_jacobian.self_s", "s", "lower"),
    ("circuit.residuals_and_jacobian.gflops_computed", "GFLOP/s", "higher"),
    ("circuit.residual_vector.calls", "count", "lower"),
    ("circuit.residual_vector.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.solve.gflops_computed", "GFLOP/s", "higher"),
    ("lattice.perturbed_mixer.calls", "count", "lower"),
    ("lattice.perturbed_mixer.self_s", "s", "lower"),
    ("sampling.haar_unitary.calls", "count", "lower"),
    ("sampling.haar_unitary.self_s", "s", "lower"),
    ("sampling.derive_seed.calls", "count", "lower"),
    ("sampling.derive_seed.self_s", "s", "lower"),
    ("sampling.uniform_phases.calls", "count", "lower"),
    ("sampling.uniform_phases.self_s", "s", "lower"),
    ("experiments.study.self_s", "s", "lower"),
    ("experiments.cpu_per_wall", "ratio", "higher"),
    ("fileio.write_records.self_s", "s", "lower"),
    ("fileio.write_metadata.self_s", "s", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("svgplot.scatter_svg.self_s", "s", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Run one jxcircuit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every round to a few fits (the harness's own tests)")
    return parser.parse_args(argv)


def import_jxcircuit() -> dict:
    """Fresh import of every jxcircuit module from ``src/``, by module name."""
    for name in [n for n in sys.modules if n.split(".")[0] == "jxcircuit"]:
        del sys.modules[name]
    package = importlib.import_module("jxcircuit")
    if Path(package.__file__).resolve().parent != (SRC / "jxcircuit").resolve():
        raise ImportError(f"jxcircuit was imported from {package.__file__}, not {SRC}")
    modules = {"jxcircuit": package}
    for info in pkgutil.iter_modules(package.__path__):
        name = f"jxcircuit.{info.name}"
        modules[name] = importlib.import_module(name)
    return modules


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "jxcircuit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Records digest of every (code, workload, seed, round) seen in this checkout."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, seed: int, index: int, digest: str) -> str | None:
        key = f"{self.key}/seed={seed}/round={index}"
        seen = self.known.setdefault(key, digest)
        if seen != digest:
            return f"round {index}: records digest {digest[:12]} differs from {seen[:12]} " \
                   "of an earlier run of the same code and seed"
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        tmp.replace(self.path)


def tail(samples):
    """Highest sample with at least ten samples above it, and its percentile."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def converged_count(rounds) -> int:
    return sum(r.loss_after is not None and r.loss_after < CONVERGED
               for rnd in rounds for r in rnd.records)


def end_to_end(rounds, setup_s) -> tuple[dict, str]:
    """End-to-end metrics as measured, and which tail ``fit_tail_ms`` is.

    Timings of a round are medians over the rounds.
    """
    walls = [r.wall_time for rnd in rounds for r in rnd.records]
    groups = [[r.wall_time for r in rnd.records] for rnd in rounds]
    if len(groups[0]) < TAIL_FITS:
        groups = [walls]
    tails = [tail(group) for group in groups]
    label = f"p{tails[0][1]:.1f} of {len(groups[0])} fits"
    if len(groups) > 1:
        label += f", median over {len(groups)} rounds"
    return {
        "study_s": statistics.median(rnd.study_s for rnd in rounds),
        "fits_per_s": statistics.median(len(rnd.records) / rnd.study_s for rnd in rounds),
        "fit_p50_ms": 1e3 * statistics.median(walls),
        "fit_tail_ms": 1e3 * statistics.median(value for value, _ in tails),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_frac": converged_count(rounds) / len(walls),
        FIT_FAIL_FRAC[0]: sum(rnd.failed for rnd in rounds)
        / sum(rnd.expected for rnd in rounds),
    }, label


def _ratio(a, b):
    return a / b if b else 0.0


def layer_totals(spans) -> dict:
    """Span name -> (calls, self time, work) summed over every span of that name."""
    selfs = self_times(spans)
    names = spans["names"]
    calls = np.bincount(spans["name"], minlength=len(names))
    busy = np.bincount(spans["name"], weights=selfs, minlength=len(names))
    work = np.bincount(spans["name"], weights=spans["work"], minlength=len(names))
    return {name: (calls[i], busy[i], work[i]) for i, name in enumerate(names)}


def per_layer(totals, traced, plain) -> dict:
    """Per-layer metrics per traced round (every traced round runs the same input)."""

    def stat(name):
        return [x / len(traced) for x in totals.get(name, (0.0, 0.0, 0.0))]

    out = {}
    for name, unit, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        calls, busy, work = stat(layer)
        out[name] = {"calls": calls, "self_s": busy,
                     "gflops_computed": _ratio(work, busy) / 1e9}.get(kind)
    fits, _, restarts = stat("optimizer.fit")
    iterations = stat("circuit.residuals_and_jacobian")[0]
    out["optimizer.restarts_per_fit"] = _ratio(restarts, fits)
    out["optimizer.iterations_per_fit"] = _ratio(iterations, fits)
    out["optimizer.solves_per_iteration"] = _ratio(stat("linalg.solve")[0], iterations)
    out["optimizer.evals_per_iteration"] = _ratio(
        stat("circuit.transfer_matrix")[0], iterations)
    out["optimizer.useful_descent_ratio"] = _ratio(
        converged_count(traced) / len(traced), restarts)
    out["experiments.study.self_s"] = sum(stat(f"experiments.{s}")[1] for s in STUDIES)
    out["experiments.cpu_per_wall"] = statistics.median(r.cpu_s / r.study_s for r in plain)
    out["fileio.bytes_written"] = (stat("fileio.write_records")[2]
                                   + stat("fileio.write_metadata")[2])
    out["trace.overhead_frac"] = (statistics.median(r.study_s for r in traced)
                                  / statistics.median(r.study_s for r in plain) - 1.0)
    return out


def round_count(workload, args) -> int:
    """Rounds (plain and traced pairs with --trace 1) that take about --seconds."""
    if args.trace:
        return max(1, min(MAX_TRACED, int(args.seconds // (2 * workload.round_s))))
    return max(1, int(args.seconds // (workload.round_s + PROBE_S)))


def traced_round(tracer, modules, run_round):
    tracer.install(list(modules.values()))
    try:
        return run_round(0)
    finally:
        tracer.uninstall()


def report(values, specs, notes=None) -> dict:
    metrics = {}
    for name, unit, *_ in specs:
        metrics[name] = {"value": values[name], "unit": unit}
        note = f" ({notes[name]})" if notes and name in notes else ""
        print(f"metric {name} {values[name]:.6g} {unit}{note}")
    return metrics


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    if workload.threads > machine.nproc():
        print(f"error: {workload.name} runs {workload.threads} threads but only "
              f"{machine.nproc()} CPU(s) are available", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    durations = []
    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            modules = import_jxcircuit()
            run_round = workload.prepare(modules, args.seed, OUT / workload.name, args.smoke)
            durations.append(time.perf_counter() - t0)
    except ImportError as exc:
        print(f"error: cannot import jxcircuit from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = machine.describe(ROOT, source=source_hash(), workload=workload.name,
                           seed=args.seed, seconds=args.seconds, trace=args.trace,
                           smoke=args.smoke)
    print("env " + json.dumps(env), flush=True)
    # the key names the code and every input, so only like runs are compared
    inputs = hashlib.sha256(repr((workload, args.smoke)).encode()).hexdigest()[:16]
    digests = DigestStore(OUT / "digests.json", f"{env['source']}/{workload.name}/{inputs}")

    problems, plain, traced = [], [], []
    tracer = Tracer()
    # on a much slower machine (or in a slow spell) a run starts no more
    # rounds after this, so it stays within about 1.5 x --seconds
    deadline = min(MAX_RUN_S, 1.5 * args.seconds)
    probe = machine.SpeedProbe()
    start = time.perf_counter()
    if not args.trace:
        probe.sample()
    for k in range(round_count(workload, args)):
        gc.collect()
        if args.trace:
            # every pair runs round 0, so counts repeat exactly and the
            # tracing overhead compares like with like
            plain.append(run_round(0))
            gc.collect()
            traced.append(traced_round(tracer, modules, run_round))
            batch = [(0, plain[-1]), (0, traced[-1])]
        else:
            plain.append(run_round(k))
            probe.sample()
            batch = [(k, plain[-1])]
        for index, rnd in batch:
            problems += [f"round {index}: {p}" for p in rnd.problems]
            if rnd.records:
                problem = digests.check(args.seed, index, records_digest(rnd.records))
                problems += [problem] if problem else []
        if problems or time.perf_counter() - start > deadline:
            break
    digests.save()

    rounds = plain + traced
    attempted = sum(rnd.expected for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    print(f"records_digest round 0 {records_digest(rounds[0].records)}")
    for problem in problems:
        print(f"check FAILED {problem}")
    correct = not problems
    print(f"checks {'passed' if correct else 'FAILED'}: {len(rounds)} round(s), "
          f"{attempted} fits attempted, {failed} failed")

    metrics = {}
    if args.trace:
        spans = tracer.spans()
        np.savez(OUT / f"spans-{workload.name}.npz",
                 **{k: v for k, v in spans.items() if k != "names"},
                 names=np.array(spans["names"]))
    if correct and args.trace:
        totals = layer_totals(spans)
        busy = sum(t[1] for t in totals.values())
        for name, (_, self_s, _) in sorted(totals.items(), key=lambda t: -t[1][1])[:12]:
            print(f"self-time share {name} {100 * self_s / busy:.1f}%")
        metrics = report(per_layer(totals, traced, plain), PER_LAYER)
    elif correct:
        measured, tail_label = end_to_end(plain, statistics.median(durations))
        factor = probe.factor()
        print(f"speed probe: median {statistics.median(probe.samples):.4f} s over "
              f"{len(probe.samples)} samples; times below are scaled by {factor:.4f} "
              f"to the reference speed ({machine.SpeedProbe.REFERENCE_S} s per probe)")
        values = dict(measured)
        values[RATE] = measured[RATE] / factor
        notes = {RATE: f"measured {measured[RATE]:.6g}"}
        for name in TIMES:
            values[name] = measured[name] * factor
            notes[name] = f"measured {measured[name]:.6g}"
        notes["fit_tail_ms"] += f"; {tail_label}"
        metrics = report(values, END_TO_END, notes)
        report(values, [FIT_FAIL_FRAC])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    return run(parse_args(argv))
