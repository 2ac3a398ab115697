"""Command-line interface.

Subcommands: ``haar`` (sample target unitaries), ``decompose`` (fit the
phases of an interlaced circuit to a target), ``apply`` (compose a phase
file into a matrix, optionally with perturbed mixers), ``calibrate``
(second optimization against perturbed mixers) and ``experiment`` (run a
named study and emit CSV records, JSON metadata and an SVG plot).

Exit codes: 0 success/converged, 1 non-convergence, 2 usage or I/O error.
``main`` returns every exit code, also after ``--help``, ``--version`` or a
flag the parser refuses, and never raises.  Every numeric output is
deterministic under a fixed ``--seed`` (the informational ``wall_time``
record column excepted).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from . import __version__
from .circuit import compose, ideal_circuit, loss, perturbed_circuit
from .config import check_values, load_config
from .experiments import STUDIES, record_key, record_sort_key
from .fileio import (
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
from .numerics import unitarity_defect
from .optimizer import LmaOptions, fit
from .sampling import derive_seed, haar_unitary

#: decompose warns about targets whose unitarity defect exceeds this
UNITARY_WARN_TOLERANCE = 1e-8
#: ... and refuses them beyond this
UNITARY_ERROR_TOLERANCE = 1e-6


def _ranged(kind, ok, rule: str):
    """An argparse ``type`` that parses ``kind`` and refuses a value unless ``ok``."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    convert.__name__ = kind.__name__  # a non-number reads "invalid int value: ..."
    return convert


_count = _ranged(int, lambda v: v >= 1, ">= 1")
_sigma_k = _ranged(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_target_loss = _ranged(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_out_file = _ranged(Path, lambda v: v.parent.is_dir() and not v.is_dir(),
                    "a file in an existing directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jxcircuit",
        description="Interlaced mixing/phase-layer unitary circuits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("haar", help="sample Haar-random target unitaries")
    p.set_defaults(handler=_cmd_haar)
    p.add_argument("--ports", type=_count, required=True, metavar="N")
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--out", type=_out_file, help="output file (count must be 1)")
    out.add_argument("--out-dir", type=Path, default=Path("."),
                     help="output directory for numbered files")

    p = sub.add_parser("decompose", help="fit circuit phases to a target unitary")
    p.set_defaults(handler=_cmd_decompose)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--layers", type=_count, required=True, metavar="M")
    p.add_argument("--ports", type=_count, help="cross-check against the target file")
    p.add_argument("--restarts", type=_count, default=100)
    p.add_argument("--max-iterations", type=_count, default=400)
    p.add_argument("--target-loss", type=_target_loss, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_out_file, default="phases.json")

    p = sub.add_parser("apply", help="compose a phase file into a transfer matrix")
    p.set_defaults(handler=_cmd_apply)
    p.add_argument("--phases", type=Path, required=True)
    p.add_argument("--sigma-k", type=_sigma_k, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_out_file, default="matrix.json")

    p = sub.add_parser("calibrate", help="re-optimize phases against perturbed mixers")
    p.set_defaults(handler=_cmd_calibrate)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--phases", type=Path, required=True)
    p.add_argument("--sigma-k", type=_sigma_k, required=True)
    p.add_argument("--attempts", type=_count, default=10)
    p.add_argument("--iterations", type=_count, default=50,
                   help="iteration cap per attempt (truncated descent)")
    p.add_argument("--target-loss", type=_target_loss, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_out_file, default="phases_calibrated.json")

    p = sub.add_parser("experiment", help="run a named study")
    p.set_defaults(handler=_cmd_experiment)
    p.add_argument("name", choices=list(STUDIES))
    p.add_argument("--config", type=Path, help="flat key = value config file")
    p.add_argument("--out-dir", type=Path, default=Path("results"))
    p.add_argument("--seed", type=int, help="overrides master_seed from the config")
    p.add_argument("--threads", type=_count, default=1,
                   help="worker processes (default: 1, every fit in this process)")
    p.add_argument("--resume", action="store_true",
                   help="skip units of work already present in the output CSV "
                        "(refused unless its metadata matches this run)")
    # argparse (Python 3.10 to 3.13) takes -1e-10 for an option; read it as a number
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def _cmd_haar(args) -> int:
    if args.out is not None and args.count != 1:
        raise ValueError("--out requires --count 1 (use --out-dir for sets)")
    if args.out is not None:
        paths = [args.out]
    else:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        paths = [
            args.out_dir / f"haar_n{args.ports}_{i:04d}.json" for i in range(args.count)
        ]
    for i, path in enumerate(paths):
        u = haar_unitary(args.ports, derive_seed(args.seed, "haar", i))
        write_matrix(path, u)
    print(f"wrote {len(paths)} unitary matrix file(s) (N={args.ports}, seed={args.seed})")
    return 0


def _read_target(path: Path):
    """The target matrix in ``path``, refused beyond the error tolerance of
    unitarity and warned about beyond the warning one."""
    target = read_matrix(path)
    defect = unitarity_defect(target)
    if not defect <= UNITARY_ERROR_TOLERANCE:  # a NaN defect too
        raise ValueError(f"target is not unitary: ||U†U - I||_F = {defect:.3e} "
                         f"exceeds {UNITARY_ERROR_TOLERANCE:.0e}")
    if defect > UNITARY_WARN_TOLERANCE:
        print(f"warning: target deviates from unitarity (||U†U - I||_F = {defect:.3e}); "
              "fitting the raw matrix -- consider projecting onto the nearest unitary "
              "(polar/Procrustes) first", file=sys.stderr)
    return target


def _cmd_decompose(args) -> int:
    target = _read_target(args.target)
    n = target.shape[0]
    if args.ports is not None and args.ports != n:
        raise ValueError(f"--ports {args.ports} does not match target size {n}")
    options = LmaOptions(max_iterations=args.max_iterations, restarts=args.restarts,
                         target_loss=args.target_loss)
    result = fit(ideal_circuit(n, args.layers), target, options, seed=args.seed)
    write_phases(args.out, result.phases)
    print(
        f"loss {result.loss:.6e} after {result.restarts_used} restart(s), "
        f"{result.iterations} iteration(s), stopped by {result.status}; "
        f"phases -> {args.out}"
    )
    print(_fit_totals(result))
    return 0 if result.converged else 1


def _fit_totals(result) -> str:
    return (f"fit: {result.total_iterations} iteration(s) and {result.rejected_trials} "
            f"rejected trial(s) over {result.restarts_used} restart(s)")


def _cmd_apply(args) -> int:
    program = read_phases(args.phases)
    circuit = perturbed_circuit(program.ports, program.layers, args.sigma_k,
                                args.seed).with_program(program)
    u = compose(circuit)
    write_matrix(args.out, u)
    print(f"transfer matrix ({program.ports} ports, {program.layers} layers) -> {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    target = _read_target(args.target)
    program = read_phases(args.phases)
    if target.shape[0] != program.ports:
        raise ValueError(
            f"target size {target.shape[0]} does not match phase file ports "
            f"{program.ports}"
        )
    circuit = perturbed_circuit(program.ports, program.layers, args.sigma_k,
                                args.seed).with_program(program)
    loss_before = loss(compose(circuit), target)
    if loss_before < args.target_loss:
        corrected, loss_after, totals = program, loss_before, "no fit: already on target"
    else:
        options = LmaOptions(max_iterations=args.iterations, restarts=args.attempts,
                             target_loss=args.target_loss)
        result = fit(circuit, target, options,
                     seed=derive_seed(args.seed, "calibrate", 0))
        corrected, loss_after, totals = result.phases, result.loss, _fit_totals(result)
    write_phases(args.out, corrected)
    print(f"loss_before {loss_before:.6e}")
    print(f"loss_after  {loss_after:.6e}")
    print(totals)
    print(f"corrected phases -> {args.out}")
    return 0 if loss_after < args.target_loss else 1


def _experiment_config(name: str, args) -> dict:
    cfg = dict(STUDIES[name].defaults)
    if args.config is not None:
        overrides = load_config(args.config)
        check_values(overrides, cfg, f"{args.config}: experiment {name!r}")
        cfg.update(overrides)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    return cfg


def _check_resumable(meta_path: Path, cfg: dict) -> None:
    """Refuse to extend records that another seed or parameter set produced
    (a missing metadata file is an OSError: nothing to match them against)."""
    meta = read_metadata(meta_path)
    if meta.get("master_seed") != cfg["master_seed"] or meta.get("parameters") != cfg:
        raise ValueError(f"--resume: {meta_path} records a different master seed "
                         "or parameters than this run; use a fresh --out-dir")


def _cmd_experiment(args) -> int:
    study = STUDIES[args.name]
    cfg = _experiment_config(args.name, args)
    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.name}_records.csv"
    meta_path = out_dir / f"{args.name}_metadata.json"
    done = None
    existing = []
    if args.resume and csv_path.exists():
        _check_resumable(meta_path, cfg)
        existing, done = read_records(csv_path), {}
        for rec in existing:  # the runner refuses a row that no job owes
            values = [(name, getattr(rec, name)) for name in study.measured]
            unmeasured = [f"with no {name}" if value is None else f"with {name} = {value}"
                          for name, value in values if value is None or not math.isfinite(value)]
            if unmeasured or record_key(rec) in done:
                raise ValueError(f"--resume: {csv_path} holds a row {record_key(rec)} "
                                 + (unmeasured[0] if unmeasured else "twice"))
            done[record_key(rec)] = rec.seed
        print(f"resuming: {len(existing)} record(s) already present")
    records = study.run(cfg, args.threads, done)
    merged = sorted(existing + records, key=record_sort_key)
    write_records(csv_path, merged)
    write_metadata(meta_path, args.name, cfg["master_seed"], cfg)
    svg_path = out_dir / f"{args.name}.svg"
    write_text(svg_path, study.plot(merged))
    print(f"{len(merged)} record(s) -> {csv_path}")
    print(f"metadata -> {meta_path}")
    print(f"plot -> {svg_path}")
    for line in study.summary(merged):
        print(line)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help/--version
        return exc.code
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
