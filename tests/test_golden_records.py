"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64) from jxcircuit 0.4.0, the first version to solve each damping
trial from one Cholesky factorization (``"damped_solve": "dpotrf"`` in the
metadata), once the full acceptance suite had passed on it; they are the
same with one BLAS thread and with OpenBLAS's default threading.
Another numpy or BLAS build may round the last bits differently;
``python tests/test_golden_records.py`` prints the digests of the code it
imports, laid out as ``GOLDEN`` and ``CLI_GOLDEN``, to compare against or
to re-pin from a trusted revision.
"""

import csv
import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from jxcircuit import experiments
from jxcircuit.cli import main
from jxcircuit.experiments import (
    faulty_shifter_grid,
    perturbation_table,
    phase_difference_study,
    recalibration_histogram,
    record_key,
    record_sort_key,
    universality_sweep,
)
from jxcircuit.optimizer import LmaOptions

STUDIES = {
    "universality": lambda **kw: universality_sweep(
        [2, 3], [2, 3, 4], 3, LmaOptions(restarts=3, max_iterations=60), 7, **kw),
    "table1": lambda **kw: perturbation_table(
        [0.0, 0.003], 3, LmaOptions(restarts=5), 8, n=3, m=4, **kw),
    "recalibration": lambda **kw: recalibration_histogram(
        [0.002, 0.005], 3, LmaOptions(restarts=5), 9, n=3, m=4, attempts=3,
        truncated_iterations=30, **kw),
    "phasediff": lambda **kw: phase_difference_study(
        [0.0, 0.004], 3, None, 10, n=3, m=4, truncated_iterations=20, targets=2,
        **kw),
    "faulty": lambda **kw: faulty_shifter_grid(
        [1, 3], 2, 2, LmaOptions(restarts=4), 11, n=3, m=4, **kw),
    # the sizes the benchmark runs, where whole-iteration paths such as the
    # stacked probe pass see more than a handful of parameters
    "universality-n4": lambda **kw: universality_sweep(
        [4], [3, 4, 6], 3, LmaOptions(restarts=3, max_iterations=40), 21, **kw),
    "phasediff-n8": lambda **kw: phase_difference_study(
        [0.0, 0.003], 2, None, 22, n=8, m=9, truncated_iterations=50, **kw),
    "faulty-n4": lambda **kw: faulty_shifter_grid(
        [1, 4], 2, 1, LmaOptions(restarts=4), 23, n=4, m=5, **kw),
}

CLI_CONFIGS = {
    "universality": "n_list = [2]\nm_list = [2, 3]\ntargets = 2\nrestarts = 3\n"
                    "max_iterations = 60\n",
    "table1": "n = 2\nm = 3\nsigma_k_list = [0.003]\nsamples = 2\nrestarts = 5\n",
    "recalibration": "n = 2\nm = 3\nsigma_k_list = [0.005]\ntargets = 2\n"
                     "restarts = 5\nattempts = 3\ntruncated_iterations = 30\n",
    "phasediff": "n = 2\nm = 3\nsigma_k_list = [0.0, 0.002]\nruns = 2\n"
                 "truncated_iterations = 20\n",
    "faulty": "n = 2\nm = 3\nk_list = [1, 2]\ncombos_per_k = 2\ntargets = 2\n"
              "restarts = 4\n",
}

#: study -> (record count, digest of all records, digest of the resumed half)
GOLDEN = {
    "universality": (
        18,
        "f9d161b3ac4804b7dc7d1c9c8962aa977a0208668a8578d3fbd9338840f53756",
        "14356278777d4caae664fb99534d76f2168f376ac918b5be77f5aba4080354e2",
    ),
    "table1": (
        6,
        "0f68f81f7b108ad4d112149b0df378fcf7eb2d64dce3369c07c50a6224d51c4e",
        "d681ca4a31155f5549f6e33fcae460ce4a9fbf04b6e261958868f4c9f1bf4fbc",
    ),
    "recalibration": (
        6,
        "63dc11dddd565a65018a28cb61f218a15e956ee02383ffdae77f968c3cd79054",
        "dc2682ffabc9269eb3c20b255d57f681bfb057781b292e4221e5d148441d9b26",
    ),
    "phasediff": (
        24,
        "bd9d263d770fe1dfbe8972bda80b44e8568d16147b8ae6ce5505f1c629b8646f",
        "e5270a18536cadeb4d4a9894d67b79556ec618f580773adbf40c31492f4fbceb",
    ),
    "faulty": (
        8,
        "75fcfde09217b46a0808abe1d00e47a36f75d2c8ddd4e660b41a406eefe4e5ed",
        "2e3f42c715346f13029bf4ee5215c7266918a9551daaf2604de9dfce55917932",
    ),
    "universality-n4": (
        9,
        "12fff8b31de4b68e92517aa49d87d20b88dfca7bd494d93494d0a64b1b9e27b6",
        "a88ed2643851eafca2a5969b6fe4db4c984b1f6aa9ac3a9b412aa2f157da7612",
    ),
    "phasediff-n8": (
        8,
        "3d868f4da13b493929386ee7a50806d87b257f2440442d470b66c77af8a558d6",
        "bb17871b830925e28009fcec16c287ee20d57f8bdedf635a1741d90878b577e3",
    ),
    "faulty-n4": (
        4,
        "875bb4498fa1181d0e6edf95874859f3c030d7b2f62f372514915617fa89b5fa",
        "46de159d10bbb86930672fcfb5245106279edc831563fad60433d2c1f26fd985",
    ),
}

#: study -> digests of (CSV without wall_time, metadata without versions, SVG, stdout)
CLI_GOLDEN = {
    "universality": (
        "2794c62275d2a9cfdd2b1d3115f70e1dc3918efb1c256c283e6f67e6002eab9c",
        "72b5223981ac26b1bed90d3cdc8584c7fc3e9ff84a71200d9406aee2a53e5db6",
        "5cb776ad2ac0b7eeb68a7695ae7051b560d3ad5505db27beb44738e1810b7d29",
        "1f2e36d0ad9202af8aa956cc866759c36cb22529a03b211401a38fb39f31087f",
    ),
    "table1": (
        "bdc2d75374c1979ae21f25dc7e52a1bd03d5069e16f780eabf00a5c1743e889c",
        "8337850ed42a00c0b353720fca6135214e43129d3d8ef61e8ea673f12a58d43c",
        "f066b355017a9a92cb5faf1e0b4fcbf6f01ef5cb0b90baa650aa5720fff3fcf4",
        "f60032277eb85eaee25a6d779436692030d8702e14ee9c06cde3a4f8057bdbdc",
    ),
    "recalibration": (
        "9351ca3edd7a89b3594725d1d38b1f98050e332bccf1a45e189735358878c0aa",
        "dc01673d033356d541315feaf6935781901c9bd7e272a6a9d8ab2c5f39fd5e09",
        "3487466aca738e67a462ae0c4b7015dc875ce1a5877c61a33909f773be4ec16a",
        "8069b2832ed0fb245706e58f721ae894170ffe546b72383538cede51e2dfb173",
    ),
    "phasediff": (
        "e8983ebcd3c86be530f428f46487c4319b5c80a596b0bb5d3b2372bb8c10d855",
        "4723d4381680c9447a010118345f22ab73759e6722154b8bd7dc521287eae1d4",
        "f7b4aa86ac13ff7bf931547573031c467eaa74151b81ac8624efad46520fd616",
        "d17151012e4c3935d2df2e6db773405fc22a1d9a569160dc9b023475c03ecad4",
    ),
    "faulty": (
        "2782d8ce2b8e7a9d947de11b086510ec34f57d5d03c4f8b2a723475d636a1730",
        "6e663e21449bca3ec5dceffd5fdad03c0f131d1215776b5bdee37301d2d4f395",
        "3ed075adbb29a01b16880a91739508d9fdc1c9fdf833e2d985c9b642ed9e732c",
        "fc6ebf80e29e88178539c4db0b9f51f074dcbac5e22f57c4dc3b5b69690500d8",
    ),
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def records_digest(records) -> str:
    rows = []
    for rec in records:
        row = dataclasses.asdict(rec)
        row.pop("wall_time")
        rows.append(json.dumps(row, sort_keys=True))
    return _sha("\n".join(rows))


def study_digests(name: str):
    """(count, full digest, resumed digest), checking threads and resume agree."""
    full = STUDIES[name]()
    threaded = STUDIES[name](threads=2)
    done = {record_key(rec) for rec in full[::2]}
    resumed = STUDIES[name](done=done)
    assert records_digest(threaded) == records_digest(full)
    assert records_digest(sorted(full[::2] + resumed, key=record_sort_key)) == \
        records_digest(sorted(full, key=record_sort_key))
    return len(full), records_digest(full), records_digest(resumed)


def cli_digests(name: str, tmp: Path, threads: int):
    config = tmp / "cfg.toml"
    config.write_text(CLI_CONFIGS[name])
    out = tmp / f"out-{threads}"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(["experiment", name, "--config", str(config), "--out-dir", str(out),
                     "--threads", str(threads), "--seed", "5"])
    assert code == 0
    with open(out / f"{name}_records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time")
    table = "\n".join(",".join(c for i, c in enumerate(r) if i != drop) for r in rows)
    meta = json.loads((out / f"{name}_metadata.json").read_text())
    meta.pop("versions")
    return (
        _sha(table),
        _sha(json.dumps(meta, sort_keys=True)),
        _sha((out / f"{name}.svg").read_bytes()),
        _sha(stdout.getvalue().replace(str(out), "<out>")),
    )


@pytest.mark.parametrize("name", list(STUDIES))
def test_study_records_match_golden(name):
    assert study_digests(name) == GOLDEN[name]


def test_jobs_run_in_spawned_workers(monkeypatch):
    # a spawned worker starts from a fresh import, so every job must pickle
    # (no closures, no state set up in the parent)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(
        experiments.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    for name, study in STUDIES.items():
        assert records_digest(study(threads=2)) == GOLDEN[name][1], name


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(CLI_CONFIGS))
def test_cli_outputs_match_golden(name, threads, tmp_path):
    assert cli_digests(name, tmp_path, threads) == CLI_GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    def pinned(name, values):
        return "".join([f'    "{name}": (\n', *(f"        {json.dumps(v)},\n" for v in values),
                        "    ),"])

    # printed in the layout of the two constants above, so that a re-pin is a paste
    print("GOLDEN = {")
    for name in STUDIES:
        print(pinned(name, study_digests(name)))
    print("}\n\nCLI_GOLDEN = {")
    for name in CLI_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            print(pinned(name, cli_digests(name, Path(tmp), 1)))
    print("}")
