"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64), the N = 4 and N = 8 ones from the per-point evaluations that
came before the stacked probe pass, with one BLAS thread and with
OpenBLAS's default threading alike.  Another numpy or BLAS build may round the last bits
differently; ``python tests/test_golden_records.py`` prints the digests
of the code it imports, to compare against or to re-pin from a trusted
revision.
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
        "463b43c841a644d81d4492fba7675a46cd0c63e04940dab19cc588ff261b47b4",
        "f6e0b378bc7809a297effef7234199eb72ef8c422a89b794f712b88e0c1b2434",
    ),
    "table1": (
        6,
        "5069b445f9b50f0fbc48a936231a32a43bc563789d7beea19a9c98fbbe29dfb7",
        "e7111a50407963bd7198fe492d23daf1406fd08e6d7f3678db528623bc7ea406",
    ),
    "recalibration": (
        6,
        "d05e27ac90ccc618148d7127a97fc923186c41b4c92550798f48a04fe99046c2",
        "ff956fddfa4b97acc7476ca9092bd298433c398b4ecd287e787b0e88456550eb",
    ),
    "phasediff": (
        24,
        "a1f487f46b21cb82cfa914d78bf3aec618e9e8e5c4dee692ecbe4378a422aec1",
        "965bb06a1e8a0ef948356fbc0fdb1741f9d9983ad90a4804ce0367dcdc995b19",
    ),
    "faulty": (
        8,
        "1913f404b34bb973f95f7eaaca8fc58bb5ba23f5b60550c5c9dce77ddb4f1404",
        "5b011681cf1c6de7e9baa4bc06e450677d003337769d2ee472d47fc31cb6b7a2",
    ),
    "universality-n4": (
        9,
        "df011e85acfe768eea9a841e9a329caa3895ebf4e1f7a405859a9d67aef8e438",
        "fcb8e6743b1cc945decaaaca11167bdb35742dcf7aa5ec47625029f0e4efcbb6",
    ),
    "phasediff-n8": (
        8,
        "de101ec2573b7186ab4fdaae7fc5f30ec26947be4efa406c04e1f8d09e0b75d3",
        "084f92a735dca332b0e1cf935ccf52b2796c70341e92330fbc5ea57501ca4351",
    ),
    "faulty-n4": (
        4,
        "be49ac8aad999ab381f6c8e7f69d495d7af10cc57ecd8238c0aaa158c2a36581",
        "00dd33c37dcd9d6916f1e543cd5bbba853720c03a85f5fff602f80ec32127130",
    ),
}

#: study -> digests of (CSV without wall_time, metadata without versions, SVG, stdout)
CLI_GOLDEN = {
    "universality": (
        "39cc4c7b68adafdd8449c8ba3c8cc524df5eb52c65176e12c17546fb6b4fdb45",
        "72b5223981ac26b1bed90d3cdc8584c7fc3e9ff84a71200d9406aee2a53e5db6",
        "9f9e0c2b64ee81a279d40eaa4f6039d2d6e79f6179519c5651b59e2090211be5",
        "85e3a2e211ffa6e7af478f2dc0861600ae42457e0c762452e9ce9a9ae86b0b8d",
    ),
    "table1": (
        "5cbae469b7d2c930234bf147a07786aac61e7fecfbcdaa2683fad95dfa42a688",
        "8337850ed42a00c0b353720fca6135214e43129d3d8ef61e8ea673f12a58d43c",
        "f066b355017a9a92cb5faf1e0b4fcbf6f01ef5cb0b90baa650aa5720fff3fcf4",
        "f60032277eb85eaee25a6d779436692030d8702e14ee9c06cde3a4f8057bdbdc",
    ),
    "recalibration": (
        "b5ad0e0e0060a063d1a4481bae563a567b46ac24af202239e5688eb602638734",
        "dc01673d033356d541315feaf6935781901c9bd7e272a6a9d8ab2c5f39fd5e09",
        "3487466aca738e67a462ae0c4b7015dc875ce1a5877c61a33909f773be4ec16a",
        "8069b2832ed0fb245706e58f721ae894170ffe546b72383538cede51e2dfb173",
    ),
    "phasediff": (
        "24ee6b312a3266a142b8ccef7b290d7e2f3d4791c2e4daac5c54b6d9a30faed1",
        "4723d4381680c9447a010118345f22ab73759e6722154b8bd7dc521287eae1d4",
        "f7b4aa86ac13ff7bf931547573031c467eaa74151b81ac8624efad46520fd616",
        "d17151012e4c3935d2df2e6db773405fc22a1d9a569160dc9b023475c03ecad4",
    ),
    "faulty": (
        "6ebe9b3c3d9c24a648b7270c2c94486b6c8cb2243553ee251367ba564baca4d3",
        "6e663e21449bca3ec5dceffd5fdad03c0f131d1215776b5bdee37301d2d4f395",
        "4f4531531813fed5b55bdb3baba3aad710fc0b525c6cfc4dbce8047a92c2431a",
        "f7be7a447386226879a98c1765ec56294f88c90d80319287f98a386978b3a9d2",
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

    for name in STUDIES:
        print(f"    {name!r}: {study_digests(name)!r},")
    for name in CLI_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {cli_digests(name, Path(tmp), 1)!r},")
