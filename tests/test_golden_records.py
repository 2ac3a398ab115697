"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64) from jxcircuit 0.2.0, the first version with the gain-ratio
damping update, once the full acceptance suite had passed on it; they
are the same with one BLAS thread and with OpenBLAS's default threading.
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
        "39178cc5c01bba3f868b74113dc2d7a332d8175805a97683be134b4afbcf0a86",
        "1d71b5ca275f0130eb3968783a8db5b0850ef17e6813207ba6673f0e157a10d0",
    ),
    "table1": (
        6,
        "c99e552b6b683d4b806b7faca6f92e820ac63a55efff4535453f593507f12fff",
        "22fa11149baf2815c4c77c2e4908a5f008d82d45b0294bff561295a815534ca6",
    ),
    "recalibration": (
        6,
        "039469f4e69d3870b884ff410e1f3743fd301db3a65e8186b66a67a400e5903e",
        "f773819bd73a8f430a6c3fef6ef767ed31c40adb619db3eb8ebb375e972d18fc",
    ),
    "phasediff": (
        24,
        "8c8ac165dd5cc9d0fd8d5ef37769235849839b85ff5f3f5669aa4e8bb8b5bcd2",
        "e1ff7d2160993f26c4912c264d48e09ebe6dc76b40bc32da00b256e2b99385ea",
    ),
    "faulty": (
        8,
        "cb74d59b61b789ee591b40c15b9260ecc32804247bfda690061b0511bc4f39e0",
        "7c67799022539f26c93f322841250976691dc5a737334110ac3dd41f5b003fc9",
    ),
    "universality-n4": (
        9,
        "0bab7cc1ae725535f8b9db5389ab1de5b1cac04a2f076254c2a3c4670bfbe187",
        "5deea3a4bc39ee0d90170db93c6a83e68b03d5f9b8bdd95a3dbd962ccafa4216",
    ),
    "phasediff-n8": (
        8,
        "9d3ae3f60ed945a9d3897476d8fd020e940940d5831d1dd07b973319e40a73f0",
        "5f6a98b155f111d48699016c474e7763b57c320e7240f3ec6f24f00932abbe9c",
    ),
    "faulty-n4": (
        4,
        "a57aeb5aafcce7624f432d9dbcfa63e2cb0e50c60aabb579efc24d09b62c8aec",
        "ce2752bb1b67573f3eeca296cc9eef5a44c86f13ed6ae0f75ac24ef9f93c5f04",
    ),
}

#: study -> digests of (CSV without wall_time, metadata without versions, SVG, stdout)
CLI_GOLDEN = {
    "universality": (
        "aac5162b49cd2fe8b99cadd7ea6ca3c6c70cb921d45493e2c5e1075cc27f16dc",
        "72b5223981ac26b1bed90d3cdc8584c7fc3e9ff84a71200d9406aee2a53e5db6",
        "367e3f464d87f14a1ae2dc898a498a30da3a23f4ef9fa07f9364c77363b62869",
        "110a5f66884f109ea884244bcb5d98950c3886bb67639e7dc5a0a7dcd79eab10",
    ),
    "table1": (
        "37d007099a8ff5aeacf52afc2f6466ed851e92b1c3f3753bdf1686a1b4c45bfd",
        "8337850ed42a00c0b353720fca6135214e43129d3d8ef61e8ea673f12a58d43c",
        "f066b355017a9a92cb5faf1e0b4fcbf6f01ef5cb0b90baa650aa5720fff3fcf4",
        "f60032277eb85eaee25a6d779436692030d8702e14ee9c06cde3a4f8057bdbdc",
    ),
    "recalibration": (
        "aa2c4806174855b7fcd6809638436a14f2ae7d4e309b1cb41c78c4e12321f834",
        "dc01673d033356d541315feaf6935781901c9bd7e272a6a9d8ab2c5f39fd5e09",
        "3caa0ba9fbdd44abb51c3669ec2d94b85932ba1bb9546ae7471bbb17d4524d4e",
        "8069b2832ed0fb245706e58f721ae894170ffe546b72383538cede51e2dfb173",
    ),
    "phasediff": (
        "47d905fb12e85852e210bf7d3250e387e1c5ce47138d2c654ac931ed48426c0d",
        "4723d4381680c9447a010118345f22ab73759e6722154b8bd7dc521287eae1d4",
        "f7b4aa86ac13ff7bf931547573031c467eaa74151b81ac8624efad46520fd616",
        "d17151012e4c3935d2df2e6db773405fc22a1d9a569160dc9b023475c03ecad4",
    ),
    "faulty": (
        "bd0dc16c14a6d277234912be76c8361d389ca5e2bee5e4166d372651e24badf7",
        "6e663e21449bca3ec5dceffd5fdad03c0f131d1215776b5bdee37301d2d4f395",
        "66c2258ce33a1d19ef9378fa32737f018273c484ccf07b15b66cb98e49a1da60",
        "d7d5b539b107980c255134a1687e45bf1070e3ce5e712719435f3fc6e1362ac3",
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
