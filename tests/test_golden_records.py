"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The study digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python
3.11, x86-64) from jxcircuit 0.14.0, the first version to damp each
descent by ``(lambda / N^2) I`` (Marquardt's ``lambda diag(J'J)`` with the
diagonal that every free phase has, instead of reading and flooring it
entry by entry), with only the plain damped step tried in each damping
trial, the normal equations formed from the prefix products alone
(through the unitarity of the mixers) and each damping trial solved from
one Cholesky factorization (``"damped_solve": "dpotrf"`` in the
metadata), once the full acceptance suite and the held-out recalibration
seeds had passed on it.  The CLI digests (N = 2) are 0.8.0's: at N = 2
the new damping gives the same records.  ``universality-n4-lanes`` and
``phasediff-n4`` were pinned from 0.16.0, whose descent still moved every
live lane to the front of its arrays whenever another stopped.  At these sizes (N <= 8) they are
the same with one BLAS thread and with OpenBLAS's default threading; that
does not hold in general: at N = 16 (288 free phases) the threaded
``dpotrf`` rounds differently, and records there differ in their last
bits with the BLAS thread count.  Another numpy or BLAS build may round the
last bits differently; ``python tests/test_golden_records.py`` prints the
digests of the code it imports, laid out as ``GOLDEN`` and ``CLI_GOLDEN``,
to compare against or to re-pin from a trusted revision.
"""

import concurrent.futures
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
        [0.0, 0.004], 3, 10, n=3, m=4, init_modes=("jittered", "random"),
        jitter_fraction=0.1, truncated_iterations=20, targets=2, **kw),
    "faulty": lambda **kw: faulty_shifter_grid(
        [1, 3], 2, 2, LmaOptions(restarts=4), 11, n=3, m=4, **kw),
    # the sizes the benchmark runs, where whole-iteration paths such as the
    # stacked sweep of a fit's restart lanes see more than a handful of
    # parameters
    "universality-n4": lambda **kw: universality_sweep(
        [4], [3, 4, 6], 3, LmaOptions(restarts=3, max_iterations=40), 21, **kw),
    "phasediff-n8": lambda **kw: phase_difference_study(
        [0.0, 0.003], 2, 22, n=8, m=9, init_modes=("jittered", "random"),
        jitter_fraction=0.1, truncated_iterations=50, targets=1, **kw),
    "faulty-n4": lambda **kw: faulty_shifter_grid(
        [1, 4], 2, 1, LmaOptions(restarts=4), 23, n=4, m=5, **kw),
    # the benchmark's univ-n4 round: below the transition 30 fits of 5
    # restarts open together, 150 lanes in one wave that drains; above it
    # 30 lanes of one restart at a time
    "universality-n4-lanes": lambda **kw: universality_sweep(
        [4], [3, 4, 6], 30, LmaOptions(restarts=5, max_iterations=40), 24, **kw),
    # fits on mixer stacks of their own (one perturbed circuit per sigma_k
    # and run), below the transition
    "phasediff-n4": lambda **kw: phase_difference_study(
        [0.002, 0.005], 3, 25, n=4, m=4, init_modes=("jittered", "random"),
        jitter_fraction=0.1, truncated_iterations=30, targets=2, **kw),
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
        "71597e36c23ec89bb211dbd9b2778af684ada877cd76e3485e43fd533f4079c9",
        "1b144fc5c74fc900acdf6317e196e781d32eec87fb63970066d2936774efc2bd",
    ),
    "table1": (
        6,
        "49607c65c9f5109d88c6db25b40c243b0c52d038c5d0b8cfd56e806e4e99840d",
        "c58da1f8cbdecb35c3117092f712c174895d61d3d524621eccc1e0b9eeae67ea",
    ),
    "recalibration": (
        6,
        "64982dbea458e334fbade85e7f9bc36956890f1e7d680027fab82afc54380917",
        "669c1427220cea8b1321b106d1b9076fddfe25de11c092cb6146867b32955362",
    ),
    "phasediff": (
        24,
        "fae4db051db50a68ac718241f644a974bf36810741263197e62f4bbbc5e0e8c8",
        "80d94432eacba976469384dcac11263800b1afaa755de7607d937b1a23913741",
    ),
    "faulty": (
        8,
        "bca834ed9b77d2e1fbabfe04321c22d5e9293de0593a62f93481c37853f4cecc",
        "edfbf69291a8440b2a32b7b4bc9750a8018273f4dda049e53d6353b9f994c80e",
    ),
    "universality-n4": (
        9,
        "ed6933a820b7553d875389c3ab96e8b62cbce47edfa09ed03c87017f66ac0b3a",
        "c93f62fb85222fd78bb1942d12315a0335e49f299747784066419c464f598945",
    ),
    "phasediff-n8": (
        8,
        "9b26391146f17834f65ff2ca13614931feea13bd7e54ebf73fdc4ceea83b3ab0",
        "782ad2a5b047004cf1e3937439cb9b2811ba3471d9e6e0d13e278d74f29e8a74",
    ),
    "faulty-n4": (
        4,
        "7150a2e6fa366d213e606766359216b132bda492730045bfe5847f723dbb7939",
        "95fe653fb8ca9435edf5951cd2f0a05e022a4d9e0131320df70dd839838248c2",
    ),
    "universality-n4-lanes": (
        90,
        "6f4209df88131c415e1b18d8507d2011eedac6c96259bad3438aedc442c9edf2",
        "bfe74b0376fc48f728f7a2b189844f65e3da5e5a33cf7aff5bae62d34a01c011",
    ),
    "phasediff-n4": (
        24,
        "93caffec6b2d42b85b1c558f8ab65e72639becd6e91204ccc384ae78e57f502a",
        "fd8ad079ae333d8b3e6864b5ab4a40978fb4e43bcf47747ccc597059b9ec837f",
    ),
}

#: study -> digests of (CSV without wall_time, metadata without versions, SVG, stdout)
CLI_GOLDEN = {
    "universality": (
        "53ae20ee3639d98bc1b817b699c38bb880891d3b0498d71dcb7b3b5a2886ae98",
        "72b5223981ac26b1bed90d3cdc8584c7fc3e9ff84a71200d9406aee2a53e5db6",
        "422316ae82b2504399aa916209356d27ea387034691bacc7af746a90c1c7ab0f",
        "3e6ae8ebb58fa8b797cdbdc53a74ec1037896531dd0546d813008f12a53654a5",
    ),
    "table1": (
        "755ead30c0e14b70bf49005cda64aaa8b0035e9ff18da2f6eb6ba93b9dc20965",
        "8337850ed42a00c0b353720fca6135214e43129d3d8ef61e8ea673f12a58d43c",
        "f066b355017a9a92cb5faf1e0b4fcbf6f01ef5cb0b90baa650aa5720fff3fcf4",
        "f60032277eb85eaee25a6d779436692030d8702e14ee9c06cde3a4f8057bdbdc",
    ),
    "recalibration": (
        "a735f1aaf77c8d02cf743f4ddc416d34429e9bba2ce4fac22e55da0d8b4480b8",
        "dc01673d033356d541315feaf6935781901c9bd7e272a6a9d8ab2c5f39fd5e09",
        "3487466aca738e67a462ae0c4b7015dc875ce1a5877c61a33909f773be4ec16a",
        "8069b2832ed0fb245706e58f721ae894170ffe546b72383538cede51e2dfb173",
    ),
    "phasediff": (
        "96e0fe8f0deb2d45124fc107823e49e8e49f37286b871d422a8043b4b9afb871",
        "4723d4381680c9447a010118345f22ab73759e6722154b8bd7dc521287eae1d4",
        "f7b4aa86ac13ff7bf931547573031c467eaa74151b81ac8624efad46520fd616",
        "d17151012e4c3935d2df2e6db773405fc22a1d9a569160dc9b023475c03ecad4",
    ),
    "faulty": (
        "c5a5e8fa1f87b2350dbe33f08016076f8b91ed4af2e0f119f63e344ba36d4342",
        "6e663e21449bca3ec5dceffd5fdad03c0f131d1215776b5bdee37301d2d4f395",
        "fc26d20fbd8581d77f66715fd0cf838b10bf821b218d42ef3d6d443c770c732a",
        "3782be5d6ffc9975206aaf67291bc2545a8bba043c90c868f375511f8db7ed43",
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
    """(count, full digest, resumed digest), checking that runs on two and three
    workers and the resumed run, serial and on two workers, agree with the
    serial one."""
    full = STUDIES[name]()
    done = {record_key(rec): rec.seed for rec in full[::2]}
    resumed = STUDIES[name](done=done)
    # two workers, and three, whose blocks of a study's targets are uneven
    for threads in (2, 3):
        assert records_digest(STUDIES[name](threads=threads)) == records_digest(full), threads
    # the blocks of a resumed run owe only some of their records
    assert records_digest(STUDIES[name](done=done, threads=2)) == records_digest(resumed)
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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
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
