"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The study and CLI digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31
(Python 3.11, x86-64) from jxcircuit 0.22.0, the first version to open
every descent at a first damping of ``1e-3 diag(J'J)`` (a first lambda of
1e-3, so a first shift of 1e-3 / N^2; earlier versions applied the
diagonal twice, 1e-3 / N^4), once the full acceptance suite had passed on
it.  Each descent damps by ``(lambda / N^2) I`` (Marquardt's
``lambda diag(J'J)`` with the diagonal that every free phase has), tries
only the plain damped step in each damping trial, forms the normal
equations from the prefix products alone (through the unitarity of the
mixers) and solves each damping trial from one Cholesky factorization
(``"damped_solve": "dpotrf"`` in the metadata).  At these sizes (N <= 8)
they are the same with one BLAS thread and with OpenBLAS's default
threading (checked at 0.22.0); that
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
        "1847c4d27eaf1b589968102e965c8652207361f217d7a40aa1ab6ad04a807492",
        "cf5ad9701dad0d741cf6a237e46246c1a463ed285b5f3f7faa09eddbacd04fbb",
    ),
    "table1": (
        6,
        "f5e160f777c18421ced9208fab46eb039803b347232dc90571a655f4fa095e13",
        "2d76b0bf26904cb587eaf3d342824d6c18eaa3975152d8d62166445db5cd87c6",
    ),
    "recalibration": (
        6,
        "8a37ce79715448f06769b01834374e3b08f852db50b74c2f17a98c815bd86ce1",
        "f3f2135f53abef7774189fe8d212f19765690cbad4734ed2ddba2b4315a194ae",
    ),
    "phasediff": (
        24,
        "13804cd535be45a30c98e44dcc2e8cb117e99f98eb504b82a9c3bb1c6a0154f8",
        "5bdd31d03107dbb0593cfc634a4f4d825e0930e100ef98339d9d8f209032d676",
    ),
    "faulty": (
        8,
        "e0e2a871286a64766590c658f3c71f8d629131799892867f359e7c69e5da3e4b",
        "88053b6392a0d6899cf6f47da6638e86ead60bfb6214e14c55942091c8690321",
    ),
    "universality-n4": (
        9,
        "20f9c4414bbbb35fffa787482f95614dc290cefa8f2121d49b02f91d0a5fba2d",
        "91c72c30859a65a00004ad7528e848ff57ce05cfd3d9e844ef32916dbc15afb3",
    ),
    "phasediff-n8": (
        8,
        "f0d755a8514e1dfbaebb1b412384ea56de7d39466297f3a02662a478221256df",
        "24641ea4d0a43d98356d3887ad6f818776f18d23e4a98ab3a11a2e1333d4fc43",
    ),
    "faulty-n4": (
        4,
        "ec1eb5e33acea034cfad532f361e3957b6249deb58c1d0099cb6d11221e603ae",
        "91c6c8a5136b6773516d6376098993e9f9c346fe64fa8f6cbeb5b96df27d3a21",
    ),
    "universality-n4-lanes": (
        90,
        "afdd484c54dfe526e696e35cb511e42d96777cccc87e9e58475c4cbc71b30aeb",
        "03eafe2e794b15f5a357c5d0d3753fd96614197e4d215123d00c421862c50333",
    ),
    "phasediff-n4": (
        24,
        "a75174fec6c6359bdf13602d6d462e5094186b8c6dcd97f39ab990be9f86e7a8",
        "4fa49b4d831f60a45b258a0a1b9474a4e004f2caf9eec4571a96cf7d42cb86db",
    ),
}

#: study -> digests of (CSV without wall_time, metadata without versions, SVG, stdout)
CLI_GOLDEN = {
    "universality": (
        "353369b2f09edc34cf8b38f4ddd9e9a4629a7ce676ccd1b766d69875ab09b175",
        "72b5223981ac26b1bed90d3cdc8584c7fc3e9ff84a71200d9406aee2a53e5db6",
        "422316ae82b2504399aa916209356d27ea387034691bacc7af746a90c1c7ab0f",
        "fccd38f99214cf082f7be17149fa3723da09e68a247f8cc09abd82598f20d269",
    ),
    "table1": (
        "5ac3277feba6fe4f376f69c9bd11f465ad2808f0a0ef21de182b140e2b36b90e",
        "8337850ed42a00c0b353720fca6135214e43129d3d8ef61e8ea673f12a58d43c",
        "f066b355017a9a92cb5faf1e0b4fcbf6f01ef5cb0b90baa650aa5720fff3fcf4",
        "f60032277eb85eaee25a6d779436692030d8702e14ee9c06cde3a4f8057bdbdc",
    ),
    "recalibration": (
        "fb85be1a0789da88a2c243bd0abd9ce38db05a815b54fec3ca62df3fbda91a05",
        "dc01673d033356d541315feaf6935781901c9bd7e272a6a9d8ab2c5f39fd5e09",
        "3487466aca738e67a462ae0c4b7015dc875ce1a5877c61a33909f773be4ec16a",
        "8069b2832ed0fb245706e58f721ae894170ffe546b72383538cede51e2dfb173",
    ),
    "phasediff": (
        "76dc2ce82606df1ed07761e0f4881c925fc0a17d7fd6415ffc3db528d7971627",
        "4723d4381680c9447a010118345f22ab73759e6722154b8bd7dc521287eae1d4",
        "f7b4aa86ac13ff7bf931547573031c467eaa74151b81ac8624efad46520fd616",
        "d17151012e4c3935d2df2e6db773405fc22a1d9a569160dc9b023475c03ecad4",
    ),
    "faulty": (
        "5994d3fd9b632f42cab72f5d060b955d71c4e4b636410bce55fe00ce8d9eb98c",
        "6e663e21449bca3ec5dceffd5fdad03c0f131d1215776b5bdee37301d2d4f395",
        "a5b2e7c775cc5b125903ac0bbb5439c2ccb55db80f4575080d04a68d976dd922",
        "ea96d870e332784f744fb23a1ec93a073c836813d603892ecaab4aaec9f8366f",
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
