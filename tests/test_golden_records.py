"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64) from jxcircuit 0.8.0, the first version to try only the plain
damped step in each damping trial (no geodesic correction), with the
normal equations formed from the prefix products alone (through the
unitarity of the mixers) and each damping trial solved from one Cholesky
factorization (``"damped_solve": "dpotrf"`` in the metadata), once the
full acceptance suite had passed on it.  At these sizes (N <= 8) they are
the same with one BLAS thread and with OpenBLAS's default threading; that
does not hold in general: at N = 16 (288 free phases) the threaded
``dpotrf`` rounds differently, and records there differ in their last
bits with the BLAS thread count.  Another numpy or BLAS build may round the
last bits differently; ``python tests/test_golden_records.py`` prints the
digests of the code it imports, laid out as ``GOLDEN`` and ``CLI_GOLDEN``,
to compare against or to re-pin from a trusted revision.
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
        "f21017bb40a38ed98ad54a2468ea48ae7a32c5703fad709b86062b39e9b75287",
        "4ce4cee846c2de4e564f7d6610b4a71f5642b5430bbe1b5cc1522197a4c7e2bb",
    ),
    "table1": (
        6,
        "2851d17819a24b368c7dadc0f87519bf84a85c9c7afd04e0b93ee05f833b2d13",
        "031fec73cea54adca558e4b314cf13a3b197fb67e037ab935d19d95a7250afb8",
    ),
    "recalibration": (
        6,
        "ffaef1cd70b5121aa2ba1344802786dc8e4415d7dc8cc58353394e5ab2beb594",
        "556143aa7473dce6c459b745069dbf213ae257b1d76e68bb6b591dad33a3028a",
    ),
    "phasediff": (
        24,
        "55a05f901a40d49aa3e9b10d2bba74dafde08d9c034a5b583745fdc67ac2c1fa",
        "c821db25b10089d950310b24474cd345309a130913c51e9aa98dd379c36fc90f",
    ),
    "faulty": (
        8,
        "3f25a3e4caf5b76f99e830b0f6cdc4eb7a84641c0bf4e09dda24239950eaa539",
        "09d5fc1ecfc507d2bfda6c34d2f83419488ba57a0a3be5e3b4eebfcd78267d09",
    ),
    "universality-n4": (
        9,
        "751351946784857ae49fec4fbe36413f9069d2f9daca2408f286c64096cc0f18",
        "6a5f9a2a2063f9db37774f54a70cccbfb2167bd3948e10319249002c112bf0b5",
    ),
    "phasediff-n8": (
        8,
        "d96895a38e81129c3151b8325627e67c54a5f8471167d1783feef0ec6ae76ddf",
        "fe8032fb3301ba12f6f07c3e48c73e762b87910d22cbe3deb218a6b5ebb70631",
    ),
    "faulty-n4": (
        4,
        "bba3d335c493fd3f1240d0046be739154c9bc0a5d5dd1f668dcf60211f977d92",
        "253b719517aaeb3aba25a1ecc2d4dff8db36531d6decc520589d9cf3b83b2668",
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
    """(count, full digest, resumed digest), checking threads and resume agree."""
    full = STUDIES[name]()
    threaded = STUDIES[name](threads=2)
    done = {record_key(rec): rec.seed for rec in full[::2]}
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
