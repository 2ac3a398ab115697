"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64) from jxcircuit 0.5.0, the first version to form the normal
equations from the Jacobian's rank-one factors (Gram form), solving each
damping trial from one Cholesky factorization (``"damped_solve": "dpotrf"``
in the metadata), once the full acceptance suite had passed on it; they
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
        "67a98dd16963d0ea46bb1d758f4ed718dbdab9af394b43d3782218e121540eec",
        "22152c956884f2c68657b72693b3e5d6e7435103bf5c29468e5a0ed3885a4c2c",
    ),
    "table1": (
        6,
        "058e82454ce68bf8374115fe0e5595b7871f77b3c7dd638a021d95554bbad0a4",
        "189f9a8cfd8292ead8900b34f61e6511a8e995d4616d85755bd030c0ea349f9a",
    ),
    "recalibration": (
        6,
        "24beee5cc43a7a82c98373446f053e2b1bb47dddd0fb65782f6296feaf95ef37",
        "d146e3b59dd4e8de4ce793f7987a3568beddaef6996db52d98cff0558a08f82e",
    ),
    "phasediff": (
        24,
        "438309dc5b297414a944c5edb71e906d58a17ef857793d77feffa065eabd5ab2",
        "fa0b93c4a090b19d9ecbec988905dca574f337f27a4fbf91482e83177871ef61",
    ),
    "faulty": (
        8,
        "03237edd1b14e3b9333074ef757375499205e4e0fbcf3716e4fe7e493127eede",
        "235988ac3cd7c229c73a7d0f8f59b9a26d7882a2fac4366baab8a57b9e1e40aa",
    ),
    "universality-n4": (
        9,
        "6d9b7ee532453b12c7ebe12b486e0a3139287872e21e686738b6c65d5f731f00",
        "a1da8f5f754d8811f3dca9a556c5ff8b8bfe7e0460b2872427ab87c21d4281f3",
    ),
    "phasediff-n8": (
        8,
        "1a1fe4b68ff1f83d710a9129bbdd23558bed620e9d2065cc23f70df84d748678",
        "f662a2f0c14b0e6417823c9eb220a14b27fb44a2b57d00b72526bdae12880ff9",
    ),
    "faulty-n4": (
        4,
        "0c79f8b7e0770d84033296a0a36f0d48a6562bd98be0ad0e5c90e5207a30a6bf",
        "7d4ebc3eff55de6d2a0190dcae7f432a1bd830db98f334d3d7e5d898291f2239",
    ),
}

#: study -> digests of (CSV without wall_time, metadata without versions, SVG, stdout)
CLI_GOLDEN = {
    "universality": (
        "968963d0a9f1fe2833690ad52ba4eff5dff6119f1e8f546d30b9cbbc9224f18e",
        "72b5223981ac26b1bed90d3cdc8584c7fc3e9ff84a71200d9406aee2a53e5db6",
        "ccec37f1f05505c5e5f7b70fdb734c86e86081326720210942cf4821f67e53e9",
        "aadd75cad0a71b2f0de1077262772ef776c80adc1f0296c6cdf02309b20743c9",
    ),
    "table1": (
        "91b04fa571cbcd0f259369ccaf4a6d94b76001336dc73de5a87e1ef276464c7c",
        "8337850ed42a00c0b353720fca6135214e43129d3d8ef61e8ea673f12a58d43c",
        "f066b355017a9a92cb5faf1e0b4fcbf6f01ef5cb0b90baa650aa5720fff3fcf4",
        "f60032277eb85eaee25a6d779436692030d8702e14ee9c06cde3a4f8057bdbdc",
    ),
    "recalibration": (
        "5ae18c9e3f6852ba5fb87d275d47dd1280d208611a12042b74715f194efe0f5a",
        "dc01673d033356d541315feaf6935781901c9bd7e272a6a9d8ab2c5f39fd5e09",
        "8a45357cf98cd7e33509698e85bc9a8b2e290ecc82a70226b495d931b3d084ca",
        "8069b2832ed0fb245706e58f721ae894170ffe546b72383538cede51e2dfb173",
    ),
    "phasediff": (
        "330f8eaa2c1a55cefdf0c607a3255309a237171a243cc06fa76092e2283abdf8",
        "4723d4381680c9447a010118345f22ab73759e6722154b8bd7dc521287eae1d4",
        "f7b4aa86ac13ff7bf931547573031c467eaa74151b81ac8624efad46520fd616",
        "d17151012e4c3935d2df2e6db773405fc22a1d9a569160dc9b023475c03ecad4",
    ),
    "faulty": (
        "ba942c48da7f1d2efc3be9bca05bc09919f5bba2004fc3e0bb5d4c428a9a3528",
        "6e663e21449bca3ec5dceffd5fdad03c0f131d1215776b5bdee37301d2d4f395",
        "06fc48eae22d16c9e737c5a6b671c18c9e1515418ba5bf8c437eaa374bd177ec",
        "1bad505427dfce1e26c238ebe24d4970eec03869fca5c1ae7d1a8ca2e8a4cb9c",
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
