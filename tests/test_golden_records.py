"""Pinned outputs of every study, serial, on worker processes and resumed.

Each study runs at a small budget and its records are hashed with
``wall_time`` left out, so any change in what a study computes, in which
order it emits records or in what a resumed run redoes shows up as a
digest mismatch.  The CLI cases hash the record CSV (without its
``wall_time`` column), the metadata (without its version block), the SVG
and stdout of ``jxcircuit experiment`` for every study name.

The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (Python 3.11,
x86-64) from jxcircuit 0.6.0, the first version to form the normal
equations from the prefix products alone (through the unitarity of the
mixers), solving each damping trial from one Cholesky factorization
(``"damped_solve": "dpotrf"`` in the metadata), once the full acceptance
suite had passed on it; they are the same with one BLAS thread and with
OpenBLAS's default threading. Another numpy or BLAS build may round the
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
        "2e7664a389aabc7e6cb688fadeb7c42b159a3e2aa3b34d069e7d4bc0d7728734",
        "46a7c1d249513bb61c3e6d5b560500e8c770ea3f3bbaef02a5ee96126f1b3d34",
    ),
    "table1": (
        6,
        "1e4bdf4bd1cd448a70f22815a63d52cc95929502269239bc2aad423da91bca97",
        "27602fa375ccd91227d187436a26451912051e587b20df62f4dbb8cfdd76897a",
    ),
    "recalibration": (
        6,
        "9709bc08b69c5eab5cffb0825a54d94baadc3ddc58b6c19471ce3d42998d5e39",
        "48b8789f18ffb4a8a755148b7c0d361ef9f4f86826ee5b38b637306e50729784",
    ),
    "phasediff": (
        24,
        "78877a7f99391b057c91abcfe90635154c541c9c88f6c7759f24027d6ffde8b5",
        "31f2eb468cd83a219018b9dfa461ffe06167694d6ea82bdd30ed51136230e03f",
    ),
    "faulty": (
        8,
        "4d757ad06c82963588cdd0d30da68c820bde2ff0bef28fb15cf3fce5396e8f4f",
        "33286bcb7bcff20f1c0e1e2dbbaa18bb3dfe88c4ea83cb144142545c920daeca",
    ),
    "universality-n4": (
        9,
        "13288b57afe214a095eba17ba90c0b805bf8eac0a5f09b5434e94fc0b3626525",
        "575b45aff0550d267fd46701fd6d70b8518e8f906455f9145333357dabef6c8b",
    ),
    "phasediff-n8": (
        8,
        "af50dea50b54ceda132701ddca8613b656527b3fd0afc39650f86011ad512167",
        "dc81160ee207cba11753cababda3d09d50c572394452b842dcbfc8afbe2ac131",
    ),
    "faulty-n4": (
        4,
        "b2a07fcb8f795980739e1baeb52c733df49d09907cf5de4793887248408e958d",
        "0f84eb63e2942b6294d4366686d3b93899d8d7c7a36fc1ec65702db14b6e4b4a",
    ),
}

#: study -> digests of (CSV without wall_time, metadata without versions, SVG, stdout)
CLI_GOLDEN = {
    "universality": (
        "44203d62cf8a0883767e623e732b5c3593188993d50b130b3cef1f1ca4282d8e",
        "72b5223981ac26b1bed90d3cdc8584c7fc3e9ff84a71200d9406aee2a53e5db6",
        "226709b6243e41a5c989dba68f7daf346df6d70248a8041f973b39ed3068d330",
        "66c9041bb072e09dd6d35aa01b7685b6ad8e0f0ecd754cd2b118c3e9b36b85bf",
    ),
    "table1": (
        "7c7fb82824aec9ee973e94157a3c8058a28e99f8b578960244041f9553a9907f",
        "8337850ed42a00c0b353720fca6135214e43129d3d8ef61e8ea673f12a58d43c",
        "f066b355017a9a92cb5faf1e0b4fcbf6f01ef5cb0b90baa650aa5720fff3fcf4",
        "f60032277eb85eaee25a6d779436692030d8702e14ee9c06cde3a4f8057bdbdc",
    ),
    "recalibration": (
        "d3459c3e24e072d0ead92907aad07f1b0dad57cdb5a9caf777e5b746bb23c4d2",
        "dc01673d033356d541315feaf6935781901c9bd7e272a6a9d8ab2c5f39fd5e09",
        "8a45357cf98cd7e33509698e85bc9a8b2e290ecc82a70226b495d931b3d084ca",
        "8069b2832ed0fb245706e58f721ae894170ffe546b72383538cede51e2dfb173",
    ),
    "phasediff": (
        "b75902438d24cd5bcdcd5ef21081386662c5a1b76d2bb82b95ad4899a62d476e",
        "4723d4381680c9447a010118345f22ab73759e6722154b8bd7dc521287eae1d4",
        "f7b4aa86ac13ff7bf931547573031c467eaa74151b81ac8624efad46520fd616",
        "d17151012e4c3935d2df2e6db773405fc22a1d9a569160dc9b023475c03ecad4",
    ),
    "faulty": (
        "12df50f9206021414369052738b4fd2e78928aaccda28062d13e328e0d5c5639",
        "6e663e21449bca3ec5dceffd5fdad03c0f131d1215776b5bdee37301d2d4f395",
        "a26ae0b79fdf265919f026556f7ddc64dd6a8a98a9be9e34f335f54c9d76396e",
        "7558726b653d02be3f73bdeb33a462d7ade14844fac8c4a875c3aa7c642b5371",
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
