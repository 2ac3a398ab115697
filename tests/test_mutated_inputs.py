"""Property tests: a mutated input file is used or refused, never a traceback.

A valid record CSV (under ``experiment --resume``), matrix file (for
``decompose`` and ``calibrate``) or phase file (for ``apply`` and
``calibrate``) gets one mutation: a cell blanked, retyped or truncated, a
key dropped or retyped, a grid entry retyped, or the file cut short.
Every command must then exit 0, 1 or 2, with a refusal reported as one
``error:`` line; an exception escaping ``main`` fails the test.  A resumed
study keeps only rows whose measured values are finite: one whose measured
cell reads ``nan``, ``inf``, ``-inf`` or overflows is refused.  A study
config that sets every key gets one mutation that adds no work (a list
emptied, or a value or list entry retyped, non-finite or negative): the
study must then write its records, or be refused before it writes any.
"""

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jxcircuit import experiments
from jxcircuit.cli import main
from jxcircuit.fileio import read_records

#: small configs of the studies whose rows hold optional measured values
STUDIES = {
    "universality": "n_list = [2]\nm_list = [3]\ntargets = 2\nrestarts = 1\n",
    "recalibration": "n = 2\nm = 3\ntargets = 1\nrestarts = 1\nattempts = 1\n",
    "phasediff": "n = 2\nm = 3\nruns = 1\n",
}
#: a tiny config of each study that sets every key, so that no mutation
#: falls back to a full-budget default
CONFIGS = {
    "universality": {"master_seed": 0, "n_list": [2], "m_list": [3], "targets": 1,
                     "restarts": 1, "max_iterations": 5},
    "table1": {"master_seed": 0, "n": 2, "m": 3, "sigma_k_list": [0.001], "samples": 1,
               "restarts": 1},
    "recalibration": {"master_seed": 0, "n": 2, "m": 3, "sigma_k_list": [0.001], "targets": 1,
                      "attempts": 1, "truncated_iterations": 5, "restarts": 1},
    "phasediff": {"master_seed": 0, "n": 2, "m": 3, "sigma_k_list": [0.0, 0.001], "runs": 1,
                  "init_modes": ["jittered", "random"], "jitter_fraction": 0.1,
                  "truncated_iterations": 5, "targets": 1},
    "faulty": {"master_seed": 0, "n": 2, "m": 3, "k_list": [1], "combos_per_k": 1,
               "targets": 1, "restarts": 1},
}
#: what a mutated config value or list entry holds: a string, a boolean,
#: null, a float, a non-finite or a negative number
CONFIG_VALUES = ['"x"', "true", "false", "null", "0.5", "NaN", "1e400", "-1", "-0.5"]
#: what a retyped CSV cell holds
CELLS = ["x", "nan", "inf", "-inf", "1e400", "-1", "0", "1.5", "True", "None", "[]", '"1"']
#: what a retyped JSON value holds
VALUES = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
          | st.lists(st.integers(0, 2), max_size=3)
          | st.lists(st.lists(st.floats() | st.just("free"), max_size=3), max_size=3))


def run(*argv) -> tuple[int, str]:
    """The exit code and stderr of ``jxcircuit argv``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_used_or_refused(code: int, err: str) -> None:
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Each study's outputs, a target matrix and a phase file fitted to it."""
    root = tmp_path_factory.mktemp("pristine")
    for name, text in STUDIES.items():
        (root / f"{name}.cfg").write_text(text)
        assert run("experiment", name, "--config", root / f"{name}.cfg",
                   "--out-dir", root / name)[0] == 0
    assert run("haar", "--ports", 2, "--seed", 1, "--out", root / "target.json")[0] == 0
    assert run("decompose", "--target", root / "target.json", "--layers", 3,
               "--restarts", 2, "--out", root / "phases.json")[0] == 0
    return root


def cut(data, text: str) -> str:
    return text[:data.draw(st.integers(0, max(len(text) - 1, 0)))]


def mutate_csv(data, text: str) -> str:
    """``text`` with one cell (the header's too) blanked, retyped or
    truncated, or cut short."""
    how = data.draw(st.sampled_from(["blank", "retype", "truncate cell", "truncate file"]))
    if how == "truncate file":
        return cut(data, text)
    rows = list(csv.reader(io.StringIO(text)))
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    c = data.draw(st.integers(0, len(row) - 1))
    row[c] = {"blank": lambda: "", "retype": lambda: data.draw(st.sampled_from(CELLS)),
              "truncate cell": lambda: cut(data, row[c])}[how]()
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def mutate_json(data, text: str) -> str:
    """``text`` with one key dropped or retyped, one grid entry retyped, or
    cut short."""
    how = data.draw(st.sampled_from(["drop", "retype", "entry", "truncate"]))
    if how == "truncate":
        return cut(data, text)
    doc = json.loads(text)
    key = data.draw(st.sampled_from(sorted(doc)))
    if how == "drop":
        del doc[key]
    elif how == "entry" and isinstance(doc[key], list):
        row = doc[key][data.draw(st.integers(0, len(doc[key]) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(VALUES)
    else:
        doc[key] = data.draw(VALUES)
    return json.dumps(doc)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_mutated_record_csv_is_resumed_or_refused(pristine, data):
    name = data.draw(st.sampled_from(sorted(STUDIES)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        shutil.copytree(pristine / name, out)
        csv_path = out / f"{name}_records.csv"
        csv_path.write_text(mutate_csv(data, csv_path.read_text()))
        code, err = run("experiment", name, "--config", pristine / f"{name}.cfg",
                        "--out-dir", out, "--resume")
        assert_used_or_refused(code, err)
        if code == 0:  # a resumed run keeps only measured, finite values
            for rec in read_records(csv_path):
                for field in experiments.STUDIES[name].measured:
                    assert math.isfinite(getattr(rec, field)), (field, rec)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_non_finite_measured_cell_is_refused(pristine, data):
    name = data.draw(st.sampled_from(sorted(STUDIES)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        shutil.copytree(pristine / name, out)
        csv_path = out / f"{name}_records.csv"
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        column = data.draw(st.sampled_from(experiments.STUDIES[name].measured))
        row = rows[data.draw(st.integers(1, len(rows) - 1))]
        row[rows[0].index(column)] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        csv_path.write_text(text.getvalue())
        code, err = run("experiment", name, "--config", pristine / f"{name}.cfg",
                        "--out-dir", out, "--resume")
        assert code == 2 and f"with {column} = " in err, err


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_mutated_matrix_or_phase_file_is_used_or_refused(pristine, data):
    command, mutated = data.draw(st.sampled_from([
        ("decompose", "target.json"), ("apply", "phases.json"),
        ("calibrate", "target.json"), ("calibrate", "phases.json")]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("target.json", "phases.json"):
            shutil.copy(pristine / name, tmp / name)
        path = tmp / mutated
        path.write_text(mutate_json(data, path.read_text()))
        inputs = {"target": tmp / "target.json", "phases": tmp / "phases.json"}
        argv = {
            "decompose": ("--target", inputs["target"], "--layers", 3, "--restarts", 1,
                          "--max-iterations", 5),
            "apply": ("--phases", inputs["phases"], "--sigma-k", 0.003),
            "calibrate": ("--target", inputs["target"], "--phases", inputs["phases"],
                          "--sigma-k", 0.003, "--attempts", 1, "--iterations", 5),
        }[command]
        assert_used_or_refused(*run(command, *argv, "--out", tmp / "out.json"))


def mutate_config(data, config: dict) -> str:
    """The text of ``config`` with one list emptied, or one list entry or one
    value replaced by one of ``CONFIG_VALUES``."""
    text = {key: json.dumps(value) for key, value in config.items()}
    how = data.draw(st.sampled_from(["empty", "entry", "value"]))
    lists = sorted(key for key, value in config.items() if isinstance(value, list))
    key = data.draw(st.sampled_from(lists if how != "value" else sorted(config)))
    if how == "empty":
        text[key] = "[]"
    elif how == "entry":
        entries = [json.dumps(value) for value in config[key]]
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(
            st.sampled_from(CONFIG_VALUES))
        text[key] = "[" + ", ".join(entries) + "]"
    else:
        text[key] = data.draw(st.sampled_from(CONFIG_VALUES))
    return "".join(f"{key} = {value}\n" for key, value in text.items())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_config_is_used_or_refused(data):
    name = data.draw(st.sampled_from(sorted(CONFIGS)))
    assert set(CONFIGS[name]) == set(experiments.STUDIES[name].defaults)
    text = mutate_config(data, CONFIGS[name])
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / f"{name}.cfg", Path(tmp) / name
        config.write_text(text)
        code, err = run("experiment", name, "--config", config, "--out-dir", out)
        assert_used_or_refused(code, err)
        csv_path = out / f"{name}_records.csv"
        if code == 0:  # a config that is used owes some records
            assert read_records(csv_path), text
        else:  # and one that is refused is refused before any output
            assert not csv_path.exists(), (text, err)
