"""Span recording and the self-time calculation."""

import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tracing import NO_PARENT, Tracer, self_times


def _spans(rows):
    """Columns of a span table from (id, parent, thread, start, end) rows."""
    ids, parents, threads, starts, ends = map(np.array, zip(*rows))
    return {"id": ids, "parent": parents, "thread": threads,
            "start": starts.astype(float), "end": ends.astype(float)}


def test_self_times_span_tree_over_two_threads():
    spans = _spans([
        (0, NO_PARENT, 0, 0, 10),  # study on the main thread
        (1, 0, 0, 1, 3),           # main-thread helper
        (2, 0, 1, 2, 6),           # fit on a pool thread
        (3, 2, 1, 3, 4),           # its kernel call
        (4, 0, 2, 5, 9),           # fit on another pool thread, overlapping span 2
        (5, 4, 2, 5, 5.5),
        (6, 4, 2, 7, 8),
    ])
    # span 0 is covered by [1, 9], the union of its children's intervals,
    # not by the sum of their durations (2 + 4 + 4 = 10 > 9)
    assert self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.0, 2.5, 0.5, 1.0])


def test_self_times_clips_children_to_the_parent():
    spans = _spans([(0, NO_PARENT, 0, 0, 4), (1, 0, 1, 3, 6), (2, NO_PARENT, 1, 7, 8)])
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0])


def _toy_modules():
    core = types.ModuleType("toy.core")
    exec(
        "__all__ = ['kernel', 'step']\n"
        "def kernel(x):\n"
        "    return x + 1\n"
        "def step(x):\n"
        "    return kernel(kernel(x))\n",
        core.__dict__,
    )
    user = types.ModuleType("toy.user")
    user.step = core.step  # bound by name, as "from .core import step" does

    def drive(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(user.step, range(n)))

    user.drive = drive
    return core, user


def test_tracer_follows_aliases_and_pool_threads():
    core, user = _toy_modules()
    original = core.step
    tracer = Tracer()
    tracer.install([core, user])
    try:
        root = tracer.wrap("toy.drive", user.drive)
        assert root(6) == [i + 2 for i in range(6)]
    finally:
        tracer.uninstall()
    assert core.step is original and user.step is original

    spans = tracer.spans()
    names = [spans["names"][i] for i in spans["name"]]
    assert names.count("core.step") == 6 and names.count("core.kernel") == 12
    drive_id = spans["id"][names.index("toy.drive")]
    by_id = dict(zip(spans["id"], range(len(names))))
    for i, name in enumerate(names):
        parent = spans["parent"][i]
        if name == "core.step":  # ran on a pool thread, under the submitting span
            assert parent == drive_id
            assert spans["thread"][i] != spans["thread"][by_id[drive_id]]
        if name == "core.kernel":  # nested on its own thread's stack
            assert names[by_id[parent]] == "core.step"
            assert spans["thread"][by_id[parent]] == spans["thread"][i]
    assert (self_times(spans) >= -1e-9).all()


def test_tracer_records_a_span_when_the_call_raises():
    core = types.ModuleType("toy.failing")
    exec("__all__ = ['boom']\ndef boom():\n    raise ValueError('x')\n", core.__dict__)
    tracer = Tracer()
    tracer.install([core])
    try:
        with pytest.raises(ValueError):
            core.boom()
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert [spans["names"][i] for i in spans["name"]] == ["failing.boom"]
    assert spans["end"][0] >= spans["start"][0]


def test_wrapped_call_measures_the_callee():
    core = types.ModuleType("toy.slow")
    exec("__all__ = ['nap']\nimport time\ndef nap():\n    time.sleep(0.02)\n",
         core.__dict__)
    tracer = Tracer()
    tracer.install([core])
    try:
        t0 = time.perf_counter()
        core.nap()
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    (duration,) = self_times(tracer.spans())
    assert 0.02 <= duration <= elapsed


def test_concurrent_spans_are_neither_lost_nor_mixed():
    core, user = _toy_modules()
    tracer = Tracer()
    tracer.install([core, user])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(core.step, i) for i in range(400)]
            assert [f.result(timeout=60) for f in futures] == [i + 2 for i in range(400)]
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    spans = tracer.spans()
    names = [spans["names"][i] for i in spans["name"]]
    assert len(set(spans["id"].tolist())) == len(names) == 1200
    by_id = dict(zip(spans["id"].tolist(), range(len(names))))
    for i, name in enumerate(names):
        if name == "core.kernel":
            parent = by_id[int(spans["parent"][i])]
            assert names[parent] == "core.step"
            assert spans["thread"][parent] == spans["thread"][i]
            assert spans["start"][parent] <= spans["start"][i] <= spans["end"][i] \
                <= spans["end"][parent]
