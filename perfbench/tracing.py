"""Span tracing of the jxcircuit layers, applied from outside the package.

A :class:`Tracer` replaces every public function of every ``jxcircuit``
module, and every module attribute bound to one of them (so call sites
that imported a function by name are covered as well), with a wrapper
that records a span: id, parent id, name, thread, start and end, plus an
optional amount of work (flops computed from array shapes, bytes written,
restarts used).  ``numpy.linalg.solve`` is wrapped too, as the boundary of
the damped solve.  Work handed to a ``ThreadPoolExecutor`` inherits the
submitting thread's open span as its parent.

Spans stay in per-thread columnar buffers until :meth:`Tracer.spans`
merges them; :func:`self_times` derives each span's self time from the
merged table.
"""

from __future__ import annotations

import inspect
import itertools
import os
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

NO_PARENT = -1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _flops_transfer_matrix(args, kwargs, result):
    m, n = _arg(args, kwargs, 1, "theta").shape
    # per layer: phase scaling (N^2 complex multiplies) and one N x N complex matmul
    return m * (8.0 * n**3 + 6.0 * n**2)


def _flops_residuals_and_jacobian(args, kwargs, result):
    m, n = _arg(args, kwargs, 1, "theta").shape
    # forward sweep as transfer_matrix, then per layer the rank-one column
    # blocks (N^3 complex multiplies), the prefix update (scaling + matmul)
    # and the 1/N scaling of the 2 N^2 x N rows
    return m * (24.0 * n**3 + 18.0 * n**2)


def _flops_solve(args, kwargs, result):
    a = np.asarray(_arg(args, kwargs, 0, "a"))
    b = np.asarray(_arg(args, kwargs, 1, "b"))
    p = a.shape[-1]
    rhs = 1 if b.ndim <= 1 else b.shape[-1]
    flops = (2.0 / 3.0) * p**3 + 2.0 * p**2 * rhs  # LU plus the triangular solves
    return 4.0 * flops if np.iscomplexobj(a) else flops


def _bytes_of_path(args, kwargs, result):
    return float(os.path.getsize(_arg(args, kwargs, 0, "path")))


def _restarts_used(args, kwargs, result):
    return float(result.restarts_used)


#: span name -> work(args, kwargs, result) recorded with the span
WORK = {
    "circuit.transfer_matrix": _flops_transfer_matrix,
    "circuit.residuals_and_jacobian": _flops_residuals_and_jacobian,
    "linalg.solve": _flops_solve,
    "optimizer.fit": _restarts_used,
    "fileio.write_records": _bytes_of_path,
    "fileio.write_metadata": _bytes_of_path,
}


class _ThreadBuffer:
    """Span stack and recorded spans of one thread."""

    def __init__(self):
        self.stack: list[int] = []
        self.inherited = NO_PARENT
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.works = array("d")


def public_functions(module) -> dict:
    """Public functions defined in ``module``: its ``__all__``, else non-underscore names."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        value = getattr(module, name, None)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out[name] = value
    return out


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def current(self) -> int:
        """Innermost open span of the calling thread (or its inherited parent)."""
        buf = self._buffer()
        return buf.stack[-1] if buf.stack else buf.inherited

    def bind(self, fn):
        """``fn`` wrapped so that, in any thread, its spans hang under the current span."""
        parent = self.current()

        def run(*args, **kwargs):
            buf = self._buffer()
            saved, buf.inherited = buf.inherited, parent
            try:
                return fn(*args, **kwargs)
            finally:
                buf.inherited = saved

        return run

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, func):
        name_id = self._name_id(name)
        work = WORK.get(name)
        clock = time.perf_counter
        ids = self._ids
        get_buffer = self._buffer

        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            span_id = next(ids)
            parent = stack[-1] if stack else buf.inherited
            stack.append(span_id)
            done = False
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                buf.ids.append(span_id)
                buf.parents.append(parent)
                buf.names.append(name_id)
                buf.starts.append(t0)
                buf.ends.append(t1)
                buf.works.append(work(args, kwargs, result) if work and done else 0.0)

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` and rebind every alias in them."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in modules:
            short = module.__name__.split(".", 1)[-1]
            for name, func in public_functions(module).items():
                wrappers[id(func)] = self.wrap(f"{short}.{name}", func)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
        self._set(np.linalg, "solve", self.wrap("linalg.solve", np.linalg.solve))
        tracer = self
        submit = ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer.bind(fn), *args, **kwargs)

        self._set(ThreadPoolExecutor, "submit", traced_submit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """All recorded spans as columns ordered by span id.

        ``thread`` numbers threads in the order they first used the tracer;
        ``names`` maps the ``name`` column to span names.
        """
        with self._lock:
            buffers = list(self._buffers)
        cols = {}
        for key, attr, dtype in (
            ("id", "ids", np.int64), ("parent", "parents", np.int64),
            ("name", "names", np.int32), ("start", "starts", np.float64),
            ("end", "ends", np.float64), ("work", "works", np.float64),
        ):
            cols[key] = np.concatenate(
                [np.frombuffer(getattr(b, attr), dtype=dtype) for b in buffers]
                + [np.empty(0, dtype)]
            )
        cols["thread"] = np.concatenate(
            [np.full(len(b.ids), i, dtype=np.int64) for i, b in enumerate(buffers)]
            + [np.empty(0, np.int64)]
        )
        order = np.argsort(cols["id"], kind="stable")
        cols = {key: value[order] for key, value in cols.items()}
        cols["names"] = list(self._names)
        return cols


def self_times(spans: dict) -> np.ndarray:
    """Self time of every span: its duration minus the part its children cover.

    Children of one thread nest inside their parent and never overlap each
    other; children running in other threads may overlap, so a parent with
    any such child subtracts the union of its children's intervals
    (clipped to its own).  ``spans`` holds the columns of
    :meth:`Tracer.spans`; the result is aligned with them.
    """
    ids = np.asarray(spans["id"])
    thread = np.asarray(spans["thread"])
    start = np.asarray(spans["start"], dtype=float)
    end = np.asarray(spans["end"], dtype=float)
    duration = end - start
    # ids are sorted, so a parent's row is found by binary search
    parent = np.searchsorted(ids, spans["parent"])
    child = parent < len(ids)
    child[child] = ids[parent[child]] == np.asarray(spans["parent"])[child]
    kids, parent = np.flatnonzero(child), parent[child]

    mixed = np.zeros(len(ids), dtype=bool)
    mixed[parent[thread[kids] != thread[parent]]] = True
    covered = np.zeros(len(ids))
    nested = ~mixed[parent]
    np.add.at(covered, parent[nested], duration[kids[nested]])
    for p in np.flatnonzero(mixed):
        own = kids[parent == p]
        lo = np.clip(start[own], start[p], end[p])
        hi = np.clip(end[own], start[p], end[p])
        total, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted(zip(lo, hi)):
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        covered[p] = total
    return duration - covered
