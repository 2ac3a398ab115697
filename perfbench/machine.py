"""Machine and environment description printed with every benchmark run."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _cpu() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    return {"model": model, "caches": caches}


def _git(root: Path) -> dict:
    # only a checkout with its own .git: never let git search parent directories
    if not (root / ".git").exists():
        return {"commit": "unknown (not a git checkout)", "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown (git failed)", "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def describe(root: Path, **run) -> dict:
    """Python, numpy, BLAS, threads, CPU, git state and the run's own settings."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc(),
        "cpu": _cpu(),
        "git": _git(root),
        **run,
    }



class SpeedProbe:
    """Times a fixed numpy kernel between rounds, to scale a run's times.

    The CPU is shared, and its speed drifts by about 30% over minutes, in
    spells longer than a run.  The probe is independent of jxcircuit but
    does the same kinds of work as the workloads: Python-level chains of
    4x4 complex products, and an LU solve of 288 unknowns with a 512 x 288
    Gram product.  ``factor()`` turns a time measured in this run into one
    at the reference machine's usual speed, where the probe takes
    ``REFERENCE_S``.
    """

    REFERENCE_S = 0.45

    def __init__(self):
        rng = np.random.default_rng(20230817)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._mixer = np.linalg.qr(z)[0]
        self._phases = rng.uniform(0.0, 2.0 * np.pi, (8, 4))
        self._jac = rng.standard_normal((512, 288))
        a = rng.standard_normal((288, 288))
        self._a = a @ a.T + 288.0 * np.eye(288)
        self._b = rng.standard_normal(288)
        self._run(1, 1)  # the first calls load and initialize the libraries
        self.samples: list[float] = []

    def _run(self, chains: int, solves: int) -> None:
        for _ in range(chains):
            u = self._mixer
            for row in self._phases:
                u = self._mixer @ (np.exp(1j * row)[:, None] * u)
        for _ in range(solves):
            np.linalg.solve(self._a, self._b)
            self._jac.T @ self._jac

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._run(5000, 100)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Reference probe time over this run's median probe time."""
        return self.REFERENCE_S / statistics.median(self.samples)
