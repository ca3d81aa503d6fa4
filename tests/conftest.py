import os
from pathlib import Path

import numpy as np

import cauchydos
from cauchydos.ensemble import SymmetricOperator

# the package's source root, so child interpreters import this checkout from any cwd
SRC_DIR = str(Path(cauchydos.__file__).resolve().parent.parent)

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines after the run, outside capture."""
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria", sep="-")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_sparse_symmetric(n, seed, density=0.05):
    """Random sparse symmetric test matrix in canonical triple form."""
    rng = np.random.default_rng(seed)
    m = max(1, int(density * n * n / 2))
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    vals = rng.standard_normal(m)
    key = lo * n + hi
    _, idx = np.unique(key, return_index=True)
    return SymmetricOperator(n, lo[idx], hi[idx], vals[idx])


def child_env():
    """Copy of the environment with SRC_DIR first on the child's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env
