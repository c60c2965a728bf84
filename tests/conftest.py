# Cap BLAS threads before numpy loads anywhere, so determinism checks run
# under the same single-threaded regime as the package default.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import mlpcascade as mc
import mlpcascade.graphio as gio


@pytest.fixture(scope="session")
def tiny_graph():
    """Separable synthetic graph shared by trainer tests (float32)."""
    return mc.synth_sbm(120, 3, 16, 1.0, 0.0, 0.0, seed=1)


@pytest.fixture(scope="session")
def small_graph64():
    """Small noisy float64 graph for gradient-level work."""
    return mc.synth_sbm(60, 3, 8, 0.3, 0.05, 1.0, seed=5, dtype=np.float64)


@pytest.fixture()
def parsed_csvs(monkeypatch):
    """The names of the CSV files graphio parses during the test, in order."""
    names = []
    parse = gio._parse_csv

    def counted(path, dtype):
        names.append(path.name)
        return parse(path, dtype)

    monkeypatch.setattr(gio, "_parse_csv", counted)
    return names
