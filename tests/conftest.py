"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import FP32, FP64, Precision
from repro.arch.unistc import UniSTC
from repro.formats import BBCMatrix, COOMatrix, CSRMatrix
from repro.registry import create_stc, entry_for, registered_stcs
from repro.workloads.synthetic import banded, poisson2d, random_uniform


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense(rng):
    """A 40x56 dense array with ~25% occupancy."""
    return rng.random((40, 56)) * (rng.random((40, 56)) < 0.25)


@pytest.fixture
def small_coo(small_dense):
    return COOMatrix.from_dense(small_dense)


@pytest.fixture
def small_csr(small_coo):
    return CSRMatrix.from_coo(small_coo)


@pytest.fixture
def small_bbc(small_coo):
    return BBCMatrix.from_coo(small_coo)


@pytest.fixture(scope="session")
def poisson_csr():
    return CSRMatrix.from_coo(poisson2d(16))


@pytest.fixture(scope="session")
def banded_bbc():
    """A medium banded matrix shared by simulator tests."""
    return BBCMatrix.from_coo(banded(128, 12, 0.5, seed=3))


@pytest.fixture(scope="session")
def random_bbc():
    return BBCMatrix.from_coo(random_uniform(128, 128, 0.05, seed=4))


@pytest.fixture
def uni():
    return UniSTC()


def stc_at(name: str, precision: Precision):
    """The registered STC ``name`` built for ``precision``."""
    config_cls = entry_for(name).config_cls
    if config_cls is Precision:
        return create_stc(name, precision)
    return create_stc(name, config_cls(precision=precision))


@pytest.fixture(params=registered_stcs())
def any_stc(request):
    """Every registered architecture, FP64."""
    return create_stc(request.param)


@pytest.fixture(params=[FP64, FP32])
def precision(request):
    return request.param


def make_block_task(a_density: float, b_density: float, seed: int = 0, n: int = 16):
    """Helper used across simulator tests: a random T1 task."""
    from repro.arch.tasks import T1Task

    gen = np.random.default_rng(seed)
    a = gen.random((16, 16)) < a_density
    b = gen.random((16, n)) < b_density
    return T1Task.from_bitmaps(a, b)


def task_batch(task, weights):
    """``task``'s bitmap pair as a :class:`TaskBatch`, one entry per weight."""
    from repro.kernels.batched import TaskBatch

    index = np.zeros(len(weights), dtype=np.int64)
    return TaskBatch(
        a_patterns=np.frombuffer(task.a_bits, dtype="<u2")[None],
        b_patterns=np.frombuffer(task.b_bits, dtype="<u2")[None],
        a_index=index, b_index=index,
        weights=np.asarray(weights, dtype=np.int64), n=task.n,
    )
