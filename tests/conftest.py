import math

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus

from rdcn_throughput import NetworkParams, flowlp

_LINPROG = flowlp.linprog


def sinkhorn_doubly_stochastic(n, seed, target=1.0, zero_diagonal=False):
    """Independent Sinkhorn projection used to produce test inputs."""
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) + 0.05
    if zero_diagonal:
        np.fill_diagonal(m, 0.0)
    for _ in range(4000):
        m *= target / m.sum(axis=1, keepdims=True)
        m *= target / m.sum(axis=0, keepdims=True)
        if max(np.abs(m.sum(axis=1) - target).max(),
               np.abs(m.sum(axis=0) - target).max()) < 1e-14 * max(target, 1.0):
            break
    return m


@pytest.fixture
def desk_params():
    return NetworkParams(16, 4, 25e9)


def exact_only(patch):
    """With `patch` (a monkeypatch or its context), every crossover-free
    interior-point solve of a heuristic step ends unsolved, so each residual
    LP is decided on its exact optimum, as below SIMPLEX_MAX_COLUMNS."""
    def linprog(*args, crossover=True, **kwargs):
        if crossover:
            return _LINPROG(*args, **kwargs)
        return flowlp.LPResult(HighsModelStatus.kNotset, None, 0, "not solved")

    patch.setattr(flowlp, "linprog", linprog)


def no_skip(patch):
    """With `patch` (a monkeypatch or its context), no heuristic step is
    skipped on its bound lambda_b: every step whose direct links leave some
    demand reaches its LP."""
    patch.setattr(flowlp, "SKIP_MARGIN", math.inf)
