import numpy as np
import pytest

from fasris.scenarios import random_correlation, random_scenario


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that gains one entry per np.linalg.eigh call in the test."""
    calls = []

    def counted(A, *args, _eigh=np.linalg.eigh, **kw):
        calls.append(None)
        return _eigh(A, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture
def small_uncommon(rng):
    return random_scenario(rng, "uncommon", M=12, K=4, L=8, sigma2=0.4)


@pytest.fixture
def small_common(rng):
    return random_scenario(rng, "common", M=14, K=5, L=10, sigma2=0.4)


def rel_err(a, b, floor=1e-300):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def single_hop_mu(F_list, z, M, tol=1e-13, iters=20000):
    """Independent single-hop oracle: mu_k = tr(F_k T)/M with
    T = (z I + sum_l F_l / (M (1+mu_l)))^{-1}."""
    K = len(F_list)
    mu = np.ones(K)
    for _ in range(iters):
        T = np.linalg.inv(z * np.eye(F_list[0].shape[0])
                          + sum(F / (M * (1 + m)) for F, m in zip(F_list, mu)))
        mu_new = np.array([np.real(np.trace(F @ T)) / M for F in F_list])
        if np.max(np.abs(mu_new - mu) / np.maximum(mu_new, 1e-12)) < tol:
            return mu_new
        mu = mu_new
    raise RuntimeError("oracle did not converge")
