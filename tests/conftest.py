import os

# Tier-1 runs many small dense kernels (a Krylov test takes over a thousand
# 41x41 exponentials); OpenBLAS's thread start-up makes each far slower than
# the work on a two-core machine.  Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, n_sites):
    dim = 2 ** n_sites
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, n_sites):
    dim = 2 ** n_sites
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def basis_density(bits):
    dim = 2 ** len(bits)
    i = int("".join(str(b) for b in bits), 2)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[i, i] = 1.0
    return rho


def ghz_density(n_sites):
    dim = 2 ** n_sites
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())
