import math
import tracemalloc

import numpy as np
import pytest

from lphase import arith, gammaphase as gp
from lphase.arith import SPoint
from lphase.errors import NumericalInstabilityError


@pytest.fixture(scope="session")
def primes_1e5_q3():
    return arith.sieve_primes(10 ** 5, 3)


@pytest.fixture(scope="session")
def primes_1e6_q3():
    return arith.sieve_primes(10 ** 6, 3)


@pytest.fixture(scope="session")
def primes_1e5_q5():
    return arith.sieve_primes(10 ** 5, 5)


@pytest.fixture(scope="session")
def chi3():
    return arith.enumerate_characters(3)[1]


@pytest.fixture(scope="session")
def chi4():
    return arith.enumerate_characters(4)[1]


@pytest.fixture(scope="session")
def chi5_real():
    return arith.enumerate_characters(5)[2]


@pytest.fixture(scope="session")
def chi5_odd():
    return arith.enumerate_characters(5)[1]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(173205080)


@pytest.fixture(scope="session")
def ref_mixed():
    """mixed(t, alpha, n_terms): the eps-difference Richardson ladder of the product route's
    n_terms-term prefactor-phase t-derivative, written out."""
    def mixed(t, alpha, n_terms=10 ** 5):
        f = lambda e: gp.gw_dphase_dt(SPoint(e, t), alpha, n_terms)
        h = max(1e-5, 1e-4 * t)
        d = []
        scale = 1.0
        for step in (h, h / 2.0, h / 4.0):
            fp, fm = f(step), f(-step)
            scale = max(scale, abs(fp), abs(fm))
            d.append((fp - fm) / (2.0 * step))
        r1 = (4.0 * d[1] - d[0]) / 3.0
        r2 = (4.0 * d[2] - d[1]) / 3.0
        tol = max(1e-6 * max(abs(r1), abs(r2)), 1e4 * np.finfo(float).eps * scale / h)
        if abs(r2 - r1) > tol:
            raise NumericalInstabilityError("ladder")
        return (16.0 * r2 - r1) / 15.0
    return mixed


@pytest.fixture(scope="session")
def gauss_comprehension():
    """tau(chi) by a per-residue comprehension over the Python-int log indices: each angle
    2*pi * (((k[n]*q + n*m) mod m*q) / (m*q)), the quotient of two Python ints, and cos
    and sin from `math`, each part summed with math.fsum."""
    def tau(chi) -> complex:
        q, m, ks = chi.q, chi.m, chi.k.tolist()
        angles = [2.0 * math.pi * (((ks[n % q] * q + n * m) % (m * q)) / (m * q))
                  for n in range(1, q + 1) if ks[n % q] >= 0]
        return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))
    return tau


@pytest.fixture
def traced_peak():
    """peak(f): the most bytes held during f() beyond those held before it, by tracemalloc,
    to which numpy reports its array buffers."""
    def peak(f) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak
