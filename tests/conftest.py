import tracemalloc

import numpy as np
import pytest

from lphase import arith


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
