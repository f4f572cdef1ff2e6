"""Exact Dirichlet-character arithmetic and elementary prime-counting tools.

A character mod q is stored as an integer log-index array: on the unit group
chi(n) = exp(2*pi*i * k[n] / m), where m is the exponent of (Z/qZ)* and
k[n] is an integer in [0, m) (-1 where chi vanishes).  Multiplicativity then
holds exactly (integer addition mod m), so the million-term prime sums built
downstream carry no phase drift from the character table itself, and every
derived quantity (phases, parity, conductor, conjugate, inducer, Gauss sum)
is computed from k with integer arithmetic before one correctly rounded
division.

Construction decomposes (Z/qZ)* into cyclic factors by the CRT: one
primitive root per odd prime power, and the {-1, 5} generator pair for 2^k
with k >= 3.  Characters are indexed by exponent tuples over those factors,
enumerated lexicographically, which fixes a deterministic ordering (index 0
is always the principal character).  All k rows of one modulus come from a
single integer product of the exponent table with the discrete-log table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, isqrt

import numpy as np

from .errors import DomainError, ResourceLimitError

__all__ = [
    "SPoint",
    "DirichletCharacter",
    "PrimeTable",
    "enumerate_characters",
    "primitive_inducer",
    "gauss_sum",
    "euler_phi",
    "sieve_primes",
    "li",
    "pnt_class_ratio",
]


# --------------------------------------------------------------------------
# points of the critical strip
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SPoint:
    """Point s = 1/2 + eps + i*t of the critical strip."""

    eps: float
    t: float

    @property
    def s(self) -> complex:
        return complex(0.5 + self.eps, self.t)


# --------------------------------------------------------------------------
# unit group structure of (Z/qZ)*
# --------------------------------------------------------------------------

def _factorize(q: int) -> list[tuple[int, int]]:
    # once p*p exceeds the cofactor n, n is 1 or a prime: stop there, so smooth q is cheap
    out = []
    n = q
    for p in range(2, isqrt(q) + 1):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(q: int) -> int:
    if q < 1:
        raise DomainError("euler_phi requires q >= 1")
    phi = 1
    for p, e in _factorize(q):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _primitive_root_mod_p(p: int) -> int:
    fac = [f for f, _ in _factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            return g
    raise RuntimeError(f"no primitive root found mod {p}")  # unreachable for prime p


def _primitive_root_prime_power(p: int, e: int) -> int:
    # a primitive root g mod p lifts to p^e once g^(p-1) != 1 mod p^2
    g = _primitive_root_mod_p(p)
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _logs(g: int, order: int, modulus: int) -> np.ndarray:
    """Discrete logs to base g mod `modulus`, indexed by residue (0 off <g>)."""
    table = np.zeros(modulus, dtype=np.int64)
    val = 1
    for j in range(order):
        table[val] = j
        val = val * g % modulus
    return table


def _unit_group(q: int) -> tuple[list[int], np.ndarray]:
    """Orders of the cyclic factors of (Z/qZ)* and the discrete log of every
    residue n < q on each factor, as a (factors, q) array."""
    n = np.arange(q)
    orders, rows = [], []
    for p, e in _factorize(q):
        pe = p ** e
        if p == 2:
            # (Z/2^eZ)* = <-1> x <5>; the <5> factor is trivial for e <= 2
            if e >= 2:
                orders.append(2)
                rows.append((n % 4 == 3).astype(np.int64))
            if e >= 3:
                orders.append(pe // 4)
                rows.append(_logs(5, pe // 4, pe)[np.where(n % 4 == 3, -n, n) % pe])
        else:
            order = (p - 1) * p ** (e - 1)
            orders.append(order)
            rows.append(_logs(_primitive_root_prime_power(p, e), order, pe)[n % pe])
    return orders, np.array(rows, dtype=np.int64).reshape(len(orders), q)


# --------------------------------------------------------------------------
# Dirichlet characters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletCharacter:
    """Dirichlet character mod q as an integer log-index array.

    chi(n) = exp(2*pi*i * k[n] / m) for gcd(n, q) = 1, where ``m`` is the
    exponent of (Z/qZ)* (the lcm of its cyclic-factor orders) and ``k`` is a
    read-only integer array of length q with entries in [0, m), and -1 where
    chi vanishes.  ``phase_turns`` is the same data as exact `Fraction` turns
    (None where chi vanishes), built on first use.  ``parity`` is 0 for even
    characters (chi(-1) = 1) and 1 for odd ones.
    """

    q: int
    index: int
    exponents: tuple[int, ...]
    k: np.ndarray
    m: int
    conductor: int
    parity: int
    is_principal: bool
    is_primitive: bool

    @cached_property
    def phase_turns(self) -> tuple[Fraction | None, ...]:
        return tuple(None if r < 0 else Fraction(r, self.m) for r in self.k.tolist())

    def value(self, n: int) -> complex:
        r = int(self.k[n % self.q])
        if r < 0:
            return 0.0 + 0.0j
        a = 2.0 * math.pi * (r / self.m)
        return complex(math.cos(a), math.sin(a))

    def angle(self, n: int) -> float:
        """Phase of chi(n) in radians, in [0, 2*pi).  Requires gcd(n, q)=1."""
        r = int(self.k[n % self.q])
        if r < 0:
            raise DomainError(f"chi({n}) = 0 mod {self.q}; phase undefined")
        return 2.0 * math.pi * (r / self.m)

    def angles_by_residue(self) -> np.ndarray:
        """Array of phases in radians indexed by residue, NaN off the units."""
        return np.where(self.k >= 0, 2.0 * math.pi * (self.k / self.m), np.nan)

    def conjugate(self) -> "DirichletCharacter":
        # the conjugate's exponents are the negated ones, so its k is -k mod m;
        # the last character in the enumeration holds the factor orders minus 1
        chars = enumerate_characters(self.q)
        index = 0
        for e, top in zip(self.exponents, chars[-1].exponents):
            index = index * (top + 1) + (-e) % (top + 1)
        return chars[index]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.q == other.q
            and np.array_equal(self.k, other.k)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.k.tobytes()))


def _divisors(q: int) -> list[int]:
    divs = [1]
    for p, e in _factorize(q):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


# the table holds several (phi(q), q) int64 arrays, about 16 B per cell at its peak
_MAX_CHARACTER_CELLS = 1 << 24


@lru_cache(maxsize=None)
def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, ordered by exponent tuple (principal first)."""
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    if q > _MAX_CHARACTER_CELLS:  # phi(q) >= 1, so at least q cells: refused before factorising
        raise ResourceLimitError(f"the character table mod {q} has at least {q} cells, "
                                 f"over the {_MAX_CHARACTER_CELLS}-cell budget")
    cells = euler_phi(q) * q
    if cells > _MAX_CHARACTER_CELLS:
        raise ResourceLimitError(f"the character table mod {q} has {cells} cells, "
                                 f"over the {_MAX_CHARACTER_CELLS}-cell budget")
    orders, dlog = _unit_group(q)
    m = math.lcm(*orders)
    tuples = list(product(*map(range, orders)))
    exps = np.array(tuples, dtype=np.int64).reshape(len(tuples), len(orders))
    n = np.arange(q)
    units = np.gcd(n, q) == 1
    K = np.where(units, (exps * (m // np.array(orders, dtype=np.int64))) @ dlog % m, -1)
    K.setflags(write=False)
    # conductor: the smallest d | q with chi trivial on the units = 1 mod d
    conductor = np.empty(len(K), dtype=np.int64)
    for d in reversed(_divisors(q)):
        conductor[np.all(K[:, units & (n % d == 1 % d)] == 0, axis=1)] = d
    return tuple(
        DirichletCharacter(q=q, index=i, exponents=tuples[i], k=K[i], m=m, conductor=d,
                           parity=int(K[i, q - 1] != 0), is_principal=d == 1, is_primitive=d == q)
        for i, d in enumerate(conductor.tolist())
    )


def primitive_inducer(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod conductor(chi) that induces chi."""
    d = chi.conductor
    if d == chi.q:
        return chi
    chars = enumerate_characters(d)
    # lift each residue r mod d to the smallest n = r (mod d) coprime to q
    # (non-units mod d stay non-units, k = -1); the exponent of (Z/dZ)*
    # divides chi.m, so psi.k = chi.k[lift] * psi.m / chi.m exactly, and
    # floor division keeps the -1
    lifts = np.arange(chi.q).reshape(-1, d)
    lift = lifts[np.argmax(np.gcd(lifts, chi.q) == 1, axis=0), np.arange(d)]
    wanted = (chi.k[lift] // (chi.m // chars[0].m)).tobytes()
    for psi in chars:
        if psi.k.tobytes() == wanted:
            return psi
    raise RuntimeError("inducing character not found")  # unreachable


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over n of chi(n) exp(2*pi*i*n/q), in double precision.

    chi(n) e(n/q) = e((r*q + n*m) / (m*q)) with r = k[n]: the angle of each
    term n = 1..q with r >= 0 is 2*pi * (((r*q + n*m) mod m*q) / (m*q)), the
    turn reduced mod 1 in exact integer arithmetic, then one correctly rounded
    division.  The cell budget keeps q <= 2^24, so m*q < 2^48: int64 does not
    wrap and the conversions to float64 are exact.  The row is formed with
    numpy; cos and sin come from `math`, per element, and each part is summed
    with math.fsum, so the bits do not depend on numpy's vectorised
    transcendentals.
    """
    q, m = chi.q, chi.m
    n = np.arange(1, q + 1)
    r = chi.k[n % q]
    n, r = n[r >= 0], r[r >= 0]
    angles = (2.0 * math.pi * (((r * q + n * m) % (m * q)) / (m * q))).tolist()
    return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))


# --------------------------------------------------------------------------
# primes
# --------------------------------------------------------------------------

_SEGMENT_SIZE = 1 << 20
_DEFAULT_P_BUDGET = 10 ** 8


@dataclass
class PrimeTable:
    """Sorted primes <= p_max and the modulus q they were requested for.

    q is recorded, not applied: every prime is kept, and the estimators reduce the primes
    mod their own character's modulus.  The table holds the primes alone, with no cached
    log or residue array: each estimator leaf takes log p of its own primes.
    """

    p_max: int
    q: int
    primes: np.ndarray            # int64, strictly increasing

    def count(self) -> int:
        return int(self.primes.size)


def _simple_sieve(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def sieve_primes(p_max: int, q: int = 1, *, p_budget: int = _DEFAULT_P_BUDGET) -> PrimeTable:
    """Segmented Eratosthenes sieve up to p_max over odd numbers only, bound to modulus q.

    The primes up to sqrt(p_max) come from `_simple_sieve`; past them each segment holds
    _SEGMENT_SIZE consecutive odd numbers lo, lo + 2, ..., and each odd prime p strikes every
    p-th cell from its first odd multiple at or past max(p^2, lo).  Every prime is written
    straight into one int64 buffer of int(1.25506 p_max / log p_max) + 2 entries, which
    pi(x) < 1.25506 x / log x for x > 1 (Rosser and Schoenfeld, Illinois J. Math. 6, 1962)
    shows is never short; the table is its filled prefix, and the pages past it are never
    touched, so they never become resident.
    """
    if p_max < 2:
        raise DomainError("p_max must be at least 2")
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    if p_max > p_budget:
        raise ResourceLimitError(
            f"p_max={p_max} exceeds the configured budget {p_budget}"
        )

    root = isqrt(p_max)
    base = _simple_sieve(root)[1:].tolist()  # the odd primes up to the root
    out = np.empty(int(1.25506 * p_max / math.log(p_max)) + 2, dtype=np.int64)
    count = len(base) + 1
    out[:count] = [2] + base
    lo = root + 1 | 1
    cells = np.empty(min(_SEGMENT_SIZE, (p_max - lo) // 2 + 1), dtype=bool)
    while lo <= p_max:
        seg = cells[:(p_max - lo) // 2 + 1]
        seg.fill(True)
        for p in base:  # p times the least odd k >= p with p k >= lo
            seg[(p * max(p, (lo + p - 1) // p | 1) - lo) // 2:: p] = False
        idx = np.flatnonzero(seg)
        dst = out[count:count + idx.size]
        np.add(np.multiply(idx, 2, dst), lo, dst)
        count, lo = count + idx.size, lo + 2 * seg.size
        del idx  # before the next segment's indices exist
    return PrimeTable(p_max=p_max, q=q, primes=out[:count])


# --------------------------------------------------------------------------
# logarithmic integral and prime counting
# --------------------------------------------------------------------------

_EI_BITS = 96  # fixed-point bits of Ei's series sum


def _ei(u: float) -> float:
    # Ei(u) for 0 < u <= log(1.8e308) by its positive power series gamma + log u +
    # sum_k u^k/(k k!), terms k = 1..K with K = u + 9 sqrt(u) + 20 fixed by u: the dropped
    # ones are a Poisson tail past nine standard deviations, below 1e-17 of the sum.  The
    # sum runs in exact integers scaled by 2^_EI_BITS, so its ~K chained products each
    # round once at that scale, not at the 53rd bit, where their rounding would reach 6e-15
    num, den = u.as_integer_ratio()
    power, total = 1 << _EI_BITS, 0
    for k in range(1, int(u + 9.0 * math.sqrt(u)) + 21):
        power = power * num // (den * k)
        total += power // k
    return float(np.euler_gamma) + math.log(u) + total / (1 << _EI_BITS)


def li(x: float) -> float:
    """Logarithmic integral from 2: integral of dy/log(y) over [2, x] = Ei(log x) - Ei(log 2)."""
    if not x >= 2.0:
        raise DomainError(f"li(x) requires x >= 2, got {x}")
    if x == math.inf:
        return math.inf
    return _ei(math.log(x)) - _ei(math.log(2.0))


def pnt_class_ratio(x: float, q: int, table: PrimeTable | None = None) -> dict[int, float]:
    """pi(x; q, h) * phi(q) / Li(x) for every reduced class h mod q, from any table reaching x."""
    if not 10 <= x < math.inf:
        raise DomainError(f"pnt_class_ratio requires a finite x >= 10, got {x}")
    if q < 1:
        raise DomainError("modulus must be a positive integer")
    if table is None or table.p_max < int(x):
        table = sieve_primes(int(x))
    primes = table.primes[:np.searchsorted(table.primes, x, side="right")]
    counts = np.bincount(primes % q, minlength=q)
    phi = euler_phi(q)
    li_x = li(float(x))
    return {h: int(counts[h]) * phi / li_x for h in range(q) if gcd(h, q) == 1}
