"""Character arithmetic, sieving and Li against independent oracles."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lphase import arith
from lphase.errors import DomainError, ResourceLimitError


# --------------------------------------------------------------------------
# character enumeration
# --------------------------------------------------------------------------

def test_counts_and_unique_principal():
    for q in range(1, 51):
        chars = arith.enumerate_characters(q)
        assert len(chars) == arith.euler_phi(q)
        assert sum(c.is_principal for c in chars) == 1
        assert chars[0].is_principal  # all-zero exponent tuple comes first


def test_trivial_character_mod_1():
    (chi,) = arith.enumerate_characters(1)
    assert chi.is_principal and chi.is_primitive and chi.conductor == 1
    assert all(chi.value(n) == 1.0 for n in range(1, 8))


def test_table_mod5_exact_rows():
    F = Fraction
    rows = {tuple(c.phase_turns[1:]) for c in arith.enumerate_characters(5)}
    assert rows == {
        (F(0), F(0), F(0), F(0)),
        (F(0), F(1, 4), F(3, 4), F(1, 2)),
        (F(0), F(1, 2), F(1, 2), F(0)),
        (F(0), F(3, 4), F(1, 4), F(1, 2)),
    }


def test_mod8_brute_force_all_sign_maps_arise():
    # (Z/8Z)* is generated by {3, 7}; every +-1 assignment on the generators
    # extends to a character, and all four must appear in the enumeration
    chars = arith.enumerate_characters(8)
    assert len(chars) == 4
    seen = {(c.value(3).real > 0, c.value(7).real > 0) for c in chars}
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    for c in chars:
        for n in (1, 3, 5, 7):
            assert c.phase_turns[n] in (Fraction(0), Fraction(1, 2))
        assert abs(c.value(3) * c.value(7) - c.value(5)) < 1e-15  # 3*7 = 21 = 5 mod 8


def test_multiplicativity_exact_random_pairs(rng):
    # every pair of units on the integer log-index (exact), and random pairs one at a time
    for q in range(1, 51):
        units = np.array([n for n in range(1, q + 1) if gcd(n, q) == 1]) % q
        prod = np.multiply.outer(units, units) % q
        for chi in arith.enumerate_characters(q):
            k, ku = chi.k, chi.k[units]
            assert np.array_equal(k[prod], (ku[:, None] + ku[None, :]) % chi.m)
            for a, b in rng.choice(units, size=(20, 2)).tolist():
                assert k[a * b % q] == (k[a] + k[b]) % chi.m


def test_periodicity_and_modulus():
    for q in (5, 8, 12):
        for chi in arith.enumerate_characters(q):
            for n in range(1, 2 * q):
                assert chi.value(n + q) == chi.value(n)
                assert (chi.k[n % q] >= 0) == (gcd(n, q) == 1)
                if gcd(n, q) == 1:
                    assert abs(abs(chi.value(n)) - 1.0) < 1e-15
                else:
                    assert chi.value(n) == 0.0


def test_parity_matches_value_at_minus_one():
    for q in (3, 4, 5, 7, 8, 9, 12, 15):
        for chi in arith.enumerate_characters(q):
            k = int(chi.k[q - 1])  # chi(-1) = +-1: k is 0 or m/2
            assert 2 * k % chi.m == 0
            assert chi.parity == (0 if k == 0 else 1)


# --------------------------------------------------------------------------
# conductor and primitivity
# --------------------------------------------------------------------------

def _conductor_oracle(chi):
    # independent brute force: smallest divisor d of q such that chi(m) == chi(n)
    # whenever m = n (mod d) and both are coprime to q
    q = chi.q
    for d in sorted({x for x in range(1, q + 1) if q % x == 0}):
        ok = True
        for m in range(1, q + 1):
            if gcd(m, q) != 1:
                continue
            for n in range(m, q + 1, d):
                if gcd(n, q) == 1 and chi.k[m % q] != chi.k[n % q]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return d
    return q


def test_conductor_against_oracle():
    for q in range(1, 31):
        for chi in arith.enumerate_characters(q):
            assert chi.conductor == _conductor_oracle(chi)
            assert chi.is_primitive == (chi.conductor == q)


def test_prime_modulus_all_primitive_or_principal():
    for chi in arith.enumerate_characters(5):
        if not chi.is_principal:
            assert (chi.conductor, chi.is_primitive) == (5, True)


def test_q6_q10_have_no_primitive_characters():
    for q in (6, 10):
        assert not any(c.is_primitive for c in arith.enumerate_characters(q))


def test_q9_character_induced_from_mod3():
    induced = [c for c in arith.enumerate_characters(9) if c.conductor == 3]
    assert len(induced) == 1 and not induced[0].is_primitive
    psi = arith.primitive_inducer(induced[0])
    assert psi.q == 3 and psi.parity == 1
    for n in (1, 2, 4, 5, 7, 8):  # equal turns k/m, compared across the two exponents m
        assert psi.k[n % 3] * induced[0].m == induced[0].k[n] * psi.m


def test_bad_modulus_rejected():
    with pytest.raises(DomainError):
        arith.enumerate_characters(0)


def test_character_table_refused_past_cell_budget(monkeypatch):
    with pytest.raises(ResourceLimitError):
        arith.enumerate_characters(10 ** 6)  # 4e11 cells
    build = arith.enumerate_characters.__wrapped__  # past the cache
    monkeypatch.setattr(arith, "_MAX_CHARACTER_CELLS", 42)  # phi(7) * 7
    assert len(build(7)) == 6
    monkeypatch.setattr(arith, "_unit_group", None)  # refused before the unit group is built
    with pytest.raises(ResourceLimitError, match="110 cells"):
        build(11)


def test_huge_modulus_refused_before_factorising(monkeypatch):
    # phi(q) >= 1, so a modulus over the cell budget is refused on q alone: 2^61 - 1 is
    # prime and trial division to its square root would take about 1.5e9 steps
    def factorize(q):
        raise AssertionError(f"factorised {q}")

    monkeypatch.setattr(arith, "_factorize", factorize)
    with pytest.raises(ResourceLimitError, match="at least 2305843009213693951 cells"):
        arith.enumerate_characters(2 ** 61 - 1)


def _full_trial_division(q):
    # every p up to isqrt(q), whatever the cofactor left
    out, n = [], q
    for p in range(2, math.isqrt(q) + 1):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_matches_full_trial_division():
    for q in [*range(1, 5001), 10 ** 12, 2 ** 40, 630]:
        assert arith._factorize(q) == _full_trial_division(q), q


# --------------------------------------------------------------------------
# Gauss sums and reduced phase sums
# --------------------------------------------------------------------------

def test_gauss_sum_modulus_law():
    for q in range(1, 51):
        for chi in arith.enumerate_characters(q):
            if chi.is_primitive:
                assert abs(abs(arith.gauss_sum(chi)) ** 2 - q) < 1e-9


def test_gauss_sum_small_cases(chi3):
    assert arith.gauss_sum(arith.enumerate_characters(1)[0]) == pytest.approx(1.0)
    tau = arith.gauss_sum(chi3)
    assert abs(tau - 1j * math.sqrt(3)) < 1e-12  # hand oracle: e^(2pi i/3) - e^(4pi i/3)


@pytest.mark.parametrize("q", [397, 401, 409, 512, 570, 630])
def test_gauss_sum_bit_identical_to_integer_comprehension(q, gauss_comprehension):
    # bit for bit, signed zeros included
    for chi in arith.enumerate_characters(q):
        tau, ref = arith.gauss_sum(chi), gauss_comprehension(chi)
        assert (tau.real.hex(), tau.imag.hex()) == (ref.real.hex(), ref.imag.hex()), chi.index


def test_conjugate_character(chi5_odd):
    conj = chi5_odd.conjugate()
    for n in range(1, 5):
        assert abs(conj.value(n) - chi5_odd.value(n).conjugate()) < 1e-15


# --------------------------------------------------------------------------
# the integer log-index core against the exact Fraction construction
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fraction_rows(q):
    """Phase rows of all characters mod q as Fraction turns (None off the units).

    Reference construction: per-factor discrete-log dicts and a Fraction sum
    over the factors reduced mod 1, in the library's exponent order.
    """
    factors = []  # (prime power, order, residue -> discrete log)
    for p, e in arith._factorize(q):
        pe = p ** e
        if p == 2 and e == 2:
            factors.append((4, 2, {1: 0, 3: 1}))
        elif p == 2 and e >= 3:
            half = pe // 4
            log_minus, log_five = {}, {}
            val = 1
            for j in range(half):
                log_minus[val], log_five[val] = 0, j
                log_minus[pe - val], log_five[pe - val] = 1, j
                val = val * 5 % pe
            factors += [(pe, 2, log_minus), (pe, half, log_five)]
        elif p != 2:
            g = arith._primitive_root_prime_power(p, e)
            order = (p - 1) * p ** (e - 1)
            table, val = {}, 1
            for j in range(order):
                table[val] = j
                val = val * g % pe
            factors.append((pe, order, table))
    rows = []
    for exps in product(*(range(order) for _, order, _ in factors)):
        turns = []
        for n in range(q):
            if gcd(n, q) != 1:
                turns.append(None)
                continue
            r = Fraction(0)
            for a, (pe, order, dlog) in zip(exps, factors):
                r += Fraction(a * dlog[n % pe], order)
            turns.append(r % 1)
        rows.append(tuple(turns))
    return rows


def _reference_conductor(q, turns):
    for d in sorted(x for x in range(1, q + 1) if q % x == 0):
        if all(turns[n] in (0, None) for n in range(1 % d, q, d)):
            return d


@lru_cache(maxsize=None)
def _row_index(q):
    return {row: i for i, row in enumerate(_fraction_rows(q))}


def _reference_inducer(q, turns, d):
    wanted = [None] * d
    for a in range(d):
        if gcd(a, d) == 1:
            n = a
            while gcd(n, q) != 1:  # lift a to a residue coprime to q
                n += d
            wanted[a] = turns[n % q]
    return _row_index(d)[tuple(wanted)]


def _reference_gauss_sum(q, turns):
    re_parts, im_parts = [], []
    for n in range(1, q + 1):
        r = turns[n % q]
        if r is not None:
            a = 2.0 * math.pi * float((r + Fraction(n, q)) % 1)
            re_parts.append(math.cos(a))
            im_parts.append(math.sin(a))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


@pytest.mark.parametrize("qs", [range(1, 61), (512, 630)], ids=["q<=60", "q=512,630"])
def test_log_index_core_matches_fraction_oracle(qs):
    for q in qs:
        rows = _fraction_rows(q)
        chars = arith.enumerate_characters(q)
        assert len(chars) == len(rows)
        for chi, turns in zip(chars, rows):
            assert chi.phase_turns == turns
            angles = np.array([np.nan if r is None else 2.0 * math.pi * float(r) for r in turns])
            assert chi.angles_by_residue().tobytes() == angles.tobytes()
            for n, r in enumerate(turns):
                if r is None:
                    assert chi.value(n) == 0.0
                else:
                    a = 2.0 * math.pi * float(r)
                    assert chi.angle(n) == a
                    assert chi.value(n) == complex(math.cos(a), math.sin(a))
            assert arith.gauss_sum(chi) == _reference_gauss_sum(q, turns)
            assert chi.conductor == _reference_conductor(q, turns)
            assert chi.parity == (0 if turns[q - 1] == 0 else 1)
            conj = tuple(None if r is None else -r % 1 for r in turns)
            assert chi.conjugate().index == _row_index(q)[conj]
            psi = arith.primitive_inducer(chi)
            assert (psi.q, psi.index) == (chi.conductor, _reference_inducer(q, turns, chi.conductor))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q=st.integers(1, 300), pick=st.floats(0.0, 1.0, exclude_max=True))
def test_character_properties(q, pick):
    chars = arith.enumerate_characters(q)
    chi = chars[int(pick * len(chars))]
    units = chi.k >= 0
    conj = chi.conjugate()
    assert conj.conjugate() == chi
    assert np.array_equal(conj.k >= 0, units)
    assert np.all((chi.k + conj.k)[units] % chi.m == 0)
    assert q % chi.conductor == 0
    psi = arith.primitive_inducer(chi)
    assert psi.q == chi.conductor and psi.is_primitive
    n = np.nonzero(units)[0]
    assert np.array_equal(psi.k[n % psi.q] * chi.m, chi.k[n] * psi.m)


# --------------------------------------------------------------------------
# sieve
# --------------------------------------------------------------------------

def _oracle_sieve(n):
    # one-shot boolean sieve, independent of the segmented implementation
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0]


def test_sieve_small():
    table = arith.sieve_primes(10)
    assert table.primes.tolist() == [2, 3, 5, 7]


@pytest.mark.parametrize("p_max, want", [(2, [2]), (3, [2, 3]), (4, [2, 3])])
def test_sieve_keeps_two_below_the_first_odd_segment(p_max, want):
    # below p_max = 4 no base prime exists and the odd-only segments start past 2
    got = arith.sieve_primes(p_max).primes
    assert got.dtype == np.int64 and got.tolist() == want


def test_sieve_count_1e6_against_second_implementation(monkeypatch):
    monkeypatch.setattr(arith, "_SEGMENT_SIZE", 1 << 16)  # 15 segment edges below 1e6
    table = arith.sieve_primes(10 ** 6, 3)
    oracle = _oracle_sieve(10 ** 6)
    assert table.count() == 78498 == len(oracle)
    assert np.array_equal(table.primes, oracle)
    assert np.all(np.diff(table.primes) > 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(segment=st.sampled_from([1, 2, 3, 7, 8, 64, 1000]),
       p_max=st.integers(2, 399) | st.sampled_from([1000, 4096, 10007, 65536]))
def test_sieve_matches_simple_sieve_across_segment_sizes(segment, p_max):
    # small segments put p_max on or next to a segment edge; at most 2000 segments per example
    # keep the Python loop short.  The constant is patched here, not by the function-scoped
    # monkeypatch fixture, which hypothesis rejects
    assume(p_max <= 2000 * segment)
    saved, arith._SEGMENT_SIZE = arith._SEGMENT_SIZE, segment
    try:
        got = arith.sieve_primes(p_max).primes
    finally:
        arith._SEGMENT_SIZE = saved
    assert got.dtype == np.int64
    assert np.array_equal(got, arith._simple_sieve(p_max))


def _buffer_entries(p_max):
    # the sieve's one buffer: pi(x) < 1.25506 x / log x for x > 1 (Rosser and Schoenfeld,
    # Illinois J. Math. 6, 1962), tightest at x = 113, plus two entries for the rounding
    return int(1.25506 * p_max / math.log(p_max)) + 2


def test_sieve_buffer_holds_every_prime_to_5000():
    # every p_max from 2 to 5,000, one segment each: a short buffer would raise on the write
    # past its end, and the table is the buffer's filled prefix
    oracle = arith._simple_sieve(5000)
    for p_max in range(2, 5001):
        got = arith.sieve_primes(p_max).primes
        assert np.array_equal(got, oracle[:np.searchsorted(oracle, p_max, side="right")])
        assert got.base.size == _buffer_entries(p_max) >= got.size


def test_sieve_on_both_sides_of_each_segment_edge():
    # segment k ends at the odd lo + 2 k _SEGMENT_SIZE - 2, lo = isqrt(p_max) + 1 | 1: p_max
    # on, and next to, the last cell of a segment and the first cell of the next, for the
    # four edges below 1e7
    oracle = arith._simple_sieve(10 ** 7)
    for k in range(1, 5):
        near = 2 * k * arith._SEGMENT_SIZE
        edge = (math.isqrt(near) + 1 | 1) + near
        for p_max in range(edge - 3, edge + 2):
            assert (math.isqrt(p_max) + 1 | 1) + near == edge
            got = arith.sieve_primes(p_max).primes
            assert np.array_equal(got, oracle[:np.searchsorted(oracle, p_max, side="right")])
            assert got.base.size == _buffer_entries(p_max)


def test_sieve_peak_is_one_buffer_and_one_segment(traced_peak):
    # the primes go straight into the buffer: no chunk list and no concatenated copy (that
    # sieve peaked at 2.15 times the primes' bytes at 1e7).  Besides the buffer a segment
    # holds its cells, one byte each, and the int64 offsets of its primes; the first
    # segment has the most
    p_max, cells = 10 ** 7, arith._SEGMENT_SIZE
    table = arith.sieve_primes(p_max)
    lo = math.isqrt(p_max) + 1 | 1
    edges = np.searchsorted(table.primes, list(range(lo, p_max + 1, 2 * cells)) + [p_max + 1])
    segment = cells + 8 * int(np.diff(edges).max())
    peak = traced_peak(lambda: arith.sieve_primes(p_max))
    assert peak <= 8 * _buffer_entries(p_max) + segment + (64 << 10)
    assert peak < 1.7 * table.primes.nbytes


def test_sieve_class_partition_q4():
    table = arith.sieve_primes(100, 4)
    primes = table.primes
    assert primes[primes % 4 == 1].tolist() == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    # union of coprime classes plus primes dividing q recovers everything
    total = sum(int(np.sum(primes % 4 == h)) for h in (1, 3))
    residues = table.primes % 4
    assert total + int(np.sum(residues == 0)) + int(np.sum(residues == 2)) == table.count()


def test_sieve_union_property_q6():
    table = arith.sieve_primes(500, 6)
    coprime = sum(int(np.sum(table.primes % 6 == h)) for h in (1, 5))
    dividing = int(np.sum((table.primes == 2) | (table.primes == 3)))
    assert coprime + dividing == table.count()


def test_sieve_resource_guard():
    with pytest.raises(ResourceLimitError):
        arith.sieve_primes(10 ** 9)
    with pytest.raises(DomainError):
        arith.sieve_primes(1)


# --------------------------------------------------------------------------
# logarithmic integral and class counts
# --------------------------------------------------------------------------

def _li_oracle(x, panels=200):
    # composite 24-point Gauss-Legendre on u = log y: integral of e^u/u du
    nodes, weights = np.polynomial.legendre.leggauss(24)
    lo, hi = math.log(2.0), math.log(x)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        u = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(weights * np.exp(u) / u)
    return total


def test_li_values():
    assert arith.li(2.0) == 0.0
    x = 10 ** 6
    val = arith.li(x)
    assert val == pytest.approx(_li_oracle(x), abs=1e-6)
    assert val == pytest.approx(78626.50, abs=0.01)
    assert arith.li(10 ** 5) < arith.li(10 ** 6)
    with pytest.raises(DomainError):
        arith.li(1.5)


def test_li_refuses_nan_and_keeps_inf():
    with pytest.raises(DomainError):
        arith.li(math.nan)
    assert arith.li(math.inf) == math.inf


def test_pnt_class_ratios():
    r4 = arith.pnt_class_ratio(1e6, 4)
    assert set(r4) == {1, 3}
    assert all(0.99 <= v <= 1.01 for v in r4.values())
    r1 = arith.pnt_class_ratio(1e6, 1)
    assert abs(r1[0] - 0.99840) < 1e-3
    r3 = arith.pnt_class_ratio(100.0, 3)
    assert all(0.7 <= v <= 1.3 for v in r3.values())


def test_pnt_class_ratio_refuses_non_finite_x():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            arith.pnt_class_ratio(x, 4)


def test_pnt_class_ratio_counts_classes_of_any_table(monkeypatch):
    # a table sieved mod 3 counts the classes mod 4 as a mod-4 table does, without a re-sieve
    ref = arith.pnt_class_ratio(1e6, 4, table=arith.sieve_primes(10 ** 6, 4))
    table = arith.sieve_primes(10 ** 6, 3)

    def no_sieve(*args, **kwargs):
        raise AssertionError("pnt_class_ratio sieved although the table reaches x")

    monkeypatch.setattr(arith, "sieve_primes", no_sieve)
    assert arith.pnt_class_ratio(1e6, 4, table=table) == ref


def test_spoint():
    s = arith.SPoint(0.25, 3.0)
    assert s.s == complex(0.75, 3.0)
