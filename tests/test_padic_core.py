import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fglab import padic
from fglab.padic import (
    _fp_polmul,
    RingDescriptor,
    UnramifiedRingElem,
    components,
    is_prime,
    minimal_modulus,
    multiplicative_generator,
    multiplicative_order,
    residue_power_test,
    residues,
    root_of_unity,
    teichmuller_digits,
    teichmuller_lift,
    valuations,
)


def test_descriptor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RingDescriptor(2, 1, 4)
    with pytest.raises(ValueError):
        RingDescriptor(4, 1, 4)
    with pytest.raises(ValueError):
        RingDescriptor(3, 0, 4)
    with pytest.raises(ValueError):
        RingDescriptor(3, 1, 0)
    # the modulus is not a parameter: it is always minimal_modulus(p, f)
    with pytest.raises(TypeError):
        RingDescriptor(3, 2, 4, (1, 0, 1))
    assert RingDescriptor(5, 2, 4).modulus == minimal_modulus(5, 2)


def test_minimal_modulus_choices():
    assert minimal_modulus(3, 1) == (0, 1)
    assert minimal_modulus(3, 2) == (1, 0, 1)  # X^2 + 1, since -1 is not a square mod 3
    assert minimal_modulus(5, 2) == (2, 0, 1)  # X^2 + 2, since -1 and -2... -2 first non-square shift
    # X^6 + X + 1 and X^12 + X^2 + 1 pass X^(3^f) = X but vanish at X = 1
    assert minimal_modulus(3, 6) == (2, 1, 0, 0, 0, 0, 1)
    assert minimal_modulus(3, 12) == (2, 0, 1) + (0,) * 9 + (1,)


def has_monic_factor(poly, p):
    """Trial division of poly (low coefficients first, monic) by every
    monic polynomial over F_p of degree 1 .. deg/2, all of one degree at
    once."""
    f = len(poly) - 1
    for k in range(1, f // 2 + 1):
        codes = np.arange(p**k)[:, None]
        divs = np.hstack([codes // p ** np.arange(k) % p, np.ones_like(codes)])
        rem = np.tile(np.array(poly), (len(divs), 1))
        for i in range(f, k - 1, -1):
            rem[:, i - k:i + 1] = (rem[:, i - k:i + 1] - rem[:, i:i + 1] * divs) % p
        if not rem.any(axis=1).all():
            return True
    return False


@pytest.mark.parametrize("p", [3, 5, 7])
def test_minimal_modulus_equals_trial_division_search(p):
    # the first code, low coefficients as base-p digits, with no factor
    for f in range(1, 13):
        code = next(c for c in range(p**f)
                    if not has_monic_factor([c // p**i % p for i in range(f)] + [1], p))
        assert minimal_modulus(p, f) == tuple(code // p**i % p for i in range(f)) + (1,)


def test_add_wraps_mod_p_to_the_N():
    d = RingDescriptor(3, 1, 2)
    five = d.from_int(5)
    assert (five + five).coeffs == (1,)  # 10 = 9 + 1


def test_element_arithmetic_reads_every_scalar():
    # a non-element operand goes through components and residues, as the
    # series and the torsion model read scalars
    d = RingDescriptor(3, 1, 4)
    one = d.one()
    assert one * np.int64(2) == d.from_int(2)
    assert one * Fraction(1, 2) == d.from_int(41)  # 2^-1 mod 81
    assert one + 1 == d.from_int(2)
    assert one - Fraction(1, 2) == d.from_int(1 - 41)
    assert d.from_int(5) * 2 == d.from_int(10)  # the int fast path
    with pytest.raises(TypeError, match="unsupported scalar"):
        one * 2.5
    with pytest.raises(ValueError, match="not p-integral"):
        one * Fraction(1, 3)
    with pytest.raises(ValueError, match="descriptor mismatch"):
        one + d.at_precision(5).one()
    d2 = RingDescriptor(3, 2, 4)
    assert d2.one() * (1, 2) == d2.from_coeffs([1, 2])
    with pytest.raises(ValueError, match="2 components"):
        d2.one() + (1,)


def test_invert_small():
    d = RingDescriptor(3, 1, 2)
    assert d.from_int(2).invert() == d.from_int(5)
    with pytest.raises(ZeroDivisionError):
        d.from_int(3).invert()


def test_invert_random_units():
    rng = random.Random(7)
    for p, f, N in [(3, 1, 6), (3, 2, 5), (5, 2, 4)]:
        d = RingDescriptor(p, f, N)
        for _ in range(25):
            a = d.from_coeffs([rng.randrange(d.pN) for _ in range(f)])
            if not a.is_unit():
                continue
            assert a * a.invert() == d.one()


def test_teichmuller_values():
    d3 = RingDescriptor(3, 1, 2)
    assert teichmuller_lift(d3, 2).coeffs == (8,)
    d5 = RingDescriptor(5, 1, 2)
    t = teichmuller_lift(d5, 2)
    assert t.coeffs == (7,)
    assert (t**2).coeffs == (24,)  # -1 mod 25
    assert (t**4) == d5.one()


def test_teichmuller_lift_reads_every_scalar():
    d = RingDescriptor(3, 2, 5)
    two = teichmuller_lift(d, 2)
    for r in (np.int64(2), Fraction(2), 2 + 3 * 7, (2, 0), np.array([2, 0]), d.from_int(5)):
        assert teichmuller_lift(d, r) == two
    assert teichmuller_lift(d, Fraction(1, 2)) == two  # 1/2 = 2 mod 3
    with pytest.raises(TypeError, match="unsupported scalar"):
        teichmuller_lift(d, 2.0)
    with pytest.raises(ValueError, match="not p-integral"):
        teichmuller_lift(d, Fraction(1, 3))


def test_components_reads_each_kind_of_scalar():
    d, d1 = RingDescriptor(3, 2, 4), RingDescriptor(3, 1, 4)
    half = Fraction(1, 2)
    assert components(7, d) == (7, 0)
    assert components(half, d) == (half, 0)
    assert components([half, np.int64(-4)], d) == (half, -4)
    assert components(d.from_coeffs([1, 5]), d) == (1, 5)
    assert components(d.at_precision(9).from_int(-1), d) == (3**9 - 1, 0)
    assert residues(components(d.at_precision(9).from_int(-1), d), d) == [80, 0]
    for bad, err in (((1,), ValueError), ((1, 2, 3), ValueError), (d1.one(), ValueError),
                     (2.5, TypeError), ((1, 0.5), TypeError), ("ab", TypeError), (None, TypeError)):
        with pytest.raises(err):
            components(bad, d)


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (3, 4), (5, 2), (7, 3)])
def test_root_of_unity_is_the_digit_generator(p, f):
    d = RingDescriptor(p, f, 6)
    for m in (n for n in range(1, d.q) if (d.q - 1) % n == 0):
        zeta = root_of_unity(d, m)
        assert zeta**m == d.one() and multiplicative_order(zeta.residue()) == m
    for k in (k for k in range(1, f + 1) if f % k == 0):
        assert root_of_unity(d, p**k - 1) == teichmuller_digits(d, k)[2]
    with pytest.raises(ValueError, match="divide"):
        root_of_unity(d, d.q)


def _trial_division(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**4) if is_prime(n)] == [n for n in range(10**4) if _trial_division(n)]
    # a strong pseudoprime to the bases 2, 3, 5 and 7, and a Mersenne prime
    assert not is_prime(3215031751) and not _trial_division(3215031751)
    assert is_prime(2**61 - 1)
    assert is_prime(1000000000000000003) and not is_prime(1000000000000000001)


def test_is_prime_refuses_past_the_certified_bound():
    bound = 318665857834031151167461
    assert not is_prime(bound - 1)  # even
    for n in (bound, bound + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="too large to certify"):
            is_prime(n)


def test_teichmuller_is_qth_power_fixed_point():
    rng = random.Random(11)
    for p, f, N in [(3, 2, 6), (5, 1, 8)]:
        d = RingDescriptor(p, f, N)
        for _ in range(10):
            r = UnramifiedRingElem.from_code(d.at_precision(1), rng.randrange(d.q))
            t = teichmuller_lift(d, r)
            assert t**d.q == t
            assert t.residue() == r


def test_valuation():
    # an element's valuation is the least over its components, N for 0
    def v(a):
        return int(valuations(np.array(a.coeffs, dtype=object), a.desc.p, a.desc.N).min())

    d = RingDescriptor(3, 1, 4)
    assert v(d.from_int(6)) == 1
    assert v(d.from_int(9)) == 2
    assert v(d.from_int(5)) == 0
    assert v(d.zero()) == d.N
    d2 = RingDescriptor(3, 2, 3)
    assert v(d2.from_coeffs([9, 3])) == 1


def test_ring_is_commutative_and_distributive_sampled():
    rng = random.Random(3)
    d = RingDescriptor(3, 2, 4)
    for _ in range(40):
        a, b, c = (
            d.from_coeffs([rng.randrange(d.pN) for _ in range(2)]) for _ in range(3)
        )
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_modulus_relation():
    # with modulus X^2 + 1 the generator squares to -1
    d = RingDescriptor(3, 2, 3)
    x = d.from_coeffs([0, 1])
    assert x * x == -d.one()


def test_residue_power_test():
    d5 = RingDescriptor(5, 1, 2)
    assert residue_power_test(d5.at_precision(1).from_int(4), 2) is True
    d3 = RingDescriptor(3, 1, 2)
    assert residue_power_test(d3.at_precision(1).from_int(2), 2) is False
    with pytest.raises(ValueError):
        residue_power_test(d3.at_precision(1).zero(), 2)


def test_multiplicative_generator():
    d = RingDescriptor(3, 2, 2)
    g = multiplicative_generator(d)
    assert multiplicative_order(g) == 8
    assert g.code() == 4  # 1 + x is the first generator of F_9 in code order
    d5 = RingDescriptor(5, 1, 2)
    assert multiplicative_generator(d5).code() == 2


def test_at_precision_shares_the_validated_modulus(monkeypatch):
    d = RingDescriptor(3, 3, 6)
    fresh = RingDescriptor(3, 3, 1)
    checks = []
    monkeypatch.setattr(padic, "is_prime", lambda n: checks.append(n) or True)
    monkeypatch.setattr(padic, "_is_irreducible", lambda *a: checks.append(a) or True)
    low = d.at_precision(1)
    assert not checks
    assert low == fresh and low.structure_table() is d.structure_table()
    assert low.structure_table() == fresh.structure_table()
    with pytest.raises(ValueError):
        d.at_precision(0)


@pytest.mark.parametrize("p, f", [(3, 2), (5, 2), (3, 3)])
def test_residues_at_precision_one(p, f):
    # F_9, F_25 and F_27 are the ring at N = 1: every product and inverse
    # against polynomial arithmetic mod (p, modulus), orders by brute force
    res = RingDescriptor(p, f, 4).at_precision(1)
    mod = [c % p for c in res.modulus]
    one = [1] + [0] * (f - 1)
    elems = [UnramifiedRingElem.from_code(res, c) for c in range(res.q)]
    assert [x.code() for x in elems] == list(range(res.q))
    assert len(set(elems)) == res.q
    for x in elems:
        for y in elems:
            assert list((x * y).coeffs) == _fp_polmul(list(x.coeffs), list(y.coeffs), p, mod)
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.invert()
            with pytest.raises(ZeroDivisionError):
                multiplicative_order(x)
            continue
        assert _fp_polmul(list(x.coeffs), list(x.invert().coeffs), p, mod) == one
        order, acc = 1, list(x.coeffs)
        while acc != one:
            acc = _fp_polmul(acc, list(x.coeffs), p, mod)
            order += 1
        assert multiplicative_order(x) == order


def test_teichmuller_digits_structure():
    d = RingDescriptor(3, 2, 4)
    digits = teichmuller_digits(d, 2)
    assert len(digits) == 9
    assert digits[0].is_zero()
    nonzero = digits[1:]
    for t in nonzero:
        assert t**9 == t
    assert len({t.coeffs for t in digits}) == 9
    # the subfield Z_p digits
    sub = teichmuller_digits(d, 1)
    assert len(sub) == 3
    for t in sub:
        assert t**3 == t
