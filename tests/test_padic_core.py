import math
import random

import pytest

from fglab import padic
from fglab.padic import (
    INF,
    _fp_polmul,
    Embedding,
    RingDescriptor,
    UnramifiedRingElem,
    minimal_modulus,
    multiplicative_generator,
    multiplicative_order,
    residue_power_test,
    teichmuller_digits,
    teichmuller_lift,
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
    # X^2 - 1 is reducible mod 3
    with pytest.raises(ValueError):
        RingDescriptor(3, 2, 4, (2, 0, 1))


def test_minimal_modulus_choices():
    assert minimal_modulus(3, 1) == (0, 1)
    assert minimal_modulus(3, 2) == (1, 0, 1)  # X^2 + 1, since -1 is not a square mod 3
    assert minimal_modulus(5, 2) == (2, 0, 1)  # X^2 + 2, since -1 and -2... -2 first non-square shift


def test_add_wraps_mod_p_to_the_N():
    d = RingDescriptor(3, 1, 2)
    five = d.from_int(5)
    assert (five + five).coeffs == (1,)  # 10 = 9 + 1


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
    d = RingDescriptor(3, 1, 4)
    assert d.from_int(6).valuation() == 1
    assert d.from_int(9).valuation() == 2
    assert d.from_int(5).valuation() == 0
    assert d.zero().valuation() == INF
    d2 = RingDescriptor(3, 2, 3)
    assert d2.from_coeffs([9, 3]).valuation() == 1


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


def test_embedding_roundtrip():
    src = RingDescriptor(3, 1, 5)
    dst = RingDescriptor(3, 2, 5)
    emb = Embedding(src, dst)
    a = src.from_int(17)
    assert emb(a) == dst.from_int(17)
    # embedding of a bigger field: root of the source modulus must vanish
    src2 = RingDescriptor(3, 2, 5)
    dst2 = RingDescriptor(3, 4, 5)
    emb2 = Embedding(src2, dst2)
    acc = dst2.zero()
    for c in reversed(src2.modulus):
        acc = acc * emb2.root + dst2.from_int(c)
    assert acc.is_zero()
    x, y = src2.from_coeffs([1, 2]), src2.from_coeffs([4, 7])
    assert emb2(x * y) == emb2(x) * emb2(y)
    assert emb2(x + y) == emb2(x) + emb2(y)
