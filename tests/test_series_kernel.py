import ast
import collections
import gc
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fglab
from fglab.corpus import corpus
from fglab.groups import multiplicative_group, solve_equivariant_group_law
from fglab.padic import RingDescriptor, contraction_dtype, ring_mul
from fglab.precision import cushion
from fglab.series import TruncSeries1, TruncSeries2, _powers, substitute2_into2
from test_law_solve import LAW_GROUPS, inject_x, inject_y


def desc(p=3, f=1, N=8):
    return RingDescriptor(p, f, N)


def random_series(d, D, rng, unit_linear=False, zero_const=True):
    s = TruncSeries1.zero(d, D)
    for k in range(D):
        for j in range(d.f):
            s.data[k, j] = rng.randrange(d.pN)
    if zero_const:
        s.data[0, :] = 0
    if unit_linear:
        s.data[1, 0] = 1 + d.p * rng.randrange(d.p ** (d.N - 1))
        for j in range(1, d.f):
            s.data[1, j] = 0
    return s


def test_reversion_known_expansion():
    d = desc(p=7, N=6)
    f = TruncSeries1.from_coeffs(d, [0, 1, 1], D=5)
    r = f.reversion()
    expected = [0, 1, -1, 2, -5]
    for k, c in enumerate(expected):
        assert r.coeff_vec(k)[0] == c % d.pN


def test_reversion_exact_domain():
    d = desc(p=5, N=4)
    f = TruncSeries1.from_coeffs(d, [0, 1, 1], D=5, domain="scaled")
    r = f.reversion()
    assert [r.coeff_vec(k)[0] for k in range(5)] == [0, 1, -1, 2, -5]


def test_reversion_round_trip():
    rng = random.Random(11)
    for p, f_ in [(3, 1), (5, 1), (3, 2)]:
        d = desc(p=p, f=f_, N=6)
        s = random_series(d, 12, rng, unit_linear=True)
        r = s.reversion()
        x = TruncSeries1.x(d, 12)
        assert s.compose(r) == x
        assert r.compose(s) == x


@pytest.mark.parametrize("D", [12, 24])
def test_reversion_composes_once_per_step(D, monkeypatch):
    # windows 2 -> 3 -> 5 -> 9 -> ... -> D: one f(r) a step, no f'(r) and
    # no inversion of it
    from fglab.groups import lubin_tate_group
    log = lubin_tate_group(desc(), [0, 3, 0, 1]).logarithm(D)
    integral = random_series(desc(), D, random.Random(5), unit_linear=True)
    for s in (log, integral):
        compositions, inversions = [], []
        compose, invert_unit = TruncSeries1.compose, TruncSeries1.invert_unit
        monkeypatch.setattr(TruncSeries1, "compose",
                            lambda self, g: compositions.append(1) or compose(self, g))
        monkeypatch.setattr(TruncSeries1, "invert_unit",
                            lambda self: inversions.append(1) or invert_unit(self))
        r = s.reversion()
        monkeypatch.undo()
        assert len(compositions) == (D - 2).bit_length()
        assert not inversions
        assert s.compose(r) == TruncSeries1.x(s.desc, D, s.domain)


@pytest.mark.parametrize("f_", [1, 2])
@pytest.mark.parametrize("c", [Fraction(3), Fraction(1, 3)])
def test_scaled_reversion_takes_any_nonzero_linear_coefficient(c, f_):
    # over Q_p every nonzero linear coefficient is invertible, units or not
    d = desc(f=f_, N=6)
    tail = [Fraction(1, 9), 2, Fraction(-5, 3), 0, 7, Fraction(2, 27)]
    if f_ == 2:
        tail = [(v, k - 2) for k, v in enumerate(tail)]
    s = TruncSeries1.from_coeffs(d, [0, c] + tail, D=10, domain="scaled")
    r = s.reversion()
    x = TruncSeries1.x(d, 10, "scaled")
    assert s.compose(r) == x
    assert r.compose(s) == x
    assert r.coeff_vec(1)[0] == 1 / c


@pytest.mark.parametrize("f_", [1, 2])
def test_scaled_reversion_of_zero_linear_coefficient_raises(f_):
    s = TruncSeries1.from_coeffs(desc(f=f_), [0, 0, 1], D=6, domain="scaled")
    with pytest.raises(ZeroDivisionError):
        s.reversion()


def test_compose_square_example():
    d = desc()
    sq = TruncSeries1.from_coeffs(d, [0, 0, 1], D=5)
    g = TruncSeries1.from_coeffs(d, [0, 1, 1], D=5)
    out = sq.compose(g)
    assert [out.coeff_vec(k)[0] for k in range(5)] == [0, 0, 1, 2, 1]


def test_compose_leaves_no_reference_cycle():
    # the addition-chain route of a sparse outer series keeps its powers in
    # no cycle, so they go when compose returns, not at the next collection
    d = desc()
    outer = TruncSeries1.from_coeffs(d, [0, 1, 0, 0, 0, 0, 0, 1], D=12)
    g = random_series(d, 12, random.Random(5))
    gc.collect()
    gc.disable()
    try:
        outer.compose(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compose_associative():
    rng = random.Random(23)
    d = desc(N=6)
    f = random_series(d, 10, rng)
    g = random_series(d, 10, rng)
    h = random_series(d, 10, rng)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_mul_window_consistency():
    rng = random.Random(5)
    d = desc(p=5, f=2, N=5)
    a16 = random_series(d, 16, rng, zero_const=False)
    b16 = random_series(d, 16, rng, zero_const=False)
    big = (a16 * b16).truncate(8)
    small = a16.truncate(8) * b16.truncate(8)
    assert big == small


def test_precision_consistency():
    rng = random.Random(19)
    d = desc(p=3, f=2, N=9)
    a = random_series(d, 10, rng, zero_const=False)
    b = random_series(d, 10, rng, zero_const=False)
    prod = a * b
    low = d.at_precision(4)
    assert (a.reduce_precision(4) * b.reduce_precision(4)) == prod.reduce_precision(4)
    assert prod.reduce_precision(4).desc == low


def test_invert_unit_geometric():
    d = desc(p=5, N=6)
    s = TruncSeries1.from_coeffs(d, [1, 1], D=7)
    inv = s.invert_unit()
    for k in range(7):
        assert inv.coeff_vec(k)[0] == (-1) ** k % d.pN
    one = TruncSeries1.from_coeffs(d, [1], D=7)
    assert s * inv == one


@pytest.mark.parametrize("f", [1, 2])
def test_scaled_invert_unit_takes_any_nonzero_constant(f):
    # 1/(3 + X) = sum_k (-1)^k X^k / 3^(k+1): the constant 3 is no unit of Z_3
    d, D = RingDescriptor(3, f, 6), 6
    s = TruncSeries1.from_coeffs(d, [3, 1], D=D, domain="scaled")
    inv = s.invert_unit()
    assert inv == TruncSeries1.from_coeffs(d, [Fraction((-1) ** k, 3 ** (k + 1)) for k in range(D)],
                                           D=D, domain="scaled")
    assert s * inv == TruncSeries1.from_coeffs(d, [1], D=D, domain="scaled")
    with pytest.raises(ZeroDivisionError):
        TruncSeries1.from_coeffs(d, [0, 1], D=D, domain="scaled").invert_unit()


def test_invert_unit_quadratic_component():
    # over Z_3[x]/(x^2+1): the constant x has inverse -x
    d = RingDescriptor(3, 2, 5)
    s = TruncSeries1.from_coeffs(d, [(0, 1), (2, 1)], D=6)
    inv = s.invert_unit()
    one = TruncSeries1.from_coeffs(d, [1], D=6)
    assert s * inv == one
    exact = TruncSeries1.from_coeffs(d, [(0, 1), (2, 1)], D=6, domain="scaled")
    einv = exact.invert_unit()
    assert (exact * einv).coeff_vec(0) == (Fraction(1), Fraction(0))
    assert (exact * einv).coeff_vec(3) == (Fraction(0), Fraction(0))


def integrate(s):
    """Antiderivative with zero constant term, exact scaled output."""
    coeffs = [0] + [[Fraction(v) / (k + 1) for v in s.coeff_vec(k)] for k in range(s.D - 1)]
    return TruncSeries1.from_coeffs(s.desc, coeffs, s.D, "scaled")


def series_from(kind, d, D, domain, values):
    """The series of `kind` whose coefficient vectors are the rows of the
    object array `values` (ints or Fractions), through the public builders."""
    if kind is TruncSeries1:
        return TruncSeries1.from_coeffs(d, [list(row) for row in values], D, domain)
    return TruncSeries2.from_triples(d, [(i, j, list(values[i, j]))
                                         for i in range(D) for j in range(D - i)], D, domain)


def fractions(s):
    """The coefficients of s as an array, indexed [i, j] by X^i Y^j when
    two-variable: Fractions when scaled."""
    data = s.grid() if isinstance(s, TruncSeries2) else s.data
    if s.domain == "integral":
        return data
    return np.frompyfunc(lambda n: Fraction(n, s.den), 1, 1)(data)


def test_derivative_integrate_round_trip():
    d = desc(p=5, N=5)
    s = TruncSeries1.from_coeffs(d, [0, 3, 7, 2, 11, 6], D=6, domain="scaled")
    back = integrate(s.derivative())
    # derivative loses the top coefficient, so compare below it
    for k in range(5):
        assert back.coeff_vec(k) == s.coeff_vec(k)


def test_log_one_plus_x_coefficients():
    d = desc(p=5, N=6)
    one_plus = TruncSeries1.from_coeffs(d, [1, 1], D=9, domain="scaled")
    log = integrate(one_plus.invert_unit()).truncate(9)
    assert log.coeff_vec(0)[0] == 0
    for k in range(1, 9):
        assert log.coeff_vec(k)[0] == Fraction((-1) ** (k + 1), k)


def test_two_variable_products():
    d = desc(N=5)
    xy = TruncSeries2.from_triples(d, [(1, 0, 1), (0, 1, 1)], D=6)
    sq = xy * xy
    assert sq.coefficient(2, 0).coeffs[0] == 1
    assert sq.coefficient(1, 1).coeffs[0] == 2
    assert sq.coefficient(0, 2).coeffs[0] == 1
    cube = sq * xy
    assert cube.coefficient(2, 1).coeffs[0] == 3
    assert cube.coefficient(3, 0).coeffs[0] == 1


def test_two_variable_component_mixing():
    d = RingDescriptor(3, 2, 4)
    # (x*X + Y)(X - x*Y) with x^2 = -1: x*X^2 + (1+1)... compute and check
    a = TruncSeries2.from_triples(d, [(1, 0, (0, 1)), (0, 1, 1)], D=4)
    b = TruncSeries2.from_triples(d, [(1, 0, 1), (0, 1, (0, -1))], D=4)
    prod = a * b
    assert tuple(prod.coefficient(2, 0).coeffs) == (0, 1)
    # XY coefficient: x*(-x) + 1 = 1 + 1 = 2
    assert tuple(prod.coefficient(1, 1).coeffs) == (2, 0)
    assert tuple(prod.coefficient(0, 2).coeffs) == (0, d.pN - 1)


def test_substitute2_into2_matches_direct():
    d = desc(N=5)
    F = TruncSeries2.from_triples(d, [(1, 0, 1), (0, 1, 1), (1, 1, 2)], D=6)
    G = TruncSeries2.from_triples(d, [(1, 0, 1), (0, 1, 1)], D=6)
    out = horner_substitute2_into2(F, G, G)
    # F(X+Y, X+Y) = 2(X+Y) + 2(X+Y)^2
    assert out.coefficient(1, 0).coeffs[0] == 2
    assert out.coefficient(1, 1).coeffs[0] == 4
    assert out.coefficient(2, 0).coeffs[0] == 2
    # one-variable arguments: F(X + X^2, Y) = X + X^2 + Y + 2XY + 2X^2 Y
    g = TruncSeries1.from_coeffs(d, [0, 1, 1], D=6)
    y = TruncSeries1.x(d, 6)
    out = substitute2_into2(F, g, y)
    assert out == horner_substitute2_into2(F, inject_x(g), inject_y(y))
    assert sorted((i, j, int(c[0])) for i, j, c in out.coeff_triples()) == [
        (0, 1, 1), (1, 0, 1), (1, 1, 2), (2, 0, 1), (2, 1, 2)]


def test_integral_edges_take_rationals_to_residues():
    # 1/2 = 41 mod 3^4; 1/3 has no residue
    d, d2 = RingDescriptor(3, 1, 4), RingDescriptor(3, 2, 4)
    half = Fraction(1, 2)
    assert TruncSeries1.from_coeffs(d, [0, half, 5]) == TruncSeries1.from_coeffs(d, [0, 41, 5])
    assert TruncSeries1.from_coeffs(d, [0, half], 3, "scaled").to_integral() == \
        TruncSeries1.from_coeffs(d, [0, 41], 3)
    assert TruncSeries2.from_triples(d, [(1, 0, half)], 4).coefficient(1, 0).coeffs == (41,)
    assert TruncSeries1.x(d, 4).scalar_mul(half) == TruncSeries1.from_coeffs(d, [0, 41], 4)
    vec = (half, Fraction(-2, 7))
    assert TruncSeries1.x(d2, 4).scalar_mul(vec).coefficient(1).coeffs == (41, -2 * pow(7, -1, 81) % 81)
    for build in (lambda: TruncSeries1.from_coeffs(d, [0, half, Fraction(7, 3)]),
                  lambda: TruncSeries2.from_triples(d, [(0, 1, Fraction(1, 3))], 4),
                  lambda: TruncSeries1.x(d, 4).scalar_mul(Fraction(1, 3)),
                  lambda: TruncSeries1.x(d2, 4).scalar_mul((1, Fraction(2, 9)))):
        with pytest.raises(ValueError, match="not p-integral"):
            build()


def test_scalars_of_another_length_or_field_are_refused():
    # a numpy broadcast once read both as [1, 1]
    d2 = RingDescriptor(3, 2, 6)
    with pytest.raises(ValueError, match="2 components, not 1"):
        TruncSeries1.from_coeffs(d2, [0, (1,)], 4)
    with pytest.raises(ValueError, match="different ring"):
        TruncSeries1.from_coeffs(d2, [0, RingDescriptor(3, 1, 6).one()], 4)
    with pytest.raises(TypeError, match="unsupported scalar"):
        TruncSeries1.x(d2, 4).scalar_mul(2.5)


def test_coefficient_refuses_degrees_outside_the_window():
    d = desc(N=4)
    s = TruncSeries1.from_coeffs(d, [0, 1, 2, 3])
    assert s.coefficient(3).coeffs == (3,)
    F = TruncSeries2.from_triples(d, [(1, 2, 5), (0, 3, 7)], 4)
    assert F.coefficient(1, 2).coeffs == (5,) and F.coefficient(0, 3).coeffs == (7,)
    for read in (lambda: s.coefficient(-1), lambda: s.coefficient(4),
                 lambda: F.coefficient(0, -1), lambda: F.coefficient(-1, 0),
                 lambda: F.coefficient(2, 2), lambda: F.coefficient(4, 0)):
        with pytest.raises(IndexError):
            read()


def test_object_dtype_fallback():
    d = RingDescriptor(3, 1, 24)
    assert contraction_dtype(64, d) is object
    a = TruncSeries1.from_coeffs(d, [1, 1], D=8)
    assert a.data.dtype == object
    b = TruncSeries1.from_coeffs(d, [1, -1], D=8)
    prod = a * b
    assert prod.coeff_vec(0)[0] == 1
    assert prod.coeff_vec(1)[0] == 0
    assert prod.coeff_vec(2)[0] == d.pN - 1
    small = RingDescriptor(3, 1, 6)
    assert prod.reduce_precision(6).coeff_vec(2)[0] == small.pN - 1


def test_shift_first_unit_equal_mod():
    d = desc(p=3, N=6)
    s = TruncSeries1.from_coeffs(d, [0, 3, 0, 0, 0, 0, 0, 0, 0, 1], D=12)
    assert s.first_unit_index() == 9
    assert s.shift(2).nonzero_degrees() == [3, 11]
    t = TruncSeries1.from_coeffs(d, [0, 3 + 27, 0, 0, 0, 0, 0, 0, 0, 1], D=12)
    assert s.reduce_precision(3) == t.reduce_precision(3)
    assert s.reduce_precision(4) != t.reduce_precision(4)
    u = TruncSeries1.from_coeffs(d, [0, 3, 9], D=4)
    assert u.first_unit_index() is None and not u.reduce_precision(1).data.any()


def test_powers_rows():
    d = desc(N=6)
    s = TruncSeries1.from_coeffs(d, [0, 1, 1], D=8)
    rows, den = _powers(s, 4)
    assert s._new(rows[3], den) == s * s * s
    one = TruncSeries1.from_coeffs(d, [1], D=8)
    assert s._new(rows[0], den) == one


def test_scalar_mul_vector():
    d = RingDescriptor(3, 2, 4)
    s = TruncSeries1.from_coeffs(d, [(0, 1), (1, 0)], D=3)
    t = s.scalar_mul((0, 1))  # multiply by x, x^2 = -1
    assert tuple(t.coeff_vec(0)) == (d.pN - 1, 0)
    assert tuple(t.coeff_vec(1)) == (0, 1)


# ------------------------------------------------- kernel against schoolbook

def schoolbook_mul(a, b, modulus, m):
    """Multiply two component vectors as polynomials, then fold X^(f+t)
    back by long division with the monic modulus (top degree first)."""
    f = len(modulus) - 1
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * f - 2, f - 1, -1):
        c, prod[k] = prod[k], 0
        for j in range(f):
            prod[k - f + j] -= c * modulus[j]
    return [x % m for x in prod[:f]] if m is not None else prod[:f]


def _random_entry(d, domain, rng):
    if domain == "scaled":
        return Fraction(rng.randrange(-50, 50), rng.choice([1, 2, 3, 7, 9]))
    return rng.randrange(d.pN)


KERNEL_CASES = [
    (3, 18, "integral"),   # int64, sums close to the budget
    (5, 40, "integral"),   # object: p^N far past a machine word
    (3, 4, "scaled"),      # exact Fractions
]


@pytest.mark.parametrize("p,N,domain", KERNEL_CASES)
@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_kernel_matches_schoolbook(p, N, domain, f):
    rng = random.Random(1000 * p + 10 * f + N)
    d = RingDescriptor(p, f, N)
    m = d.pN if domain == "integral" else None
    D = 5
    c = [_random_entry(d, domain, rng) for _ in range(f)]

    def draw(shape):
        values = np.zeros(shape + (f,), dtype=object)
        for idx in np.ndindex(*shape):
            if sum(idx) < D:
                values[idx] = [_random_entry(d, domain, rng) for _ in range(f)]
        return values

    A, B = (series_from(TruncSeries1, d, D, domain, draw((D,))) for _ in range(2))
    assert A.data.dtype == (np.int64 if N == 18 else object)

    def coeff(s, k):
        return list(fractions(s)[k])

    prod, scaled = A * B, A.scalar_mul(tuple(c))
    for k in range(D):
        acc = [0] * f
        for i in range(k + 1):
            acc = [x + y for x, y in zip(acc, schoolbook_mul(coeff(A, i), coeff(B, k - i),
                                                            d.modulus, m))]
        assert coeff(prod, k) == ([x % m for x in acc] if m else acc)
        assert coeff(scaled, k) == schoolbook_mul(coeff(A, k), c, d.modulus, m)

    A2, B2 = (series_from(TruncSeries2, d, D, domain, draw((D, D))) for _ in range(2))
    prod2 = A2 * B2
    for i in range(D):
        for j in range(D - i):
            acc = [0] * f
            for i1 in range(i + 1):
                for j1 in range(j + 1):
                    term = schoolbook_mul(list(fractions(A2)[i1, j1]),
                                          list(fractions(B2)[i - i1, j - j1]), d.modulus, m)
                    acc = [x + y for x, y in zip(acc, term)]
            assert list(fractions(prod2)[i, j]) == ([x % m for x in acc] if m else acc)

    if domain == "integral":
        a, b = (d.from_coeffs(coeff(A, 1)), d.from_coeffs(coeff(B, 1)))
        assert list((a * b).coeffs) == schoolbook_mul(a.coeffs, b.coeffs, d.modulus, m)


# ------------------------------------- exact kernel against Fraction products

def over_denominator(X):
    """Integer numerators of the exact array X over the lcm of its
    denominators, and that lcm."""
    L = math.lcm(*(Fraction(x).denominator for x in X.flat))
    nums = [Fraction(x).numerator * (L // Fraction(x).denominator) for x in X.flat]
    return np.array(nums, dtype=object).reshape(X.shape), L


def fraction_ring_mul(A, B, desc, prod):
    """The exact ring_mul on Fractions entry by entry: the partial products
    of component slices gathered by the power X^(a+b) they carry, then
    folded with the structure table, every sum and product a Fraction."""
    f = desc.f
    cross = [None] * (2 * f - 1)
    for a in range(f):
        x = A[..., a]
        if not x.any():
            continue
        for b in range(f):
            y = B[..., b]
            if not y.any():
                continue
            c = prod(x, y)
            cross[a + b] = c if cross[a + b] is None else c + cross[a + b]
    if all(c is None for c in cross):
        cross[0] = prod(A[..., 0], B[..., 0])  # a factor is zero
    if f == 1:
        return cross[0][..., None]
    zero = np.zeros_like(next(c for c in cross if c is not None))
    C = np.stack([zero if c is None else c for c in cross], axis=-1)
    T = desc.structure_table()
    R = [T[0][k] if k < f else T[f - 1][k - f + 1] for k in range(2 * f - 1)]
    return C @ np.array(R, dtype=C.dtype)


def conv2_oracle(x, y):
    """Two-variable product of (D, D) slices, total degree < D."""
    D = x.shape[0]
    out = np.zeros_like(x)
    for i1, j1 in zip(*np.nonzero(x)):
        for i2, j2 in zip(*np.nonzero(y)):
            if i1 + i2 + j1 + j2 < D:
                out[i1 + i2, j1 + j2] += x[i1, j1] * y[i2, j2]
    return out


EXACT_DENOMINATORS = {
    "p-power": [1, 3, 9, 27, 81],
    "coprime": [1, 2, 5, 7, 11],
    "mixed": [1, 3, 2, 6, 45, 189, 7 * 81],
    "integer": None,
    "zero": None,
}


def _exact_operand(shape, kind, rng):
    data = np.zeros(shape, dtype=object)
    if kind == "zero":
        return data
    for idx in np.ndindex(*shape):
        if rng.random() < 0.3:
            continue  # leave sparse entries, sometimes whole slices, as int 0
        n = rng.randrange(-60, 61)
        dens = EXACT_DENOMINATORS[kind]
        data[idx] = n if dens is None else Fraction(n, rng.choice(dens))
    return data


def _assert_exactly_equal(got, want):
    assert got.shape == want.shape
    assert got.dtype == object
    assert (got == want).all()
    assert all(isinstance(v, (int, Fraction)) for v in got.flat)


@pytest.mark.parametrize("kind", list(EXACT_DENOMINATORS))
@pytest.mark.parametrize("f", [1, 2, 3])
def test_exact_kernel_matches_fraction_products(f, kind):
    rng = random.Random(f"{f}-{kind}")
    d = RingDescriptor(3, f, 4)
    D = 6
    other = "mixed" if kind == "zero" else kind
    for trial in range(3):
        A = _exact_operand((D, f), other, rng)
        B = _exact_operand((D, f), kind, rng)
        if kind == "zero" and trial == 2:
            A = _exact_operand((D, f), "zero", rng)  # both factors zero
        (nA, LA), (nB, LB) = over_denominator(A), over_denominator(B)
        for prod in (lambda x, y: np.convolve(x, y)[:D], np.multiply.outer):
            got = ring_mul(nA, nB, d, None, prod)  # integer numerators, no reduction
            assert all(type(v) is int for v in got.flat)
            _assert_exactly_equal(np.frompyfunc(lambda n: Fraction(n, LA * LB), 1, 1)(got),
                                  fraction_ring_mul(A, B, d, prod))
        # the same kernel through the scaled series product
        S, T = (series_from(TruncSeries1, d, D, "scaled", X) for X in (A, B))
        _assert_exactly_equal(fractions(S * T),
                              fraction_ring_mul(A, B, d, lambda x, y: np.convolve(x, y)[:D]))

        A2 = _exact_operand((D, D, f), other, rng)
        B2 = _exact_operand((D, D, f), kind, rng)
        upper = np.add.outer(np.arange(D), np.arange(D)) >= D
        A2[upper] = 0
        B2[upper] = 0
        S2, T2 = (series_from(TruncSeries2, d, D, "scaled", X) for X in (A2, B2))
        got = S2 * T2
        _assert_exactly_equal(fractions(got), fraction_ring_mul(A2, B2, d, conv2_oracle))


# ------------------------------------- composition routes against Horner oracles

def _one_like(s):
    one = type(s).zero(s.desc, s.D, s.domain)
    one.data[(0,) * one.data.ndim] = 1
    return one


def horner_compose(outer, g):
    """outer(g) by Horner: D products of g's kind."""
    acc = type(g).zero(g.desc, g.D, g.domain)
    for k in range(outer.D - 1, -1, -1):
        acc = acc * g
        acc = acc + _one_like(g).scalar_mul(outer.coeff_vec(k))
    return acc


def horner_substitute2_into2(F, G, H):
    """F(G(X,Y), H(X,Y)) for two-variable arguments: the powers of G, then
    Horner in H."""
    D = F.D
    gpow = [_one_like(F)]
    for _ in range(1, D):
        gpow.append(gpow[-1] * G)
    acc = TruncSeries2.zero(F.desc, D, F.domain)
    coeffs = fractions(F)
    for j in range(D - 1, -1, -1):
        inner = TruncSeries2.zero(F.desc, D, F.domain)
        for i in range(D - j):
            if coeffs[i, j].any():
                inner = inner + gpow[i].scalar_mul(tuple(coeffs[i, j]))
        acc = acc * H + inner
    return acc


def pow2(F, e):
    """F^e by binary powering."""
    out, base = _one_like(F), F
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _entry(d, domain, rng):
    if domain == "scaled":
        return Fraction(rng.randrange(-40, 41), rng.choice([1, 2, 3, 9, 5, 27]))
    return rng.randrange(d.pN)


def random_pointed(kind, d, D, domain, rng, degrees=None):
    """A random series of the given kind with zero constant term; an outer
    TruncSeries1 may carry a constant term and sparse support `degrees`."""
    values = np.zeros(kind.zero(d, D, domain).data.shape, dtype=object)
    for idx in np.ndindex(*values.shape[:-1]):
        if sum(idx) < D and (degrees is None or idx[0] in degrees):
            values[idx] = [_entry(d, domain, rng) for _ in range(d.f)]
    if degrees is None:
        values[(0,) * (values.ndim - 1)] = 0
    return series_from(kind, d, D, domain, values)


# (p, N, domain, dtype at D = 12): N = 18/19 is the int64/object switch of
# contraction_dtype at D = 12 for p = 3
COMPOSE_DOMAINS = [
    (3, 18, "integral", np.int64),
    (3, 19, "integral", object),
    (5, 30, "integral", object),
    (3, 4, "scaled", object),
]


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("kind", [TruncSeries1, TruncSeries2])
@pytest.mark.parametrize("support", ["sparse", "dense"])
def test_compose_matches_horner(p, N, domain, dtype, f, kind, support):
    rng = random.Random(f"{p}-{N}-{domain}-{f}-{kind.__name__}-{support}")
    d, D = RingDescriptor(p, f, N), 12
    degrees = {0, 1, 4, 7, 11} if support == "sparse" else None
    outer = random_pointed(TruncSeries1, d, D, domain, rng, degrees=degrees or set(range(D)))
    assert (len(outer.nonzero_degrees()) <= 10) == (support == "sparse")
    g = random_pointed(kind, d, D, domain, rng)
    assert g.data.dtype == dtype
    got = outer.compose(g)
    assert type(got) is kind and got.data.dtype == dtype
    assert got == horner_compose(outer, g)
    if kind is TruncSeries2:
        zero = TruncSeries2.zero(d, D, domain)
        assert got == horner_substitute2_into2(inject_x(outer), g, zero)


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
def test_substitutions_match_horner(p, N, domain, dtype, f):
    rng = random.Random(f"subst-{p}-{N}-{domain}-{f}")
    d, D = RingDescriptor(p, f, N), 12
    F = random_pointed(TruncSeries2, d, D, domain, rng)
    # F may have a constant term
    F = F + TruncSeries2.from_triples(d, [(0, 0, [_entry(d, domain, rng) for _ in range(f)])], D, domain)
    g = random_pointed(TruncSeries1, d, D, domain, rng)
    h = random_pointed(TruncSeries1, d, D, domain, rng)
    for a, b in ((g, h), (g, g)):
        got = substitute2_into2(F, a, b)
        assert got.data.dtype == dtype
        assert got == horner_substitute2_into2(F, inject_x(a), inject_y(b))


def pow2_f_of(f, F):
    """f(F) for a two-variable F as sum_i f_i F^i, each power by binary
    powering: the group-law solver's old route."""
    out = TruncSeries2.zero(F.desc, F.D, F.domain)
    for i in f.nonzero_degrees():
        out = out + pow2(F, i).scalar_mul(f.coeff_vec(i))
    return out


def with_pow2_f_of(monkeypatch, build):
    """build() with every composition into a two-variable series on pow2_f_of."""
    compose = TruncSeries1.compose
    with monkeypatch.context() as mp:
        mp.setattr(TruncSeries1, "compose",
                   lambda self, g: pow2_f_of(self, g) if isinstance(g, TruncSeries2) else compose(self, g))
        return build()


def test_gm_law_solve_matches_pow2_solver(monkeypatch):
    D2, N = 14, 5
    g = multiplicative_group(RingDescriptor(3, 1, 12))
    f_work = g.pi_series(D2, N + cushion(D2, 3))
    got = solve_equivariant_group_law(f_work, D2, N)
    assert got == with_pow2_f_of(monkeypatch, lambda: solve_equivariant_group_law(f_work, D2, N))
    assert got == g.group_law2(D2, f_work.desc.N)  # the closed form X + Y + XY


@pytest.mark.parametrize("name", list(LAW_GROUPS))
def test_group_law2_matches_pow2_solver(name, monkeypatch):
    make, N = LAW_GROUPS[name], 5
    D2 = 22 if name == "honda-1" else 14
    if name == "honda-1":
        # 11 odd degrees below 22: the baby-step/giant-step route
        assert len(make().pi_series(D2, N).nonzero_degrees()) > 10
    assert make().group_law2(D2, N) == with_pow2_f_of(monkeypatch, lambda: make().group_law2(D2, N))


@pytest.mark.parametrize("kind", [TruncSeries1, TruncSeries2])
def test_compose_refuses_bad_inner_series(kind):
    rng = random.Random(kind.__name__)
    d = desc(N=6)
    outer = random_pointed(TruncSeries1, d, 12, "integral", rng)
    g = random_pointed(kind, d, 12, "integral", rng)
    with_constant = kind(d, 12, "integral", g.data.copy())
    with_constant.data[(0,) * (g.data.ndim - 1)] = 1
    with pytest.raises(ValueError, match="constant term"):
        outer.compose(with_constant)
    for other in (random_pointed(kind, desc(N=5), 12, "integral", rng),
                  random_pointed(kind, RingDescriptor(3, 2, 6), 12, "integral", rng),
                  random_pointed(kind, d, 10, "integral", rng),
                  random_pointed(kind, d, 12, "scaled", rng)):
        with pytest.raises(ValueError):
            outer.compose(other)


# ---------------------------------------------------------- power tables

def product_powers(g, count):
    """[g^0, ..., g^(count-1)], each power the product of the one before and g."""
    one = type(g).zero(g.desc, g.D, g.domain)
    one.data[(0,) * one.data.ndim] = 1
    out = [one]
    while len(out) < count:
        out.append(out[-1] * g)
    return out


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("support", ["sparse", "dense"])
def test_powers_rows_equal_products(p, N, domain, dtype, f, support):
    # the term-by-term rule serves an integral g of at most 6 terms; a
    # constant term is allowed there
    rng = random.Random(f"powers-{p}-{N}-{domain}-{f}-{support}")
    d, D = RingDescriptor(p, f, N), 12
    degrees = {0, 1, 4, 7, 11} if support == "sparse" else None
    g = random_pointed(TruncSeries1, d, D, domain, rng, degrees=degrees)
    assert (len(g.nonzero_degrees()) <= 6) == (support == "sparse")
    rows, den = _powers(g, D)
    expected = product_powers(g, D)
    assert rows.shape == (D, D, f) and rows.dtype == dtype
    assert den == math.lcm(*(s.den for s in expected))
    assert (den > 1) == (domain == "scaled")
    assert [g._new(row, den) for row in rows] == expected
    rows, den = _powers(g, 2)
    assert [g._new(row, den) for row in rows] == expected[:2]


@pytest.mark.parametrize("kind", [TruncSeries1, TruncSeries2])
def test_powers_take_no_product_by_one(kind, monkeypatch):
    # rows 0 and 1 of a default table are 1 and g themselves; each later row
    # is one product, and none multiplies by 1
    rng = random.Random(f"powers-count-{kind.__name__}")
    g = random_pointed(kind, RingDescriptor(3, 2, 6), 10, "integral", rng)
    calls = []
    mul = kind.__mul__
    monkeypatch.setattr(kind, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for count in (1, 2, 6):
        calls.clear()
        rows, _ = _powers(g, count)
        assert len(rows) == count and len(calls) == max(0, count - 2)
    calls.clear()
    _powers(g, 3, first=g)
    assert len(calls) == 2


def test_law_substitution_takes_no_series_products(monkeypatch):
    # lt-h2-p3 has [p] = 3X + X^9, so the power table of P^T F P is built
    # term by term; by products it would take D - 2 of them
    group, D = dict(corpus(N=6, nmax=1))["lt-h2-p3"], 36
    F, f = group.group_law2(D, 4), group.pi_series(D, 4)
    calls = []
    mul = TruncSeries1.__mul__
    monkeypatch.setattr(TruncSeries1, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    got = substitute2_into2(F, f, f)
    assert calls == []
    monkeypatch.undo()
    assert got == horner_substitute2_into2(F, inject_x(f), inject_y(f))


def test_every_power_table_comes_from_powers():
    """Counts the calls to series._powers in src by enclosing function; no
    other builder of power tables is left."""
    src = Path(fglab.__file__).parent
    calls = collections.Counter()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_powers":
                calls[f"{module}.{where}"] += 1
            visit(child, module, where)

    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "_power_table" not in text and "pow_trunc" not in text, path.name
        visit(ast.parse(text), path.stem, "")
    assert calls == {
        "series.TruncSeries1.compose": 1,
        "series.substitute2_into2": 2,
        "groups.ModuleStructure.__init__": 1,
        "weier.phi_reconstruct": 1,
    }
