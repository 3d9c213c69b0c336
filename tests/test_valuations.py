"""The one p-adic valuation kernel against the loops it replaced.

padic.valuations returns min(v_p(a), cap) for every entry of an integer
array.  Each route of the lab that used to count factors of p on its own
now reads that kernel: the unit index and the first non-integral degree
of a series, Newton polygons, the torsion-field model and the honda
logarithm's scale.  The loops those routes ran live on here
as oracles, and each route is checked against its own.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from fglab.corpus import CORPUS_SPECS, make_group
from fglab.groups import honda_log_coeffs
from fglab.padic import INF, RingDescriptor, valuations
from fglab.series import TruncSeries1
from fglab.torsion import TorsionFieldModel, newton_polygon


# ------------------------------------------------------------------ oracles

def oracle_valuation(a, p, cap):
    """The digit loop of one integer's valuation, capped: cap for 0."""
    if a == 0:
        return cap
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return min(v, cap)


def oracle_p_part(n, p):
    """series._p_part: the largest power of p dividing n > 0."""
    pv = 1
    while n % (pv * p) == 0:
        pv *= p
    return pv


def oracle_first_unit_index(s):
    """The row loop of TruncSeries1.first_unit_index."""
    p = s.desc.p
    pv = oracle_p_part(s.den, p)
    for k in range(s.D):
        row = [int(v) for v in s.data[k]]
        if any(v % (pv * p) for v in row) and all(v % pv == 0 for v in row):
            return k
    return None


def oracle_first_nonintegral_degree(g):
    """The row loop of endo.try_endomorphism: the first degree k >= 1 whose
    numerators carry fewer factors p than g.den."""
    pv = oracle_p_part(g.den, g.desc.p)
    return next((k for k in range(1, g.D) if any(int(v) % pv for v in g.data[k])), None)


def oracle_polygon_points(poly, degree):
    """newton_polygon's points, one ring element per coefficient."""
    pts = []
    for i in range(degree + 1):
        c = poly.coefficient(i)
        if not c.is_zero():
            pts.append((i, int(valuations(np.array(c.coeffs, dtype=object), c.desc.p, c.desc.N).min())))
    return pts


def oracle_model_vp(A, p, N):
    """TorsionFieldModel.valuations' inline count: v_p of entries reduced
    mod p^N, N for 0."""
    A = np.asarray(A) % p**N
    return sum((A % p**j == 0).astype(np.int64) for j in range(1, N + 1))


def oracle_frac_val(r, p):
    """padic._frac_val: v_p of a rational, INF for 0."""
    if r == 0:
        return INF
    v, n, d = 0, r.numerator, r.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


# ------------------------------------------------------------------ data

def random_entries(rng, p, count, big):
    """Integers with a spread of valuations: zeros, units, p-powers times
    units, negatives, and (big) entries past 2^64."""
    out = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(0)
        else:
            unit = rng.randrange(1, 10**30 if big else 50)
            while unit % p == 0:
                unit += 1
            a = unit * p ** rng.randrange(40 if big else 12)
            out.append(-a if kind == 3 else a)
    return out


def scaled_series(rng, desc, D, den):
    """A scaled series with numerators over den: zero rows, unit rows and
    rows with extra factors p, reduced to lowest terms by the constructor."""
    f, p = desc.f, desc.p
    data = np.zeros((D, f), dtype=object)
    for k in range(D):
        if rng.random() < 0.2:
            continue
        for j in range(f):
            data[k, j] = rng.randrange(-10**25, 10**25) * p ** rng.randrange(6)
    return TruncSeries1(desc, D, "scaled", data, den)


# ------------------------------------------------------------------ kernel

@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_kernel_matches_the_digit_loop(p, dtype):
    rng = random.Random(f"kernel-{p}")
    big = dtype is object
    for cap in (0, 1, 2, 5, 11, 64):
        entries = random_entries(rng, p, 60, big)
        A = np.array(entries, dtype=dtype).reshape(3, 4, 5)
        got = valuations(A, p, cap)
        assert got.dtype == np.int64 and got.shape == A.shape
        assert got.ravel().tolist() == [oracle_valuation(a, p, cap) for a in entries]


def test_kernel_takes_zeros_scalars_and_empty_arrays():
    assert valuations(np.zeros((2, 3), dtype=np.int64), 3, 4).tolist() == [[4] * 3] * 2
    assert valuations(np.zeros(3, dtype=object), 5, 2).tolist() == [2, 2, 2]
    assert valuations(np.zeros(0, dtype=np.int64), 3, 4).shape == (0,)
    assert int(valuations(3**50 * 7, 3, 64)) == 50
    assert int(valuations(3**50 * 7, 3, 20)) == 20
    assert int(valuations(1, 3, 1)) == 0


def test_model_valuations_match_the_inline_count():
    rng = random.Random("model")
    for p, N in ((3, 4), (5, 6), (3, 9)):
        A = np.array(random_entries(rng, p, 90, False), dtype=np.int64).reshape(6, 5, 3)
        assert (valuations(A % p**N, p, N) == oracle_model_vp(A, p, N)).all()
    model = TorsionFieldModel(make_group(N=4, nmax=1, **dict(CORPUS_SPECS)["lt-h2-p3"]), 1, 4)
    rng = np.random.default_rng(0)
    shape = (30, model.k, model.desc.f)
    G = rng.integers(0, model.desc.pN, size=shape) * 3 ** rng.integers(0, 5, (30, 1, 1))
    G[0] = 0
    v = oracle_model_vp(G, 3, model.N)
    v_w = (model.k * v.min(axis=-1) + np.arange(model.k)).min(axis=-1)
    expect = [INF if x == model.N * model.k else model.d * int(x) for x in v_w]
    assert expect[0] is INF and len(set(expect)) > 3
    assert model.valuations(G).tolist() == expect


def test_least_component_valuation_matches_the_digit_loop():
    # an element's valuation: the least over its components, N for 0
    rng = random.Random("elements")
    for p, f, N in ((3, 1, 6), (3, 2, 9), (5, 3, 40)):
        desc = RingDescriptor(p, f, N)
        for _ in range(50):
            coeffs = [rng.randrange(desc.pN) * p ** rng.randrange(N) % desc.pN for _ in range(f)]
            a = desc.from_coeffs(coeffs)
            expect = min(oracle_valuation(c, p, N) for c in coeffs)
            assert valuations(np.array(a.coeffs, dtype=object), p, N).min() == expect


# ------------------------------------------------------------------ series

@pytest.mark.parametrize("f", [1, 2])
def test_first_unit_index_matches_the_row_loop(f):
    rng = random.Random(f"unit-{f}")
    desc = RingDescriptor(3, f, 6)
    for den in (1, 2, 3, 3**7 * 5, 3**40 * 1001, 3**120):
        for D in (1, 8, 30):
            s = scaled_series(rng, desc, D, den)
            assert s.first_unit_index() == oracle_first_unit_index(s)
    for _ in range(20):
        rows = [[rng.randrange(desc.pN) * 3 ** rng.randrange(3) % desc.pN for _ in range(f)]
                for _ in range(40)]
        s = TruncSeries1.from_coeffs(desc, rows, 40)
        assert s.first_unit_index() == oracle_first_unit_index(s)
    assert TruncSeries1.zero(desc, 10, "scaled").first_unit_index() is None


@pytest.mark.parametrize("f", [1, 2])
def test_first_nonintegral_degree_matches_the_row_loop(f):
    # the route of try_endomorphism: rows whose valuation is below 0
    rng = random.Random(f"bad-{f}")
    desc = RingDescriptor(5, f, 6)
    for den in (1, 7, 5, 5**9 * 3, 5**60 * 11):
        for _ in range(10):
            g = scaled_series(rng, desc, 25, den)
            bad = np.flatnonzero(g.row_valuations()[1:] < 0)
            assert (int(bad[0]) + 1 if bad.size else None) == oracle_first_nonintegral_degree(g)


# ------------------------------------------------------------------ polygons

@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_polygon_points_match_one_element_per_coefficient(name):
    g = make_group(N=4, nmax=2, **dict(CORPUS_SPECS)[name])
    for n in (1, 2):
        P = g.division_factor(n, 4)
        ng = newton_polygon(P, P.D - 1)
        assert ng.points == oracle_polygon_points(P, P.D - 1)
    desc = RingDescriptor(3, 2, 5)
    rows = [[9, 3], [0, 0], [81, 0], [243, 27], [1, 0]]
    poly = TruncSeries1.from_coeffs(desc, rows, 6)
    assert newton_polygon(poly, 4).points == oracle_polygon_points(poly, 4) == [
        (0, 1), (2, 4), (3, 3), (4, 0)]


# ------------------------------------------------------------------ honda scale

@pytest.mark.parametrize("p,u", [(3, (0, 1)), (3, (0, 0, 1)), (5, (1,)), (3, (2, 1)), (5, (0, 2))])
def test_honda_scale_is_the_denominator_of_the_scaled_logarithm(p, u):
    lam = honda_log_coeffs(p, u, 200)
    jmax = max((-oracle_frac_val(c, p) for c in lam if c), default=0)
    s = TruncSeries1.from_coeffs(RingDescriptor(p, 1, 1), lam, 200, "scaled")
    assert s.den == p**jmax
    assert int(valuations(s.den, p, s.den.bit_length())) == jmax
    assert [Fraction(int(v), s.den) for v in s.data[:, 0]] == lam
    assert s.data[:, 0].tolist() == [int(c * p**jmax) for c in lam]
