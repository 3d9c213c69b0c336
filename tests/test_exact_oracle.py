"""The exact series route against the one it replaced.

A scaled series holds Python-int numerators over one positive denominator,
in lowest terms.  Before, it held one Fraction per coefficient component,
and every exact product went through a per-entry kernel: each operand over
the lcm of its denominators, one integer product, and one Fraction per
entry of the result.  That kernel and the algorithms it served live on
here as an oracle (FractionSeries); every exact operation is checked
against it with == on Fractions, on random series over Z_3 (f = 1) and over
the ring of the lt-h2-p3 corpus group (f = 2).
"""

import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fglab
from fglab.corpus import CORPUS_SPECS, make_group
from fglab.endo import try_endomorphism
from fglab.padic import RingDescriptor, ring_mul, ring_scale, scalar_matrix, teichmuller_digits
from fglab.precision import endo_window
from fglab.series import TruncSeries1, TruncSeries2


# ------------------------------------------------------------------ oracle

def element_from_rationals(desc, vec):
    """Reduce a vector of p-integral Fractions mod p^N of desc."""
    out = []
    for r in vec:
        r = Fraction(r)
        if r.denominator % desc.p == 0:
            raise ValueError("not p-integral")
        out.append(r.numerator * pow(r.denominator, -1, desc.pN) % desc.pN)
    return desc.from_coeffs(out)


def over_common_denominator(X):
    """Integer numerators of the exact array X over L, the lcm of its
    denominators, and L."""
    flat = [Fraction(x) for x in X.ravel().tolist()]
    L = math.lcm(*(x.denominator for x in flat))
    nums = [x.numerator * (L // x.denominator) for x in flat]
    return np.array(nums, dtype=object).reshape(X.shape), L


def fraction_ring_mul(A, B, desc, prod):
    """The per-entry exact kernel: both operands over a common denominator,
    the integer product, then one Fraction per entry of the result."""
    A, LA = over_common_denominator(A)
    B, LB = over_common_denominator(B)
    L = LA * LB
    return np.frompyfunc(lambda n: Fraction(n, L), 1, 1)(ring_mul(A, B, desc, None, prod))


def conv2(x, y):
    """Product of two (D, D) component slices, total degree < D."""
    D = x.shape[0]
    out = np.zeros_like(x)
    for i1 in range(D):
        for i2 in range(D - i1):
            seg = np.convolve(x[i1], y[i2])[: D - i1 - i2]
            out[i1 + i2, : len(seg)] += seg
    return out


def fraction_vec_invert(vec, desc):
    """Inverse of a coefficient vector by Gaussian elimination over Q."""
    f = desc.f
    vec = [Fraction(v) for v in vec]
    if f == 1:
        return [1 / vec[0]]
    S = scalar_matrix(vec, desc, None)
    M = [[S[j][i] for j in range(f)] for i in range(f)]
    rhs = [Fraction(1)] + [Fraction(0)] * (f - 1)
    for col in range(f):
        piv = next(r for r in range(col, f) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / M[col][col]
        M[col] = [m * inv for m in M[col]]
        rhs[col] *= inv
        for r in range(f):
            if r != col and M[r][col] != 0:
                fac = M[r][col]
                M[r] = [a - fac * b for a, b in zip(M[r], M[col])]
                rhs[r] -= fac * rhs[col]
    return rhs


def valuation(r, p):
    if r == 0:
        return math.inf
    r, v = Fraction(r), 0
    n, d = r.numerator, r.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


class FractionSeries:
    """A one- or two-variable exact series as it was stored before, with
    the old algorithms of compose, invert_unit and reversion on it."""

    def __init__(self, desc, D, data):
        self.desc, self.D, self.data = desc, D, data

    @classmethod
    def of(cls, s):
        return cls(s.desc, s.D, fractions(s))

    def _new(self, data):
        return FractionSeries(self.desc, self.D, data)

    def zero(self):
        return self._new(np.zeros_like(self.data))

    def one(self):
        out = self.zero()
        out.data[(0,) * out.data.ndim] = Fraction(1)
        return out

    def __add__(self, other):
        return self._new(self.data + other.data)

    def __sub__(self, other):
        return self._new(self.data - other.data)

    def __mul__(self, other):
        D = self.D
        prod = (lambda x, y: np.convolve(x, y)[:D]) if self.data.ndim == 2 else conv2
        return self._new(fraction_ring_mul(self.data, other.data, self.desc, prod))

    def scalar_mul(self, vec):
        return self._new(ring_scale(self.data, tuple(Fraction(v) for v in vec), self.desc, None))

    def truncate(self, d):
        return FractionSeries(self.desc, d, self.data[:d].copy())

    def lift(self, d):
        data = np.zeros((d, self.desc.f), dtype=object)
        data[: self.D] = self.data
        return FractionSeries(self.desc, d, data)

    def derivative(self):
        out = self.zero()
        for k in range(1, self.D):
            out.data[k - 1] = self.data[k] * k
        return out

    def compose(self, g):
        f = self.desc.f
        nz = np.flatnonzero((self.data != 0).any(axis=-1)).tolist()
        if len(nz) <= 10:
            powers = {0: g.one(), 1: g}

            def gpow(e):
                if e not in powers:
                    powers[e] = gpow(e - 1) * g if e % 2 else gpow(e // 2) * gpow(e // 2)
                return powers[e]

            out = g.zero()
            for k in nz:
                out = out + gpow(k).scalar_mul(tuple(self.data[k]))
            return out
        n = nz[-1] + 1
        s = math.isqrt(n - 1) + 1
        blocks = -(-n // s)
        baby = [g.one(), g]
        while len(baby) < s + 1:
            baby.append(baby[-1] * g)
        coeffs = np.zeros((blocks * s, f), dtype=object)
        coeffs[:n] = self.data[:n]
        sums = fraction_ring_mul(coeffs.reshape(blocks, s, f), np.stack([b.data for b in baby[:s]]),
                                 self.desc, functools.partial(np.tensordot, axes=1))
        acc = g._new(sums[-1])
        for part in sums[-2::-1]:
            acc = acc * baby[s] + g._new(part)
        return acc

    def invert_unit(self):
        x = self.zero()
        x.data[0] = fraction_vec_invert(list(self.data[0]), self.desc)
        two = self.zero()
        two.data[0, 0] = Fraction(2)
        d = 1
        while d < self.D:
            d = min(2 * d, self.D)
            xt = x.truncate(d)
            xt = xt * (two.truncate(d) - self.truncate(d) * xt)
            x = xt.lift(self.D)
        return x

    def reversion(self):
        r = self.zero()
        r.data[1] = fraction_vec_invert(list(self.data[1]), self.desc)
        d = 2
        while d < self.D:
            d = min(2 * d, self.D)
            rt, ft = r.truncate(d), self.truncate(d)
            err = ft.compose(rt)
            err.data[1, 0] -= 1
            if not err.data.any():
                r = rt.lift(self.D)
                continue
            der = ft.derivative().compose(rt)
            rt = rt - err * der.invert_unit()
            r = rt.lift(self.D)
        return r

    def to_integral(self, desc):
        """Each row through element_from_rationals, which refuses p in a
        denominator."""
        return [element_from_rationals(desc, list(row)).coeffs for row in self.data]

    def first_unit_index(self):
        p = self.desc.p
        return next((k for k in range(self.D)
                     if min(valuation(v, p) for v in self.data[k]) == 0), None)


# ----------------------------------------------------------------- helpers

def fractions(s):
    """The coefficients of a scaled series as an object array of Fractions,
    indexed [i, j] by X^i Y^j when two-variable, as the oracle stores them."""
    data = s.grid() if isinstance(s, TruncSeries2) else s.data
    return np.frompyfunc(lambda n: Fraction(n, s.den), 1, 1)(data)


def assert_same(new, old):
    """new (numerators over den) equals old (Fractions) exactly, and new is
    in lowest terms with a positive denominator, den = 1 for zero."""
    assert new.domain == "scaled" and new.data.dtype == object
    assert all(type(v) is int for v in new.data.flat)
    assert type(new.den) is int and new.den > 0
    assert math.gcd(new.den, *new.data.flat) == 1
    assert new.den == 1 or new.data.any()
    assert new.data.shape == old.data.shape and (fractions(new) == old.data).all()


RINGS = {1: RingDescriptor(3, 1, 6), 2: RingDescriptor(3, 2, 6)}  # f = 2 is lt-h2-p3's ring
DENOMINATORS = [1, 2, 3, 5, 9, 27, 7 * 81]


def rational(rng, unit=False):
    """A random rational; a p-adic unit when asked."""
    if unit:
        return Fraction(rng.choice([1, 2, 4, 5, 7, -1, -2]), rng.choice([1, 2, 5, 7]))
    return Fraction(rng.randrange(-40, 41), rng.choice(DENOMINATORS))


def integral(rng):
    """A random rational divisible by 3, with a denominator prime to 3."""
    return Fraction(3 * rng.randrange(-40, 41), rng.choice([1, 2, 5, 7]))


def exact_series(kind, f, D, rng, degrees=None, constant=False, unit_at=None):
    """A random scaled series of `kind` over RINGS[f]: support `degrees` (of
    the first variable), a constant term only when asked, and a unit
    coefficient at degree unit_at."""
    desc = RINGS[f]
    terms = []
    for idx in np.ndindex(*(D,) * kind._axes):
        if sum(idx) >= D or (degrees is not None and idx[0] not in degrees):
            continue
        if sum(idx) == 0 and not constant:
            continue
        vec = [rational(rng) for _ in range(f)]
        if idx[0] == unit_at and sum(idx) == unit_at:
            vec = [rational(rng, unit=True)] + [integral(rng) for _ in range(f - 1)]
        terms.append((idx, vec))
    if kind is TruncSeries1:
        return TruncSeries1.from_coeffs(desc, [dict((i[0], v) for i, v in terms).get(k, 0)
                                               for k in range(D)], D, "scaled")
    return TruncSeries2.from_triples(desc, [(i, j, v) for (i, j), v in terms], D, "scaled")


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("kind", [TruncSeries1, TruncSeries2])
def test_products_sums_and_scalars_match_oracle(f, kind):
    rng = random.Random(f"arith-{f}-{kind.__name__}")
    D = 12 if kind is TruncSeries1 else 6
    for _ in range(3):
        a = exact_series(kind, f, D, rng, constant=True)
        b = exact_series(kind, f, D, rng, constant=True)
        A, B = FractionSeries.of(a), FractionSeries.of(b)
        assert_same(a * b, A * B)
        assert_same(a + b, A + B)
        assert_same(a - b, A - B)
        assert_same(a - a, A - A)
        c = rational(rng)
        assert_same(a.scalar_mul(c), A.scalar_mul((c,) + (0,) * (f - 1)))
        vec = tuple(rational(rng) for _ in range(f))
        assert_same(a.scalar_mul(vec), A.scalar_mul(vec))
        elem = RINGS[f].from_coeffs([rng.randrange(RINGS[f].pN) for _ in range(f)])
        assert_same(a.scalar_mul(elem), A.scalar_mul(elem.coeffs))


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("kind", [TruncSeries1, TruncSeries2])
@pytest.mark.parametrize("support", ["sparse", "dense"])
def test_compose_matches_oracle(f, kind, support):
    rng = random.Random(f"compose-{f}-{kind.__name__}-{support}")
    D = 12
    degrees = {0, 1, 4, 7, 11} if support == "sparse" else None
    outer = exact_series(TruncSeries1, f, D, rng, degrees=degrees, constant=True)
    assert (len(outer.nonzero_degrees()) <= 10) == (support == "sparse")
    g = exact_series(kind, f, D, rng)
    assert_same(outer.compose(g), FractionSeries.of(outer).compose(FractionSeries.of(g)))


@pytest.mark.parametrize("f", [1, 2])
def test_reversion_and_inverse_match_oracle(f):
    rng = random.Random(f"newton-{f}")
    for D in (5, 12, 17):
        s = exact_series(TruncSeries1, f, D, rng, unit_at=1)
        S = FractionSeries.of(s)
        r = s.reversion()
        assert_same(r, S.reversion())
        x = TruncSeries1.x(s.desc, D, "scaled")
        assert s.compose(r) == x and r.compose(s) == x
        u = exact_series(TruncSeries1, f, D, rng, constant=True, unit_at=0)
        assert_same(u.invert_unit(), FractionSeries.of(u).invert_unit())


@pytest.mark.parametrize("f", [1, 2])
def test_to_integral_and_first_unit_index_match_oracle(f):
    rng = random.Random(f"edges-{f}")
    desc = RINGS[f]
    for D in (6, 12):
        # p-integral: denominators prime to 3, a unit somewhere past degree 2
        vals = [[integral(rng) for _ in range(f)] for _ in range(D)]
        k = rng.randrange(2, D)
        vals[k][0] = rational(rng, unit=True)
        s = TruncSeries1.from_coeffs(desc, vals, D, "scaled")
        S = FractionSeries.of(s)
        assert s.first_unit_index() == S.first_unit_index() == min(
            j for j in range(D) if any(valuation(v, 3) == 0 for v in vals[j]))
        for M in (3, 6):
            got = s.to_integral(desc.at_precision(M))
            assert [tuple(int(v) for v in row) for row in got.data] == \
                S.to_integral(desc.at_precision(M))
        # p in a denominator: both refuse, and the unit index sees valuations < 0
        vals[k - 1][f - 1] = Fraction(1, 9)
        s = TruncSeries1.from_coeffs(desc, vals, D, "scaled")
        S = FractionSeries.of(s)
        with pytest.raises(ValueError, match="p-integral"):
            s.to_integral(desc)
        with pytest.raises(ValueError, match="p-integral"):
            S.to_integral(desc)
        assert s.first_unit_index() == S.first_unit_index()
    zero = TruncSeries1.zero(desc, 6, "scaled")
    assert zero.first_unit_index() is None and zero.den == 1


def oracle_certificate(group, a, log, exp):
    """The old route of try_endomorphism: exp(a log) on Fractions, its
    first non-integral degree, and its reduction when integral."""
    p, D = group.desc.p, log.D
    vec = (Fraction(a),) + (0,) * (group.desc.f - 1) if isinstance(a, int) else a.coeffs
    g = exp.compose(log.scalar_mul(vec))
    bad = next((k for k in range(1, D) if any(Fraction(v).denominator % p == 0
                                              for v in g.data[k])), None)
    return g, bad


@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_try_endomorphism_matches_oracle(name):
    group = make_group(N=8, nmax=2, label=name, **dict(CORPUS_SPECS)[name])
    D = endo_window(group.q)
    log = FractionSeries.of(group.logarithm(D))
    exp = log.reversion()
    assert_same(group.exponential(D), exp)
    digits = teichmuller_digits(group.desc)
    for a in (-1, group.desc.p, digits[2] if len(digits) > 2 else digits[1]):
        rec = try_endomorphism(group, a)
        g, bad = oracle_certificate(group, a, log, exp)
        assert rec["first_nonintegral_degree"] == bad
        assert rec["success"] == (bad is None)
        if bad is None:
            desc_eff = group.desc.at_precision(rec["precision"])
            assert [tuple(int(v) for v in row) for row in rec["series"].data] == \
                g.to_integral(desc_eff)


# ----------------------------------------------- guard and lint on the route

@pytest.fixture
def fraction_count(monkeypatch):
    """A counter of Fraction constructions while the fixture is active."""
    count = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return count


def test_exact_route_builds_few_fractions(fraction_count):
    desc = RingDescriptor(3, 1, 6)
    rng = random.Random(7)
    s = TruncSeries1.from_coeffs(desc, [0, 1 + 3 * rng.randrange(81)]
                                 + [rng.randrange(desc.pN) for _ in range(10)], 12).to_scaled()
    fraction_count[0] = 0
    r = s.reversion()
    assert s.compose(r) == r.compose(s)
    assert fraction_count[0] <= 24  # 1,104 with one Fraction per coefficient

    group = make_group(N=6, nmax=2, label="lt-p3", **dict(CORPUS_SPECS)["lt-p3"])
    fraction_count[0] = 0
    assert try_endomorphism(group, -1)["success"]
    assert fraction_count[0] <= 100  # 3,966 with one Fraction per coefficient


def test_no_per_entry_fraction_kernel_in_src():
    src = Path(fglab.__file__).parent
    found = [f"{path.name}:{lineno}: {word}"
             for path in sorted(src.glob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             for word in ("_over_common_denominator", "np.frompyfunc") if word in line]
    assert found == []
