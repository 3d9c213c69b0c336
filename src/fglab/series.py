"""Truncated power series over unramified p-adic coefficient rings.

A series is a coefficient array of shape (D, f): D tracked degrees, f ring
components per coefficient.  Products of series, of two-variable series and
by ring scalars all go through the coefficient-ring kernel of padic
(ring_mul with a truncated convolution, ring_scale).  Two domains are
supported:

* "integral": entries are ints reduced mod p^N (int64 arrays when the
  bound max(D, 2f) * p^{2N} on the kernel's sums fits in a machine word,
  object arrays otherwise);
* "scaled": exact rationals, held as an object array of Python-int
  numerators over one positive integer denominator `den`, in lowest terms:
  gcd(den, every numerator) = 1, and den = 1 for zero.  The form is
  canonical, so == is exact equality.  This is the domain for logarithms
  and anything with p in denominators.  A product is the kernel's integer
  product over the product of the two denominators, divided by one gcd;
  sums align the denominators by their lcm.  Fractions appear only at the
  edges: as input to from_coeffs, from_triples and scalar_mul, and as the
  output of coeff_vec, coeff_triples and repr.

An integral series keeps den = 1.  A two-variable product goes by
homogeneous parts: the part of total degree t is the anti-diagonal
c[i, t - i], the zero parts are skipped, and each pair of nonzero parts
t1 + t2 < D is one convolution into part t1 + t2, reduced after every
addition.  Composition has one route,
TruncSeries1.compose, for an inner series of either kind: an outer series
with at most 10 nonzero terms sums addition-chain powers in one
contraction, any other goes baby-step/giant-step with its block sums in
one contraction.
substitute2_into2 forms F(g(X), h(Y)) as P^T F Q from the power tables of
g and h.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction

import numpy as np

from .padic import (
    RingDescriptor,
    UnramifiedRingElem,
    contraction_dtype,
    ring_mul,
    ring_scale,
    scalar_matrix,
)


def _dtype_for(desc: RingDescriptor, D: int, domain: str):
    return object if domain == "scaled" else contraction_dtype(D, desc)


def _zeros(desc, D, domain):
    return np.zeros((D, desc.f), dtype=_dtype_for(desc, D, domain))


def _mul_data(A, B, desc: RingDescriptor, D: int, modulo):
    """Product of series data, truncated at degree D."""
    return ring_mul(A, B, desc, modulo, lambda x, y: np.convolve(x, y)[:D])


def _vector(c, f: int):
    """The coefficient vector of a ring element, a vector or a rational."""
    if isinstance(c, UnramifiedRingElem):
        return c.coeffs
    if isinstance(c, (list, tuple)):
        return c
    if isinstance(c, numbers.Rational):
        return (c,) + (0,) * (f - 1)
    raise TypeError("unsupported scalar")


def _num_den(values):
    """Integer numerators of ints and Fractions over their least common
    denominator, and that denominator."""
    den = math.lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (den // int(v.denominator)) for v in values], den


def _common(series):
    """The numerator arrays of several series stacked over the lcm of their
    denominators, and that lcm."""
    den = math.lcm(*(s.den for s in series))
    return np.stack([s.data if s.den == den else s.data * (den // s.den) for s in series]), den


def _p_part(n: int, p: int) -> int:
    """The largest power of p dividing the positive integer n."""
    pv = 1
    while n % (pv * p) == 0:
        pv *= p
    return pv


class _Series:
    """What one- and two-variable series share: the ring, domain and window,
    the numerators and their denominator, and the entrywise operations."""

    __slots__ = ("desc", "D", "domain", "data", "den")

    def __init__(self, desc: RingDescriptor, D: int, domain: str, data, den: int = 1):
        if domain not in ("integral", "scaled"):
            raise ValueError("unknown domain")
        if den != 1:
            g = math.gcd(den, *data.ravel().tolist())
            if g != 1:
                data, den = data // g, den // g
        self.desc = desc
        self.D = D
        self.domain = domain
        self.data = data
        self.den = den

    @classmethod
    def zero(cls, desc, D, domain="integral"):
        shape = (D,) * cls._axes + (desc.f,)
        return cls(desc, D, domain, np.zeros(shape, dtype=_dtype_for(desc, D, domain)))

    @classmethod
    def _from_entries(cls, desc, D, domain, entries):
        """A series from (index, coefficient vector) pairs."""
        s = cls.zero(desc, D, domain)
        if domain == "integral":
            for idx, vec in entries:
                s.data[idx] = [int(v) % desc.pN for v in vec]
            return s
        f = desc.f
        nums, den = _num_den([v for _, vec in entries for v in vec] or [0])
        for i, (idx, _) in enumerate(entries):
            s.data[idx] = nums[i * f:(i + 1) * f]
        return cls(desc, D, domain, s.data, den)

    def _new(self, data, den=1):
        """A series of this kind, ring, domain and window."""
        return type(self)(self.desc, self.D, self.domain, data, den)

    def _modulo(self):
        return self.desc.pN if self.domain == "integral" else None

    def _compat(self, other):
        if self.desc != other.desc or self.domain != other.domain:
            raise ValueError("series rings differ")
        if self.D != other.D:
            raise ValueError("truncation degrees differ; truncate or lift first")

    def _reduced(self, data, den):
        m = self._modulo()
        return self._new(data if m is None else data % m, den)

    def _aligned(self, other):
        """Both numerator arrays over the lcm of the two denominators, and it."""
        self._compat(other)
        if self.den == other.den:
            return self.data, other.data, self.den
        den = math.lcm(self.den, other.den)
        return self.data * (den // self.den), other.data * (den // other.den), den

    def __add__(self, other):
        a, b, den = self._aligned(other)
        return self._reduced(a + b, den)

    def __sub__(self, other):
        a, b, den = self._aligned(other)
        return self._reduced(a - b, den)

    def __neg__(self):
        return self._reduced(-self.data, self.den)

    def _divided(self, n: int):
        """This series divided by the positive integer n."""
        return self if n == 1 else self._new(self.data, self.den * n)

    def scalar_mul(self, c):
        """Multiply by a ring scalar (elem, int, Fraction, or vector)."""
        vec = _vector(c, self.desc.f)
        if self.domain == "integral":
            return self._new(ring_scale(self.data, vec, self.desc, self.desc.pN))
        nums, den = _num_den(vec)
        return self._new(ring_scale(self.data, nums, self.desc, None), self.den * den)

    def _fractions(self, idx):
        """The coefficient vector at idx, as Fractions when scaled."""
        if self.domain == "integral":
            return tuple(self.data[idx])
        return tuple(Fraction(int(v), self.den) for v in self.data[idx])

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.desc == other.desc
            and self.domain == other.domain
            and self.D == other.D
            and self.den == other.den
            and bool(np.array_equal(self.data, other.data))
        )


class TruncSeries1(_Series):
    """One-variable truncated series: coefficients of X^0 .. X^{D-1}."""

    __slots__ = ()
    _axes = 1

    # ------------------------------------------------------------- builders
    @classmethod
    def x(cls, desc, D, domain="integral"):
        s = cls.zero(desc, D, domain)
        s.data[1, 0] = 1
        return s

    @classmethod
    def from_coeffs(cls, desc, coeffs, D=None, domain="integral"):
        """coeffs: list whose entries are ints, Fractions, coefficient vectors
        or UnramifiedRingElem, ascending degree."""
        if D is None:
            D = len(coeffs)
        return cls._from_entries(desc, D, domain,
                                 [(k, _vector(c, desc.f)) for k, c in enumerate(coeffs[:D])])

    def _monomial(self, k: int, vec, den: int = 1):
        """(vec / den) X^k on this series' ring, domain and window."""
        data = _zeros(self.desc, self.D, self.domain)
        data[k] = _vector(vec, self.desc.f)
        return self._new(data, den)

    # ------------------------------------------------------------ accessors
    def coefficient(self, k: int) -> UnramifiedRingElem:
        """The coefficient of X^k of an integral series, as a ring element."""
        if k >= self.D:
            raise IndexError("degree outside truncation window")
        if self.domain != "integral":
            raise ValueError("scaled coefficients are numerators over den; read coeff_vec")
        return UnramifiedRingElem(self.desc, [int(v) for v in self.data[k]])

    def coeff_vec(self, k: int):
        return self._fractions(k)

    def first_unit_index(self):
        """Smallest k with a unit coefficient, or None: the least valuation
        of the numerators of X^k equals that of den."""
        p = self.desc.p
        pv = _p_part(self.den, p)
        for k in range(self.D):
            row = [int(v) for v in self.data[k]]
            if any(v % (pv * p) for v in row) and all(v % pv == 0 for v in row):
                return k
        return None

    def nonzero_degrees(self):
        return np.flatnonzero((self.data != 0).any(axis=-1)).tolist()

    # ------------------------------------------------------------ arithmetic
    def __mul__(self, other):
        self._compat(other)
        data = _mul_data(self.data, other.data, self.desc, self.D, self._modulo())
        return self._new(data, self.den * other.den)

    def shift(self, k: int):
        """Multiply by X^k."""
        data = _zeros(self.desc, self.D, self.domain)
        if k < self.D:
            data[k:] = self.data[: self.D - k]
        return self._new(data, self.den)

    def truncate(self, Dnew: int):
        if Dnew > self.D:
            raise ValueError("use lift to extend")
        return TruncSeries1(self.desc, Dnew, self.domain, self.data[:Dnew].copy(), self.den)

    def lift(self, Dnew: int):
        """Extend the window, declaring the new coefficients zero."""
        if Dnew < self.D:
            return self.truncate(Dnew)
        data = _zeros(self.desc, Dnew, self.domain)
        data[: self.D] = self.data
        return TruncSeries1(self.desc, Dnew, self.domain, data, self.den)

    def pow_trunc(self, e: int):
        result = self._monomial(0, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def compose(self, g):
        """self(g): the one composition route.

        g is a TruncSeries1 or a TruncSeries2 on the same ring, domain and
        window, with zero constant term; the result is of g's kind.  An
        outer series with at most 10 nonzero terms takes the powers of g it
        needs from a memoised addition chain and sums them in one ring_mul
        contraction.  Any other takes baby steps g^r for r < s =
        ceil(sqrt(n)), n the number of terms up to the last nonzero one,
        forms every block sum sum_r c_{bs+r} g^r in one contraction, and
        runs Horner in g^s over the blocks (Paterson-Stockmeyer): about
        2 sqrt(n) products of g's kind.  Both contract self's numerators
        and divide by self.den once at the end.
        """
        self._compat(g)
        if g.data[(0,) * (g.data.ndim - 1)].any():
            raise ValueError("inner series must have zero constant term")
        kind, desc, D, domain = type(g), self.desc, self.D, self.domain
        nz = self.nonzero_degrees()
        if not nz:
            return kind.zero(desc, D, domain)

        def sums(rows, terms):
            """sum_r rows[..., r] terms[r], one series per leading index of rows."""
            stack, den = _common(terms)
            out = ring_mul(rows, stack, desc, self._modulo(),
                           functools.partial(np.tensordot, axes=1))
            return [kind(desc, D, domain, part, den) for part in out]

        if len(nz) <= 10:
            powers = dict(enumerate(_powers(g, 2)))

            def gpow(e):
                if e not in powers:
                    powers[e] = gpow(e - 1) * g if e % 2 else gpow(e // 2) * gpow(e // 2)
                return powers[e]

            return sums(self.data[nz][None], [gpow(k) for k in nz])[0]._divided(self.den)
        n = nz[-1] + 1
        s = math.isqrt(n - 1) + 1
        blocks = -(-n // s)
        baby = _powers(g, s + 1)
        coeffs = np.zeros((blocks * s, desc.f), dtype=self.data.dtype)
        coeffs[:n] = self.data[:n]
        parts = sums(coeffs.reshape(blocks, s, desc.f), baby[:s])
        acc = parts[-1]
        for part in parts[-2::-1]:
            acc = acc * baby[s] + part
        return acc._divided(self.den)

    def derivative(self):
        data = _zeros(self.desc, self.D, self.domain)
        for k in range(1, self.D):
            data[k - 1] = self.data[k] * k
        return self._reduced(data, self.den)

    def invert_unit(self):
        """Multiplicative inverse; constant coefficient must be a unit."""
        if self.domain == "integral":
            x = self._monomial(0, self.coefficient(0).invert().coeffs)
        elif self.first_unit_index() != 0:
            raise ZeroDivisionError("constant term is not a unit")
        else:
            x = self._monomial(0, *_exact_vec_invert(self.data[0], self.den, self.desc))
        two = self._monomial(0, 2)
        d = 1
        while d < self.D:
            d = min(2 * d, self.D)
            xt = x.truncate(d)
            st = self.truncate(d)
            twot = two.truncate(d)
            xt = xt * (twot - st * xt)
            x = xt.lift(self.D)
        return x

    def reversion(self):
        """Compositional inverse; needs zero constant term and unit linear
        coefficient.  Newton iteration with degree doubling."""
        if any(v != 0 for v in self.data[0]):
            raise ValueError("series must have zero constant term")
        if self.domain == "integral":
            r = self._monomial(1, self.coefficient(1).invert().coeffs)
        else:
            r = self._monomial(1, *_exact_vec_invert(self.data[1], self.den, self.desc))
        x = TruncSeries1.x(self.desc, self.D, self.domain)
        d = 2
        while d < self.D:
            d = min(2 * d, self.D)
            rt = r.truncate(d)
            ft = self.truncate(d)
            err = ft.compose(rt) - x.truncate(d)
            if err.is_zero():
                r = rt.lift(self.D)
                continue
            der = ft.derivative().compose(rt)
            rt = rt - err * der.invert_unit()
            r = rt.lift(self.D)
        return r

    # --------------------------------------------------------- conversions
    def to_scaled(self) -> "TruncSeries1":
        if self.domain == "scaled":
            return self
        return TruncSeries1(self.desc, self.D, "scaled", self.data.astype(object))

    def to_integral(self, desc: RingDescriptor | None = None) -> "TruncSeries1":
        """Reduce exact coefficients mod p^N: the numerators times the
        inverse of den; fails on p in a denominator."""
        desc = desc or self.desc
        if not desc.same_field(self.desc):
            raise ValueError("descriptor mismatch")
        if self.domain == "integral" and desc.N == self.desc.N:
            return self
        if self.den % desc.p == 0:
            raise ValueError("not p-integral")
        data = self.data if self.den == 1 else self.data * pow(self.den, -1, desc.pN)
        return TruncSeries1(desc, self.D, "integral",
                            (data % desc.pN).astype(_dtype_for(desc, self.D, "integral")))

    def reduce_precision(self, M: int) -> "TruncSeries1":
        return self.to_integral(self.desc.at_precision(M))

    # --------------------------------------------------------------- misc
    def __repr__(self):
        terms, nz = [], self.nonzero_degrees()
        for k in nz[:6]:
            vec = self.coeff_vec(k)
            terms.append(f"{vec[0] if self.desc.f == 1 else list(vec)}*X^{k}")
        if len(nz) > 6:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"TruncSeries1({body}; D={self.D}, {self.domain})"


def _exact_vec_invert(nums, den: int, desc: RingDescriptor):
    """(w, e) with w / e the inverse of the ring element nums / den, exactly:
    fraction-free Gauss-Jordan elimination on the multiplication matrix of
    nums, augmented by e_0, leaves row i as d_i w_i = r_i."""
    f = desc.f
    S = scalar_matrix([int(v) for v in nums], desc, None)
    M = [[S[j][i] for j in range(f)] + [int(i == 0)] for i in range(f)]
    for col in range(f):
        piv = next(r for r in range(col, f) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        for r in range(f):
            if r != col and M[r][col] != 0:
                a, b = M[col][col], M[r][col]
                M[r] = [a * x - b * y for x, y in zip(M[r], M[col])]
    e = math.lcm(*(M[i][i] for i in range(f)))
    return [den * M[i][f] * (e // M[i][i]) for i in range(f)], e


class TruncSeries2(_Series):
    """Two-variable truncated series: coefficients c[i, j] of X^i Y^j for
    total degree i + j < D."""

    __slots__ = ()
    _axes = 2

    @classmethod
    def from_triples(cls, desc, triples, D, domain="integral"):
        """triples: iterable of (i, j, value or vector)."""
        return cls._from_entries(desc, D, domain,
                                 [((i, j), _vector(v, desc.f)) for i, j, v in triples if i + j < D])

    def __mul__(self, other):
        self._compat(other)
        D, m = self.D, self._modulo()
        # the homogeneous part of total degree t: the anti-diagonal x[i, t - i]
        diag = [(np.arange(t + 1), t - np.arange(t + 1)) for t in range(D)]

        def conv2(x, y):
            """Product of two (D, D) component slices, total degree < D: the
            parts of degrees t1 and t2 convolve into the part of t1 + t2."""
            xs = [(t, x[ij]) for t, ij in enumerate(diag) if x[ij].any()]
            ys = [(t, y[ij]) for t, ij in enumerate(diag) if y[ij].any()]
            parts = {}
            for t1, a in xs:
                for t2, b in ys:
                    if t1 + t2 >= D:
                        break
                    c = np.convolve(a, b)
                    if t1 + t2 in parts:
                        c = c + parts[t1 + t2]
                    parts[t1 + t2] = c if m is None else c % m
            out = np.zeros_like(x)
            for t, c in parts.items():
                out[diag[t]] = c
            return out

        return self._new(ring_mul(self.data, other.data, self.desc, m, conv2), self.den * other.den)

    def coefficient(self, i, j) -> UnramifiedRingElem:
        """The coefficient of X^i Y^j of an integral series, as a ring element."""
        if self.domain != "integral":
            raise ValueError("scaled coefficients are numerators over den; read coeff_triples")
        return UnramifiedRingElem(self.desc, [int(v) for v in self.data[i, j]])

    def coeff_triples(self):
        out = []
        for i in range(self.D):
            for j in range(self.D - i):
                if any(v != 0 for v in self.data[i, j]):
                    out.append((i, j, self._fractions((i, j))))
        return out

    def __repr__(self):
        return f"TruncSeries2(D={self.D}, {self.domain}, {len(self.coeff_triples())} terms)"


def _powers(g, count):
    """[g^0, g^1, ..., g^(count-1)] for a series of either kind."""
    one = type(g).zero(g.desc, g.D, g.domain)
    one.data[(0,) * one.data.ndim] = 1
    out = [one, g]
    while len(out) < count:
        out.append(out[-1] * g)
    return out[:count]


def substitute2_into2(F: TruncSeries2, g: TruncSeries1, h: TruncSeries1) -> TruncSeries2:
    """F(g(X), h(Y)) for one-variable g, h with zero constant terms, on F's
    ring, domain and window.  With row i of P holding g^i and row j of Q
    holding h^j, this is P^T F Q: two ring_mul contractions, then the
    terms of total degree >= D are dropped."""
    for s in (g, h):
        F._compat(s)
        if s.data[0].any():
            raise ValueError("substituted series must have zero constant term")
    D, m = F.D, F._modulo()
    P, dP = _common(_powers(g, D))
    Q, dQ = (P, dP) if h is g else _common(_powers(h, D))
    FQ = ring_mul(F.data, Q, F.desc, m, np.matmul)
    out = ring_mul(P, FQ, F.desc, m, lambda x, y: x.T @ y)
    out[np.add.outer(np.arange(D), np.arange(D)) >= D] = 0
    return TruncSeries2(F.desc, D, F.domain, out, F.den * dP * dQ)

