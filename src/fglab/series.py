"""Truncated power series over unramified p-adic coefficient rings.

A series is a coefficient array of shape (D, f): D tracked degrees, f ring
components per coefficient.  Products of series, of two-variable series and
by ring scalars all go through the coefficient-ring kernel of padic
(ring_mul with a truncated convolution, ring_scale).  Two domains are
supported:

* "integral": entries are ints reduced mod p^N (int64 arrays when the
  bound max(D, 2f) * p^{2N} on the kernel's sums fits in a machine word,
  object arrays otherwise);
* "scaled": entries are exact Fractions, no modular reduction.  This is the
  domain for logarithms and anything with p in denominators.  The kernel
  multiplies two scaled arrays as integer numerators, each over one common
  denominator, and forms one Fraction per entry of the product.

Composition has one route, TruncSeries1.compose, for an inner series of
either kind: an outer series with at most 10 nonzero terms sums scaled
addition-chain powers, any other goes baby-step/giant-step with its block
sums in one contraction.  substitute2_into2 forms F(g(X), h(Y)) as P^T F Q
from the power tables of g and h.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .padic import (
    RingDescriptor,
    UnramifiedRingElem,
    contraction_dtype,
    rational_vec_valuation,
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


class TruncSeries1:
    """One-variable truncated series: coefficients of X^0 .. X^{D-1}."""

    __slots__ = ("desc", "D", "domain", "data")

    def __init__(self, desc: RingDescriptor, D: int, domain: str, data):
        if domain not in ("integral", "scaled"):
            raise ValueError("unknown domain")
        self.desc = desc
        self.D = D
        self.domain = domain
        self.data = data

    # ------------------------------------------------------------- builders
    @classmethod
    def zero(cls, desc, D, domain="integral"):
        return cls(desc, D, domain, _zeros(desc, D, domain))

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
        s = cls.zero(desc, D, domain)
        for k, c in enumerate(coeffs[:D]):
            if isinstance(c, UnramifiedRingElem):
                vec = c.coeffs
            elif isinstance(c, (list, tuple)):
                vec = c
            else:
                vec = (c,) + (0,) * (desc.f - 1)
            for j, v in enumerate(vec):
                if domain == "integral":
                    s.data[k, j] = int(v) % desc.pN
                else:
                    s.data[k, j] = Fraction(v)
        return s

    # ------------------------------------------------------------ accessors
    def coefficient(self, k: int) -> UnramifiedRingElem:
        """The coefficient of X^k of an integral series, as a ring element."""
        if k >= self.D:
            raise IndexError("degree outside truncation window")
        if self.domain != "integral":
            raise ValueError("scaled coefficients are Fractions; read coeff_vec")
        return UnramifiedRingElem(self.desc, [int(v) for v in self.data[k]])

    def coeff_vec(self, k: int):
        return tuple(self.data[k])

    def is_zero(self) -> bool:
        return not self.data.any()

    def first_unit_index(self):
        """Smallest k with a unit coefficient, or None."""
        for k in range(self.D):
            if self.domain == "integral":
                if any(int(v) % self.desc.p for v in self.data[k]):
                    return k
            else:
                if rational_vec_valuation(list(self.data[k]), self.desc.p) == 0:
                    return k
        return None

    def nonzero_degrees(self):
        return np.flatnonzero((self.data != 0).any(axis=-1)).tolist()

    # ------------------------------------------------------------ arithmetic
    def _modulo(self):
        return self.desc.pN if self.domain == "integral" else None

    def _compat(self, other):
        if self.desc != other.desc or self.domain != other.domain:
            raise ValueError("series rings differ")
        if self.D != other.D:
            raise ValueError("truncation degrees differ; truncate or lift first")

    def __add__(self, other):
        self._compat(other)
        data = self.data + other.data
        m = self._modulo()
        if m is not None:
            data = data % m
        return TruncSeries1(self.desc, self.D, self.domain, data)

    def __sub__(self, other):
        self._compat(other)
        data = self.data - other.data
        m = self._modulo()
        if m is not None:
            data = data % m
        return TruncSeries1(self.desc, self.D, self.domain, data)

    def __neg__(self):
        m = self._modulo()
        data = -self.data
        if m is not None:
            data = data % m
        return TruncSeries1(self.desc, self.D, self.domain, data)

    def __mul__(self, other):
        self._compat(other)
        data = _mul_data(self.data, other.data, self.desc, self.D, self._modulo())
        return TruncSeries1(self.desc, self.D, self.domain, data)

    def scalar_mul(self, c):
        """Multiply by a ring scalar (elem, int, Fraction, or vector)."""
        if isinstance(c, UnramifiedRingElem):
            vec = c.coeffs
        elif isinstance(c, (list, tuple)):
            vec = c
        elif isinstance(c, (int, Fraction)):
            vec = (c,) + (0,) * (self.desc.f - 1)
        else:
            raise TypeError("unsupported scalar")
        if self.domain == "scaled":
            vec = tuple(Fraction(v) for v in vec)
        data = ring_scale(self.data, vec, self.desc, self._modulo())
        return TruncSeries1(self.desc, self.D, self.domain, data)

    def shift(self, k: int):
        """Multiply by X^k."""
        s = TruncSeries1.zero(self.desc, self.D, self.domain)
        if k < self.D:
            s.data[k:] = self.data[: self.D - k]
        return s

    def truncate(self, Dnew: int):
        if Dnew > self.D:
            raise ValueError("use lift to extend")
        return TruncSeries1(self.desc, Dnew, self.domain, self.data[:Dnew].copy())

    def lift(self, Dnew: int):
        """Extend the window, declaring the new coefficients zero."""
        if Dnew < self.D:
            return self.truncate(Dnew)
        s = TruncSeries1.zero(self.desc, Dnew, self.domain)
        s.data[: self.D] = self.data
        return s

    def pow_trunc(self, e: int):
        result = TruncSeries1.zero(self.desc, self.D, self.domain)
        result.data[0, 0] = 1 if self.domain == "integral" else Fraction(1)
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
        outer series with at most 10 nonzero terms sums scaled powers of g
        from a memoised addition chain.  Any other takes baby steps g^r for
        r < s = ceil(sqrt(n)), n the number of terms up to the last nonzero
        one, forms every block sum sum_r c_{bs+r} g^r in one ring_mul
        contraction, and runs Horner in g^s over the blocks
        (Paterson-Stockmeyer): about 2 sqrt(n) products of g's kind.
        """
        self._compat(g)
        if g.data[(0,) * (g.data.ndim - 1)].any():
            raise ValueError("inner series must have zero constant term")
        kind, desc, D, domain = type(g), self.desc, self.D, self.domain
        nz = self.nonzero_degrees()
        if len(nz) <= 10:
            powers = dict(enumerate(_powers(g, 2)))

            def gpow(e):
                if e not in powers:
                    powers[e] = gpow(e - 1) * g if e % 2 else gpow(e // 2) * gpow(e // 2)
                return powers[e]

            out = kind.zero(desc, D, domain)
            for k in nz:
                out = out + gpow(k).scalar_mul(self.coeff_vec(k))
            return out
        n = nz[-1] + 1
        s = math.isqrt(n - 1) + 1
        blocks = -(-n // s)
        baby = _powers(g, s + 1)
        coeffs = np.zeros((blocks * s, desc.f), dtype=self.data.dtype)
        coeffs[:n] = self.data[:n]
        sums = ring_mul(coeffs.reshape(blocks, s, desc.f), np.stack([b.data for b in baby[:s]]),
                        desc, self._modulo(), functools.partial(np.tensordot, axes=1))
        acc = kind(desc, D, domain, sums[-1])
        for part in sums[-2::-1]:
            acc = acc * baby[s] + kind(desc, D, domain, part)
        return acc

    def derivative(self):
        s = TruncSeries1.zero(self.desc, self.D, self.domain)
        for k in range(1, self.D):
            s.data[k - 1] = self.data[k] * k
        m = self._modulo()
        if m is not None:
            s.data = s.data % m
        return s

    def invert_unit(self):
        """Multiplicative inverse; constant coefficient must be a unit."""
        if self.domain == "integral":
            seed = self.coefficient(0).invert().coeffs
        else:
            vec = list(self.data[0])
            if rational_vec_valuation(vec, self.desc.p) != 0:
                raise ZeroDivisionError("constant term is not a unit")
            seed = _exact_vec_invert(vec, self.desc)
        x = TruncSeries1.zero(self.desc, self.D, self.domain)
        x.data[0] = np.array(seed, dtype=x.data.dtype)
        two = TruncSeries1.zero(self.desc, self.D, self.domain)
        two.data[0, 0] = 2 if self.domain == "integral" else Fraction(2)
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
        r = TruncSeries1.zero(self.desc, self.D, self.domain)
        if self.domain == "integral":
            r.data[1] = np.array(self.coefficient(1).invert().coeffs, dtype=r.data.dtype)
        else:
            r.data[1] = np.array(_exact_vec_invert(list(self.data[1]), self.desc), dtype=object)
        d = 2
        while d < self.D:
            d = min(2 * d, self.D)
            rt = r.truncate(d)
            ft = self.truncate(d)
            err = ft.compose(rt)
            err.data[1, 0] -= 1
            m = self._modulo()
            if m is not None:
                err.data[1, 0] %= m
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
        data = np.empty((self.D, self.desc.f), dtype=object)
        for k in range(self.D):
            for j in range(self.desc.f):
                data[k, j] = Fraction(int(self.data[k, j]))
        return TruncSeries1(self.desc, self.D, "scaled", data)

    def to_integral(self, desc: RingDescriptor | None = None) -> "TruncSeries1":
        """Reduce exact coefficients mod p^N; fails on p in a denominator."""
        desc = desc or self.desc
        if not desc.same_field(self.desc):
            raise ValueError("descriptor mismatch")
        if self.domain == "integral":
            if desc.N == self.desc.N:
                return self
            out = TruncSeries1.zero(desc, self.D, "integral")
            out.data = (self.data % desc.pN).astype(out.data.dtype)
            return out
        out = TruncSeries1.zero(desc, self.D, "integral")
        for k in range(self.D):
            e = desc.element_from_rationals(list(self.data[k]))
            out.data[k] = np.array(e.coeffs, dtype=out.data.dtype)
        return out

    def reduce_precision(self, M: int) -> "TruncSeries1":
        return self.to_integral(self.desc.at_precision(M))

    # --------------------------------------------------------------- misc
    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries1)
            and self.desc == other.desc
            and self.domain == other.domain
            and self.D == other.D
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self):
        terms = []
        shown = 0
        for k in range(self.D):
            if any(v != 0 for v in self.data[k]):
                vec = list(self.data[k])
                c = vec[0] if self.desc.f == 1 else vec
                terms.append(f"{c}*X^{k}")
                shown += 1
                if shown >= 6:
                    terms.append("...")
                    break
        body = " + ".join(terms) if terms else "0"
        return f"TruncSeries1({body}; D={self.D}, {self.domain})"


def _exact_vec_invert(vec, desc: RingDescriptor):
    """Inverse of a coefficient vector with unit residue, exactly over Q."""
    f = desc.f
    vec = [Fraction(v) for v in vec]
    if f == 1:
        return [1 / vec[0]]
    # the matrix of multiplication by vec, acting on columns
    S = scalar_matrix(vec, desc, None)
    M = [[S[j][i] for j in range(f)] for i in range(f)]
    # Gaussian elimination solving M w = e_0
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


class TruncSeries2:
    """Two-variable truncated series: coefficients c[i, j] of X^i Y^j for
    total degree i + j < D."""

    __slots__ = ("desc", "D", "domain", "data")

    def __init__(self, desc, D, domain, data):
        self.desc = desc
        self.D = D
        self.domain = domain
        self.data = data

    @classmethod
    def zero(cls, desc, D, domain="integral"):
        dtype = _dtype_for(desc, D, domain)
        return cls(desc, D, domain, np.zeros((D, D, desc.f), dtype=dtype))

    @classmethod
    def from_triples(cls, desc, triples, D, domain="integral"):
        """triples: iterable of (i, j, value or vector)."""
        s = cls.zero(desc, D, domain)
        for i, j, v in triples:
            if i + j >= D:
                continue
            vec = v.coeffs if isinstance(v, UnramifiedRingElem) else v
            if not isinstance(vec, (list, tuple)):
                vec = (vec,) + (0,) * (desc.f - 1)
            for c, vv in enumerate(vec):
                s.data[i, j, c] = vv % desc.pN if domain == "integral" else Fraction(vv)
        return s

    def _modulo(self):
        return self.desc.pN if self.domain == "integral" else None

    def _compat(self, other):
        if self.desc != other.desc or self.domain != other.domain or self.D != other.D:
            raise ValueError("series rings differ")

    def __add__(self, other):
        self._compat(other)
        data = self.data + other.data
        m = self._modulo()
        if m is not None:
            data = data % m
        return TruncSeries2(self.desc, self.D, self.domain, data)

    def __sub__(self, other):
        self._compat(other)
        data = self.data - other.data
        m = self._modulo()
        if m is not None:
            data = data % m
        return TruncSeries2(self.desc, self.D, self.domain, data)

    def __neg__(self):
        m = self._modulo()
        data = -self.data
        if m is not None:
            data = data % m
        return TruncSeries2(self.desc, self.D, self.domain, data)

    def __mul__(self, other):
        self._compat(other)
        D, m = self.D, self._modulo()

        def conv2(x, y):
            """Product of two (D, D) component slices, total degree < D."""
            out = np.zeros_like(x)
            ys = [(i2, y[i2, : D - i2]) for i2 in range(D) if y[i2].any()]
            for i1 in range(D):
                a = x[i1, : D - i1]
                if not a.any():
                    continue
                for i2, b in ys:
                    i = i1 + i2
                    if i >= D:
                        break
                    seg = np.convolve(a, b)[: D - i]
                    out[i, : len(seg)] += seg
                    if m is not None:
                        np.mod(out[i], m, out=out[i])
            return out

        return TruncSeries2(self.desc, D, self.domain,
                            ring_mul(self.data, other.data, self.desc, m, conv2))

    def scalar_mul(self, c):
        vec = c.coeffs if isinstance(c, UnramifiedRingElem) else c
        if not isinstance(vec, (list, tuple)):
            vec = (vec,) + (0,) * (self.desc.f - 1)
        return TruncSeries2(self.desc, self.D, self.domain,
                            ring_scale(self.data, vec, self.desc, self._modulo()))

    def coefficient(self, i, j) -> UnramifiedRingElem:
        """The coefficient of X^i Y^j of an integral series, as a ring element."""
        if self.domain != "integral":
            raise ValueError("scaled coefficients are Fractions; read data")
        return UnramifiedRingElem(self.desc, [int(v) for v in self.data[i, j]])

    def coeff_triples(self):
        out = []
        for i in range(self.D):
            for j in range(self.D - i):
                if any(v != 0 for v in self.data[i, j]):
                    out.append((i, j, tuple(self.data[i, j])))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries2)
            and self.desc == other.desc
            and self.domain == other.domain
            and self.D == other.D
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self):
        return f"TruncSeries2(D={self.D}, {self.domain}, {len(self.coeff_triples())} terms)"


def _powers(g, count):
    """[g^0, g^1, ..., g^(count-1)] for a series of either kind."""
    one = type(g).zero(g.desc, g.D, g.domain)
    one.data[(0,) * one.data.ndim] = 1 if g.domain == "integral" else Fraction(1)
    out = [one, g]
    while len(out) < count:
        out.append(out[-1] * g)
    return out[:count]


def inject_x(s: TruncSeries1) -> TruncSeries2:
    out = TruncSeries2.zero(s.desc, s.D, s.domain)
    out.data[:, 0, :] = s.data
    return out


def inject_y(s: TruncSeries1) -> TruncSeries2:
    out = TruncSeries2.zero(s.desc, s.D, s.domain)
    out.data[0, :, :] = s.data
    return out


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
    P = np.stack([s.data for s in _powers(g, D)])
    Q = P if h is g else np.stack([s.data for s in _powers(h, D)])
    FQ = ring_mul(F.data, Q, F.desc, m, np.matmul)
    out = ring_mul(P, FQ, F.desc, m, lambda x, y: x.T @ y)
    out[np.add.outer(np.arange(D), np.arange(D)) >= D] = 0
    return TruncSeries2(F.desc, D, F.domain, out)


def embed_series(s: TruncSeries1, emb, dst_desc: RingDescriptor) -> TruncSeries1:
    """Apply a coefficient embedding to every coefficient."""
    if s.domain == "scaled":
        # rational coefficients embed unchanged componentwise only for f=1
        if s.desc.f != 1:
            raise ValueError("scaled embedding supported for rational coefficients only")
        out = TruncSeries1.zero(dst_desc, s.D, "scaled")
        for k in range(s.D):
            out.data[k, 0] = Fraction(s.data[k, 0])
        return out
    out = TruncSeries1.zero(dst_desc, s.D, "integral")
    for k in range(s.D):
        e = emb(UnramifiedRingElem(s.desc, [int(v) for v in s.data[k]]))
        out.data[k] = np.array([c % dst_desc.pN for c in e.coeffs], dtype=out.data.dtype)
    return out


def embed_series2(F: TruncSeries2, emb, dst_desc: RingDescriptor) -> TruncSeries2:
    out = TruncSeries2.zero(dst_desc, F.D, "integral")
    for i in range(F.D):
        for j in range(F.D - i):
            if any(v != 0 for v in F.data[i, j]):
                e = emb(UnramifiedRingElem(F.desc, [int(v) for v in F.data[i, j]]))
                out.data[i, j] = np.array([c % dst_desc.pN for c in e.coeffs], dtype=out.data.dtype)
    return out
