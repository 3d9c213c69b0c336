"""Truncated power series over unramified p-adic coefficient rings.

A series is a coefficient array of shape (D, f), or (D, D, f) in two
variables: D tracked degrees, f ring components per coefficient.  Products
of series and by ring scalars all go through the coefficient-ring kernel of
padic (ring_mul with the truncated convolution padic.convolve, ring_scale).
Two domains are supported:

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

A one-variable series may also be a stack of series: data shaped
(..., D, f), one case per index of the leading stack axes, the layout of
TorsionFieldModel's points.  A single series is a stack with no leading
axes.  The arithmetic, shift, truncate, lift, derivative, compose,
reversion, invert_unit and to_scaled act case by case and broadcast the
stack axes of their operands, so ten cases cost one product, one
composition or one reversion: a product is one broadcasting convolution,
a composition contracts with the union of the cases' nonzero degrees, and
a reversion runs all cases on one Newton schedule.  An integral stack
keeps den = 1.  A scaled stack keeps one denominator per case, an object
array of the stack's leading shape, each case in lowest terms: a
denominator shared by the stack would be the lcm of unrelated
denominators and inflate every numerator.  A single series keeps an int
den.  stack builds a stack from single series, case takes one back out,
and equal_cases compares case by case.  The edges below, the valuations
and to_integral read single series, and two-variable series do not stack.

Every scalar at those edges is read by padic.components.  An integral
series keeps den = 1, and takes a p-integral rational there to its residue
mod p^N by padic.residues.  A two-variable series is stored by total
degree: data[t, i] holds X^i Y^(t - i), so row t is the homogeneous part of
degree t, and entries with i > t stay zero; grid() and from_grid convert
to and from the matrix indexed [i, j].  A product convolves the nonzero
rows t1 + t2 < D into row t1 + t2, reduced after every addition.  Every
table of powers g^0 .. g^(c-1) comes from one builder, _powers: term by
term for an integral one-variable g of at most 6 terms, by products
otherwise.  Composition has one route, TruncSeries1.compose, for an inner
series of either kind: an outer series with at most 10 nonzero terms sums
addition-chain powers in one contraction, any other goes baby-step/giant-
step with its block sums in one contraction; each contraction is one
np.matmul on the power stack flattened to (powers, entries, f).
substitute2_into2 forms F(g(X), h(Y)) as P^T F Q from the power tables of
g and h.  Reversion is a Newton iteration of one composition a step,
r <- r - (f(r) - X) r' (Brent-Kung 1978), in either domain.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .padic import (
    RingDescriptor,
    UnramifiedRingElem,
    components,
    contraction_dtype,
    convolve,
    residues,
    ring_mul,
    ring_scale,
    scalar_matrix,
    unit_inverse,
    valuations,
)


def _dtype_for(desc: RingDescriptor, D: int, domain: str):
    return object if domain == "scaled" else contraction_dtype(D, desc)


def _mul_data(A, B, desc: RingDescriptor, D: int, modulo):
    """Product of series data, truncated at degree D, the stack axes
    broadcast."""
    return ring_mul(A, B, desc, modulo, lambda x, y: convolve(x, y, D))


def _per_case(den, axes: int):
    """A stack's denominators, one per case, shaped to broadcast against its
    data: one more axis per series axis and one for the components."""
    return den.reshape(den.shape + (1,) * (axes + 1))


def _num_den(values):
    """Integer numerators of ints and Fractions over their least common
    denominator, and that denominator."""
    den = math.lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (den // int(v.denominator)) for v in values], den


def _common(series):
    """The numerator arrays of several series stacked on a new first axis
    over the lcm of their denominators (case by case for stacks), and that
    lcm."""
    dens = [s.den for s in series]
    if any(isinstance(d, np.ndarray) for d in dens):
        den = functools.reduce(np.lcm, dens)
        return np.stack([s.data * _per_case(den // s.den, s._axes) for s in series]), den
    den = math.lcm(*dens)
    return np.stack([s.data if s.den == den else s.data * (den // s.den) for s in series]), den


class _Series:
    """What one- and two-variable series share: the ring, domain and window,
    the numerators and their denominator, and the entrywise operations."""

    __slots__ = ("desc", "D", "domain", "data", "den")

    def __init__(self, desc: RingDescriptor, D: int, domain: str, data, den=1):
        if domain not in ("integral", "scaled"):
            raise ValueError("unknown domain")
        lead = data.shape[:data.ndim - self._axes - 1]
        if lead and self._axes != 1:
            raise ValueError("only one-variable series stack")
        if lead and domain == "scaled":
            # a stack: each case over its own denominator, in lowest terms
            dens = np.broadcast_to(np.asarray(den, dtype=object), lead).ravel().tolist()
            gs = [math.gcd(d, *row) if d != 1 else 1
                  for d, row in zip(dens, data.reshape(len(dens), -1).tolist())]
            den = np.array([d // g for d, g in zip(dens, gs)], dtype=object).reshape(lead)
            if any(g != 1 for g in gs):
                data = data // _per_case(np.array(gs, dtype=object).reshape(lead), self._axes)
        elif den != 1:
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
                s.data[idx] = residues(vec, desc)
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
        """Both numerator arrays over the lcm of the two denominators (case
        by case for stacks), and it."""
        self._compat(other)
        a, b = self.den, other.den
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            den = np.lcm(a, b)
            return (self.data * _per_case(den // a, self._axes),
                    other.data * _per_case(den // b, self._axes), den)
        if a == b:
            return self.data, other.data, a
        den = math.lcm(a, b)
        return self.data * (den // a), other.data * (den // b), den

    def __add__(self, other):
        a, b, den = self._aligned(other)
        return self._reduced(a + b, den)

    def __sub__(self, other):
        a, b, den = self._aligned(other)
        return self._reduced(a - b, den)

    def __neg__(self):
        return self._reduced(-self.data, self.den)

    def _divided(self, n):
        """This series divided by the positive integer n (one per case for
        a stack's array)."""
        return self if not isinstance(n, np.ndarray) and n == 1 else self._new(self.data, self.den * n)

    def scalar_mul(self, c):
        """Multiply by a ring scalar, any that padic.components reads."""
        vec = components(c, self.desc)
        if self.domain == "integral":
            return self._new(ring_scale(self.data, residues(vec, self.desc), self.desc, self.desc.pN))
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
            and bool(np.array_equal(self.den, other.den))
            and bool(np.array_equal(self.data, other.data))
        )

    def equal_cases(self, other):
        """Exact equality case by case: a boolean array over the stack axes
        of the two series, broadcast (a 0-d array for two single series)."""
        self._compat(other)
        series_axes = tuple(range(-self._axes - 1, 0))
        return (self.data == other.data).all(axis=series_axes) & (
            np.asarray(self.den) == np.asarray(other.den))


class TruncSeries1(_Series):
    """One-variable truncated series: coefficients of X^0 .. X^{D-1}."""

    __slots__ = ()
    _axes = 1

    # ------------------------------------------------------------- builders
    @classmethod
    def x(cls, desc, D, domain="integral"):
        return cls.from_coeffs(desc, [0, 1], D, domain)

    @classmethod
    def stack(cls, cases):
        """One series holding the cases, single series on one ring, domain
        and window, on a new first axis."""
        first = cases[0]
        for s in cases[1:]:
            first._compat(s)
        den = 1 if first.domain == "integral" else np.array([s.den for s in cases], dtype=object)
        return cls(first.desc, first.D, first.domain, np.stack([s.data for s in cases]), den)

    def case(self, i):
        """Case i of a stack, as a series of its own."""
        den = self.den[i] if isinstance(self.den, np.ndarray) else self.den
        return TruncSeries1(self.desc, self.D, self.domain, self.data[i], den)

    @classmethod
    def from_coeffs(cls, desc, coeffs, D=None, domain="integral"):
        """coeffs: ring scalars, any that padic.components reads, ascending
        degree."""
        if D is None:
            D = len(coeffs)
        return cls._from_entries(desc, D, domain,
                                 [(k, components(c, desc)) for k, c in enumerate(coeffs[:D])])

    # ------------------------------------------------------------ accessors
    def coefficient(self, k: int) -> UnramifiedRingElem:
        """The coefficient of X^k of an integral series, as a ring element."""
        if not 0 <= k < self.D:
            raise IndexError("degree outside truncation window")
        if self.domain != "integral":
            raise ValueError("scaled coefficients are numerators over den; read coeff_vec")
        return UnramifiedRingElem(self.desc, [int(v) for v in self.data[k]])

    def coeff_vec(self, k: int):
        return self._fractions(k)

    def row_valuations(self):
        """v_p of each coefficient: the least valuation of its numerators
        less v_p(den).  Both are capped at den.bit_length(), which exceeds
        v_p(den), so a zero coefficient reads a positive number."""
        p, cap = self.desc.p, self.den.bit_length()
        return valuations(self.data, p, cap).min(axis=-1) - valuations(self.den, p, cap)

    def first_unit_index(self):
        """Smallest k with a unit coefficient, or None."""
        units = np.flatnonzero(self.row_valuations() == 0)
        return int(units[0]) if units.size else None

    def nonzero_degrees(self):
        """The degrees with a nonzero coefficient in some case."""
        axes = tuple(range(self.data.ndim - 2)) + (-1,)
        return np.flatnonzero((self.data != 0).any(axis=axes)).tolist()

    def grading(self) -> int:
        """d = gcd{j - 1 : f_j != 0} on this window, so f = X u(X^d); 0 for f = aX."""
        return math.gcd(*(j - 1 for j in self.nonzero_degrees()))

    # ------------------------------------------------------------ arithmetic
    def __mul__(self, other):
        self._compat(other)
        data = _mul_data(self.data, other.data, self.desc, self.D, self._modulo())
        return self._new(data, self.den * other.den)

    def shift(self, k: int):
        """Multiply by X^k."""
        data = np.zeros_like(self.data)
        if k < self.D:
            data[..., k:, :] = self.data[..., : self.D - k, :]
        return self._new(data, self.den)

    def truncate(self, Dnew: int):
        if Dnew > self.D:
            raise ValueError("use lift to extend")
        return TruncSeries1(self.desc, Dnew, self.domain, self.data[..., :Dnew, :].copy(), self.den)

    def lift(self, Dnew: int):
        """Extend the window, declaring the new coefficients zero."""
        if Dnew < self.D:
            return self.truncate(Dnew)
        data = np.zeros(self.data.shape[:-2] + (Dnew, self.desc.f),
                        dtype=_dtype_for(self.desc, Dnew, self.domain))
        data[..., : self.D, :] = self.data
        return TruncSeries1(self.desc, Dnew, self.domain, data, self.den)

    def compose(self, g):
        """self(g): the one composition route.

        g is a TruncSeries1 or a TruncSeries2 on the same ring, domain and
        window, with zero constant term; the result is of g's kind.  An
        outer series with at most 10 nonzero terms takes the powers of g it
        needs from a memoised addition chain and sums them in one ring_mul
        contraction.  Any other takes the baby steps g^r, r < s =
        ceil(sqrt(n)) with n the number of terms up to the last nonzero
        one, and the giant step g^s from one _powers table, forms every
        block sum sum_r c_{bs+r} g^r in one contraction, and runs Horner
        in g^s over the blocks (Paterson-Stockmeyer): about
        2 sqrt(n) products of g's kind.  Each contraction is one np.matmul
        on the power stack flattened to (r, entries, f), reshaped back to
        g's shape.  Both contract self's numerators and divide by self.den
        once at the end.  Stack axes of self and g broadcast; the route and
        the powers follow the union of the nonzero degrees of self's cases,
        and the power axis moves behind the stack axes for the matmul.
        """
        self._compat(g)
        if g.data[(Ellipsis,) + (0,) * g._axes + (slice(None),)].any():
            raise ValueError("inner series must have zero constant term")
        kind, desc, D, domain = type(g), self.desc, self.D, self.domain
        shape = g.data.shape[g.data.ndim - g._axes - 1:]  # one case of g
        lead = np.broadcast_shapes(self.data.shape[:-2], g.data.shape[:-len(shape)])
        nz = self.nonzero_degrees()
        if not nz:
            return kind(desc, D, domain, np.zeros(lead + shape, dtype=_dtype_for(desc, D, domain)))

        def sums(rows, stack, den):
            """sum_r rows[..., j, r] stack[r] / den, one series per block j of
            rows: one matmul on the stack with its power axis moved behind
            the stack axes and each power flattened to (entries, f)."""
            if stack.ndim > len(shape) + 1:
                stack = np.moveaxis(stack, 0, -len(shape) - 1)
            flat = stack.reshape(stack.shape[:-len(shape)] + (-1, desc.f))
            out = ring_mul(rows, flat, desc, self._modulo(), np.matmul)
            return [kind(desc, D, domain, out[..., j, :, :].reshape(lead + shape), den)
                    for j in range(out.shape[-3])]

        if len(nz) <= 10:
            # g^k by the addition chain k -> k - 1 (odd k), k -> k/2 (even k),
            # built upward in a loop: a recursive closure would hold the
            # powers in a reference cycle until the cyclic collector runs
            powers = {0: _one(g), 1: g}
            for k in nz:
                chain = []
                while k not in powers:
                    chain.append(k)
                    k = k - 1 if k % 2 else k // 2
                for e in reversed(chain):
                    powers[e] = powers[e - 1] * g if e % 2 else powers[e // 2] * powers[e // 2]
            rows = self.data[..., nz, :][..., None, :, :]
            return sums(rows, *_common([powers[k] for k in nz]))[0]._divided(self.den)
        n = nz[-1] + 1
        s = math.isqrt(n - 1) + 1
        blocks = -(-n // s)
        baby, den = _powers(g, s + 1)
        coeffs = np.zeros(self.data.shape[:-2] + (blocks * s, desc.f), dtype=self.data.dtype)
        coeffs[..., :n, :] = self.data[..., :n, :]
        parts = sums(coeffs.reshape(coeffs.shape[:-2] + (blocks, s, desc.f)), baby[:s], den)
        giant = g._new(baby[s], den)
        acc = parts[-1]
        for part in parts[-2::-1]:
            acc = acc * giant + part
        return acc._divided(self.den)

    def derivative(self):
        data = np.zeros_like(self.data)
        data[..., :-1, :] = self.data[..., 1:, :] * np.arange(1, self.D, dtype=self.data.dtype)[:, None]
        return self._reduced(data, self.den)

    def _inverse_monomial(self, k: int):
        """X^k over the coefficient of X^k, case by case: integral by one
        padic.unit_inverse over the stack, scaled by the exact inverse of
        each case's coefficient.  Raises ZeroDivisionError on a non-unit
        (integral) or a zero (scaled) coefficient."""
        data = np.zeros_like(self.data)
        if self.domain == "integral":
            data[..., k, :] = unit_inverse(self.data[..., k, :], self.desc)
            return self._new(data)
        lead = self.data.shape[:-2]
        dens = np.broadcast_to(np.asarray(self.den, dtype=object), lead)
        out = np.empty(lead, dtype=object)
        for idx in np.ndindex(*lead):
            data[idx + (k,)], out[idx] = _exact_vec_invert(self.data[idx + (k,)], dens[idx], self.desc)
        return self._new(data, out if lead else out[()])

    def invert_unit(self):
        """Multiplicative inverse; the constant coefficient must be invertible
        (integral: a unit; scaled: any nonzero constant)."""
        x = self._inverse_monomial(0)
        two = TruncSeries1.from_coeffs(self.desc, [2], self.D, self.domain)
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
        """Compositional inverse; needs zero constant term and an invertible
        linear coefficient (integral: a unit; scaled: any nonzero linear
        coefficient).

        Newton iteration with one composition a step: r <- r - (f(r) - X) r'
        takes r good mod X^d to r good mod X^(2d-1).  With r = r* + delta,
        delta = O(X^d), f(r) - X = O(X^d) and r' = 1/f'(r*) + O(X^(d-1)),
        so the new error is O(X^(2d-1)).  The inverse mod X^D is unique, so
        the result does not depend on the route.  A stack runs every case
        on the one schedule, its linear coefficients inverted together."""
        if self.data[..., 0, :].any():
            raise ValueError("series must have zero constant term")
        r = self._inverse_monomial(1)
        x = TruncSeries1.x(self.desc, self.D, self.domain)
        d = 2
        while d < self.D:
            d = min(2 * d - 1, self.D)
            rt = r.truncate(d)
            err = self.truncate(d).compose(rt) - x.truncate(d)
            if not err.is_zero():
                rt = rt - err * rt.derivative()
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
        if self.data.ndim > 2:
            return f"TruncSeries1(stack of {self.data.shape[:-2]}; D={self.D}, {self.domain})"
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
    nums, augmented by e_0, leaves row i as d_i w_i = r_i.  Raises
    ZeroDivisionError on zero, the one element without an inverse."""
    if not any(nums):
        raise ZeroDivisionError("zero has no inverse")
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
    """Two-variable truncated series, X^i Y^j for i + j < D, stored by total
    degree: data[t, i] holds X^i Y^(t - i), and entries with i > t stay zero."""

    __slots__ = ()
    _axes = 2

    @classmethod
    def from_triples(cls, desc, triples, D, domain="integral"):
        """triples: iterable of (i, j, value or vector)."""
        return cls._from_entries(desc, D, domain,
                                 [((i + j, i), components(v, desc)) for i, j, v in triples if i + j < D])

    @classmethod
    def from_grid(cls, desc, D, domain, grid, den=1):
        """The inverse of grid(): a series from numerators grid[i, j] of
        X^i Y^j over den; entries with i + j >= D are dropped."""
        t, i = np.tril_indices(D)
        data = np.zeros_like(grid)
        data[t, i] = grid[i, t - i]
        return cls(desc, D, domain, data, den)

    def grid(self):
        """The numerators as a (D, D, f) array indexed [i, j] by the
        monomial X^i Y^j, zero where i + j >= D."""
        t, i = np.tril_indices(self.D)
        out = np.zeros_like(self.data)
        out[i, t - i] = self.data[t, i]
        return out

    def __mul__(self, other):
        self._compat(other)
        D, m = self.D, self._modulo()

        def conv2(x, y):
            """Product of two (D, D) component slices: the rows t1 and t2
            convolve into row t1 + t2 < D."""
            out = np.zeros_like(x)
            ys = np.flatnonzero(y.any(axis=1))
            for t1 in np.flatnonzero(x.any(axis=1)).tolist():
                for t2 in ys[: np.searchsorted(ys, D - t1)].tolist():
                    t = t1 + t2
                    c = out[t, : t + 1] + convolve(x[t1, : t1 + 1], y[t2, : t2 + 1])
                    out[t, : t + 1] = c if m is None else c % m
            return out

        return self._new(ring_mul(self.data, other.data, self.desc, m, conv2), self.den * other.den)

    def coefficient(self, i, j) -> UnramifiedRingElem:
        """The coefficient of X^i Y^j of an integral series, as a ring element."""
        if min(i, j) < 0 or i + j >= self.D:
            raise IndexError("degree outside truncation window")
        if self.domain != "integral":
            raise ValueError("scaled coefficients are numerators over den; read coeff_triples")
        return UnramifiedRingElem(self.desc, [int(v) for v in self.data[i + j, i]])

    def coeff_triples(self):
        """(i, j, coefficient vector) for each nonzero X^i Y^j, by i then j."""
        return [(i, j, self._fractions((i + j, i)))
                for i, j in np.argwhere(self.grid().any(axis=-1)).tolist()]

    def __repr__(self):
        return f"TruncSeries2(D={self.D}, {self.domain}, {len(self.coeff_triples())} terms)"


def _one(g):
    """The series 1 of g's kind, ring, domain, window and stack axes."""
    data = np.zeros_like(g.data)
    data[(Ellipsis,) + (0,) * (g._axes + 1)] = 1
    return g._new(data)


def _powers(g, count, first=None):
    """first·g^0, ..., first·g^(count-1) of a series of either kind (first
    defaults to 1), stacked on a new first axis over one denominator:
    (numerators, den).  The one builder of power tables.  An integral
    one-variable g with at most 6 nonzero terms fills each row in place
    from the one before, one shifted product by each term's scalar matrix,
    built once per table; any other g, a stack among them, takes a product
    per row (row 1 is g itself when first is 1)."""
    terms = (g.nonzero_degrees()
             if isinstance(g, TruncSeries1) and g.domain == "integral" and g.data.ndim == 2
             else None)
    if terms is None or len(terms) > 6:
        out = [_one(g), g] if first is None else [first]
        while len(out) < count:
            out.append(out[-1] * g)
        return _common(out[:count])
    D, desc, m = g.D, g.desc, g.desc.pN
    scales = [(d, np.array(scalar_matrix(g.data[d], desc, m), dtype=g.data.dtype))
              for d in terms]
    table = np.zeros((count,) + g.data.shape, dtype=g.data.dtype)
    table[0] = (_one(g) if first is None else first).data
    for j in range(1, count):
        for d, S in scales:
            table[j, d:] = (table[j, d:] + table[j - 1, : D - d] @ S % m) % m
    return table, 1


def substitute2_into2(F: TruncSeries2, g: TruncSeries1, h: TruncSeries1) -> TruncSeries2:
    """F(g(X), h(Y)) for one-variable g, h with zero constant terms, on F's
    ring, domain and window.  With row i of P holding g^i and row j of Q
    holding h^j, this is P^T F Q on the grid of F: two ring_mul
    contractions, and from_grid drops the terms of total degree >= D."""
    for s in (g, h):
        F._compat(s)
        if s.data[0].any():
            raise ValueError("substituted series must have zero constant term")
    D, m = F.D, F._modulo()
    P, dP = _powers(g, D)
    Q, dQ = (P, dP) if h is g else _powers(h, D)
    FQ = ring_mul(F.grid(), Q, F.desc, m, np.matmul)
    out = ring_mul(P, FQ, F.desc, m, lambda x, y: x.T @ y)
    return TruncSeries2.from_grid(F.desc, D, F.domain, out, F.den * dP * dQ)

