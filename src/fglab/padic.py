"""Exact arithmetic in unramified p-adic coefficient rings.

Elements of W(F_{p^f}) mod p^N are stored as coefficient vectors of length f
over Z/p^N with respect to a fixed monic modulus polynomial, chosen
deterministically so that independently created descriptors agree.  The
residue field F_{p^f} is the same ring at N = 1: a residue is an
UnramifiedRingElem of desc.at_precision(1), so it needs no class of its own.

Every product of ring elements goes through one kernel built on the
descriptor's structure table T[a][b] = X^a * X^b mod the modulus: ring_mul
for arrays of elements under any bilinear product of component slices
(truncated convolution, contraction), and ring_scale, its
one-matrix form, for multiplying by a single element.  Reduction is mod an
explicit m, or none at all for the integer numerators of exact series.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .precision import newton_steps

INF = math.inf

# int64 arrays keep every sum of reduced products below this bound, leaving
# room for one more addition before the next reduction.
_INT64_BUDGET = 2**62


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _factor(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (desk-scale inputs)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p, used only to pick and certify the modulus

def _fp_polmul(a, b, p, mod):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _fp_polrem(res, mod, p)


def _fp_polrem(a, mod, p):
    a = list(a)
    d = len(mod) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            for j in range(d):
                a[i - d + j] = (a[i - d + j] - c * mod[j]) % p
        a[i] = 0
    return [x % p for x in a[:d]]


def _fp_polpow_x(e, p, mod):
    """X^e mod (mod, p)."""
    result = [1] + [0] * (len(mod) - 2) if len(mod) > 2 else [1]
    result = result[: len(mod) - 1]
    base = _fp_polrem([0, 1] + [0] * len(mod), mod, p)
    while e:
        if e & 1:
            result = _fp_polmul(result, base, p, mod)
        base = _fp_polmul(base, base, p, mod)
        e >>= 1
    return result


def _is_irreducible(mod, p):
    """Rabin test: X^{p^f} = X and X^{p^{f/l}} != X for prime l | f."""
    f = len(mod) - 1
    if f == 1:
        return True
    xq = _fp_polpow_x(p**f, p, mod)
    x = [0, 1] + [0] * (f - 2)
    x = x[:f]
    if xq != x:
        return False
    for ell in _factor(f):
        sub = _fp_polpow_x(p ** (f // ell), p, mod)
        if sub == x:
            return False
    return True


def minimal_modulus(p: int, f: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree f over F_p, low coefficients
    enumerated as base-p digits of an increasing counter."""
    for code in range(p**f):
        low = []
        c = code
        for _ in range(f):
            low.append(c % p)
            c //= p
        cand = low + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


class RingDescriptor:
    """Parameters (p, f, N) plus the fixed modulus of W(F_{p^f}) mod p^N."""

    __slots__ = ("p", "f", "N", "modulus", "_table")

    def __init__(self, p: int, f: int, N: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p) or p == 2:
            raise ValueError("p must be an odd prime")
        if f < 1 or N < 1:
            raise ValueError("need f >= 1 and N >= 1")
        if modulus is None:
            modulus = minimal_modulus(p, f)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if not _is_irreducible([c % p for c in modulus], p):
            raise ValueError("modulus is reducible mod p")
        self.p = p
        self.f = f
        self.N = N
        self.modulus = modulus
        self._table = None

    @property
    def pN(self) -> int:
        return self.p**self.N

    @property
    def q(self) -> int:
        return self.p**self.f

    def structure_table(self) -> tuple:
        """T[a][b]: the f integer components of X^a * X^b mod the modulus."""
        if self._table is None:
            f = self.f
            powers = [tuple(int(j == k) for j in range(f)) for k in range(f)]
            for _ in range(f - 1):
                top, rest = powers[-1][f - 1], powers[-1][: f - 1]
                powers.append(tuple(c - top * r for c, r in zip((0,) + rest, self.modulus)))
            self._table = tuple(tuple(powers[a:a + f]) for a in range(f))
        return self._table

    def at_precision(self, M: int) -> "RingDescriptor":
        """The same ring mod p^M.  The modulus is already validated and the
        structure table does not depend on N, so both are shared."""
        if M < 1:
            raise ValueError("need N >= 1")
        out = object.__new__(RingDescriptor)
        out.p, out.f, out.N, out.modulus = self.p, self.f, M, self.modulus
        out._table = self.structure_table()
        return out

    def same_field(self, other: "RingDescriptor") -> bool:
        return (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, RingDescriptor)
            and (self.p, self.f, self.N, self.modulus)
            == (other.p, other.f, other.N, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.N, self.modulus))

    def __repr__(self):
        return f"RingDescriptor(p={self.p}, f={self.f}, N={self.N})"

    def to_dict(self) -> dict:
        return {"p": self.p, "f": self.f, "N": self.N, "modulus": list(self.modulus)}

    # element constructors
    def zero(self) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, (0,) * self.f)

    def one(self) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, (1,) + (0,) * (self.f - 1))

    def from_int(self, n: int) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, (n % self.pN,) + (0,) * (self.f - 1))

    def from_coeffs(self, coeffs) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, tuple(int(c) % self.pN for c in coeffs))

    def element_from_rationals(self, vec) -> "UnramifiedRingElem":
        """Reduce a vector of p-integral Fractions mod p^N."""
        out = []
        for r in vec:
            r = Fraction(r)
            den = r.denominator
            if den % self.p == 0:
                raise ValueError("not p-integral")
            out.append(r.numerator * pow(den, -1, self.pN) % self.pN)
        return UnramifiedRingElem(self, tuple(out))


# ---------------------------------------------------------------------------
# the coefficient-ring multiply kernel

def scalar_matrix(c, desc: RingDescriptor, m):
    """Rows S[a] = components of X^a * c mod (modulus, m), so that
    multiplying component vectors by the ring element c is v -> v @ S; that
    is, S = sum_b c_b T[:, b, :].  m = None keeps the entries exact."""
    if m is not None:
        c = [int(v) % m for v in c]
    if desc.f == 1:
        return [[c[0]]]
    S = []
    for Ta in desc.structure_table():
        row = [0] * desc.f
        for cb, Tab in zip(c, Ta):
            if cb:
                for j, t in enumerate(Tab):
                    if t:
                        row[j] += cb * t
        S.append(row if m is None else [v % m for v in row])
    return S


def ring_scale(A, c, desc: RingDescriptor, m):
    """A times the ring element c, A holding the f components on its last
    axis: one f x f matrix product (a plain scalar product when f = 1)."""
    S = scalar_matrix(c, desc, m)
    out = A * S[0][0] if desc.f == 1 else A @ np.array(S, dtype=A.dtype)
    return out if m is None else out % m


def ring_mul(A, B, desc: RingDescriptor, m, prod):
    """Coefficient-ring product of arrays holding the f components on their
    last axis.

    prod(x, y) multiplies one component slice of A by one of B: a truncated
    convolution, a contraction, ...; on int64 data the
    sums prod forms must stay under _INT64_BUDGET.  The partial products are
    gathered by the power X^(a+b) they carry, reduced mod m, and folded back
    with the structure table.  m = None is the exact product of integer
    numerators (the scaled series domain keeps their one denominator
    beside them): the partial products are folded without reduction.
    """
    f = desc.f
    xs = [(a, A[..., a]) for a in range(f) if A[..., a].any()]
    ys = [(b, B[..., b]) for b in range(f) if B[..., b].any()]
    cross = [None] * (2 * f - 1)
    for a, x in xs:
        for b, y in ys:
            c = prod(x, y)
            if cross[a + b] is not None:
                c = c + cross[a + b]
            cross[a + b] = c if m is None else c % m
    if not (xs and ys):
        cross[0] = prod(A[..., 0], B[..., 0])  # a factor is zero
    if f == 1:
        out = cross[0][..., None]
    else:
        zero = np.zeros_like(next(c for c in cross if c is not None))
        C = np.stack([zero if c is None else c for c in cross], axis=-1)
        T = desc.structure_table()
        R = [T[0][k] if k < f else T[f - 1][k - f + 1] for k in range(2 * f - 1)]
        if m is not None:
            R = [[v % m for v in row] for row in R]
        out = C @ np.array(R, dtype=C.dtype)
    return out if m is None or f == 1 else out % m


def contraction_dtype(terms: int, desc: RingDescriptor):
    """int64 when ring_mul on residues mod p^N stays under _INT64_BUDGET
    with prod summing `terms` products (the fold sums 2f - 1 more),
    object otherwise."""
    fits = max(terms, 2 * desc.f) * (desc.pN - 1) ** 2 < _INT64_BUDGET
    return np.int64 if fits else object


def _vec_mulmod(a, b, desc, m):
    """Multiply coefficient vectors mod (modulus, m)."""
    S = scalar_matrix(b, desc, m)
    return tuple(sum(x * s for x, s in zip(a, col)) % m for col in zip(*S))


def multiplicative_order(r: "UnramifiedRingElem") -> int:
    """Order of a nonzero residue r (an element at N = 1) in F_{p^f}^*."""
    if r.is_zero():
        raise ZeroDivisionError("residue is zero")
    one = r.desc.one()
    order = r.desc.q - 1
    for ell in _factor(order):
        while order % ell == 0 and r ** (order // ell) == one:
            order //= ell
    return order


def multiplicative_generator(desc: RingDescriptor) -> "UnramifiedRingElem":
    """Deterministic generator of F_{p^f}^*, as an element at N = 1: the
    smallest element code that works."""
    res = desc.at_precision(1)
    for code in range(1, desc.q):
        r = UnramifiedRingElem.from_code(res, code)
        if multiplicative_order(r) == desc.q - 1:
            return r
    raise AssertionError("no generator found")


def residue_power_test(r: "UnramifiedRingElem", d: int) -> bool:
    """True iff the residue r (an element at N = 1, nonzero, d | p^f - 1) is
    a d-th power in F_{p^f}^*."""
    if r.is_zero():
        raise ValueError("zero is not a unit")
    n = r.desc.q - 1
    if n % d != 0:
        raise ValueError("d must divide p^f - 1")
    return r ** (n // d) == r.desc.one()


class UnramifiedRingElem:
    """Element of W(F_{p^f}) mod p^N."""

    __slots__ = ("desc", "coeffs")

    def __init__(self, desc: RingDescriptor, coeffs):
        self.desc = desc
        self.coeffs = tuple(int(c) % desc.pN for c in coeffs)
        if len(self.coeffs) != desc.f:
            raise ValueError("coefficient vector has wrong length")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @classmethod
    def from_code(cls, desc: RingDescriptor, code: int) -> "UnramifiedRingElem":
        """The element whose components are the base-p^N digits of code."""
        return cls(desc, [code // desc.pN**i for i in range(desc.f)])

    def code(self) -> int:
        """The components read as base-p^N digits, lowest first."""
        return sum(c * self.desc.pN**i for i, c in enumerate(self.coeffs))

    def residue(self) -> "UnramifiedRingElem":
        """The image in the residue field F_{p^f}: this element at N = 1."""
        return UnramifiedRingElem(self.desc.at_precision(1), self.coeffs)

    def is_unit(self) -> bool:
        return any(c % self.desc.p for c in self.coeffs)

    def valuation(self):
        """Largest v <= N with p^v | a, or INF when a = 0 mod p^N."""
        if self.is_zero():
            return INF
        v = self.desc.N
        for c in self.coeffs:
            if c:
                w = 0
                while c % self.desc.p == 0:
                    c //= self.desc.p
                    w += 1
                v = min(v, w)
        return v

    def __add__(self, other):
        self._check(other)
        return UnramifiedRingElem(self.desc, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return UnramifiedRingElem(self.desc, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return UnramifiedRingElem(self.desc, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UnramifiedRingElem(self.desc, [a * other for a in self.coeffs])
        self._check(other)
        return UnramifiedRingElem(
            self.desc, _vec_mulmod(self.coeffs, other.coeffs, self.desc, self.desc.pN)
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.invert() ** (-e)
        result = self.desc.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def invert(self) -> "UnramifiedRingElem":
        """Inverse of a unit: in the residue field (N = 1) the (q-2)-th
        power, above it that inverse refined by Newton steps."""
        if not self.is_unit():
            raise ZeroDivisionError("not a unit")
        if self.desc.N == 1:
            return self ** (self.desc.q - 2)
        x = UnramifiedRingElem(self.desc, self.residue().invert().coeffs)
        two = self.desc.from_int(2)
        for _ in range(newton_steps(self.desc.N)):
            x = x * (two - self * x)
        return x

    def exact_div_p(self, k: int = 1) -> "UnramifiedRingElem":
        """Divide by p^k; requires p^k | a. Top k digits of the result are
        unconstrained by the input and are returned as zero."""
        pk = self.desc.p**k
        if any(c % pk for c in self.coeffs):
            raise ValueError("not divisible by p^%d" % k)
        return UnramifiedRingElem(self.desc, [c // pk for c in self.coeffs])

    def reduce_to(self, desc: RingDescriptor) -> "UnramifiedRingElem":
        if not desc.same_field(self.desc):
            raise ValueError("descriptor mismatch")
        return UnramifiedRingElem(desc, self.coeffs)

    def _check(self, other):
        if self.desc != other.desc:
            raise ValueError("descriptor mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, UnramifiedRingElem)
            and self.desc == other.desc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("elem", self.coeffs))

    def __repr__(self):
        if self.desc.f == 1:
            return f"UnramifiedRingElem({self.coeffs[0]} mod {self.desc.p}^{self.desc.N})"
        return f"UnramifiedRingElem{self.coeffs}"


def teichmuller_lift(desc: RingDescriptor, r) -> UnramifiedRingElem:
    """Teichmuller representative: the unique lift fixed by x -> x^{p^f}.

    Accepts a residue (an element at N = 1; any element is read mod p), an
    int, or any coefficient vector; iterates the q-power map to its fixed
    point mod p^N.
    """
    if isinstance(r, UnramifiedRingElem):
        r = r.coeffs
    elif isinstance(r, int):
        r = (r,) + (0,) * (desc.f - 1)
    x = UnramifiedRingElem(desc, [int(c) % desc.p for c in r])
    for _ in range(desc.N + 4):
        nxt = x**desc.q
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("Teichmuller iteration did not stabilize")


def teichmuller_digits(desc: RingDescriptor, d: int | None = None) -> list[UnramifiedRingElem]:
    """All Teichmuller digits of the subring W(F_{p^d}): 0 and mu_{p^d-1}.

    Requires d | f so that F_{p^d} sits inside the residue field. Digits are
    returned in a deterministic order: zero, then powers of the canonical
    generator of mu_{p^d-1}.
    """
    if d is None:
        d = desc.f
    if desc.f % d != 0:
        raise ValueError("d must divide f")
    m = desc.p**d - 1
    g = multiplicative_generator(desc)
    zeta = teichmuller_lift(desc, g ** ((desc.q - 1) // m))
    out = [desc.zero()]
    cur = desc.one()
    for _ in range(m):
        out.append(cur)
        cur = cur * zeta
    return out


def _frac_val(r: Fraction, p: int):
    if r == 0:
        return INF
    v = 0
    n = r.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = r.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


class Embedding:
    """Coefficient embedding W(F_{p^f}) -> W(F_{p^{f'}}) for f | f'.

    Sends the source modulus root to a deterministically chosen Hensel-lifted
    root of the source modulus in the target ring.
    """

    def __init__(self, src: RingDescriptor, dst: RingDescriptor):
        if src.p != dst.p or dst.f % src.f != 0:
            raise ValueError("target must be an unramified extension of the source")
        self.src = src
        self.dst = dst
        self.root = self._find_root()
        self._powers = [dst.one()]
        for _ in range(src.f - 1):
            self._powers.append(self._powers[-1] * self.root)

    def _find_root(self) -> UnramifiedRingElem:
        dst, src = self.dst, self.src
        if src.f == 1:
            return dst.zero()
        # root of the source modulus in the target residue field, smallest code
        res = dst.at_precision(1)
        for code in range(dst.q):
            r = UnramifiedRingElem.from_code(res, code)
            acc = res.zero()
            for c in reversed(src.modulus):
                acc = acc * r + res.from_int(c)
            if acc.is_zero():
                break
        else:
            raise AssertionError("no root of modulus in target residue field")
        x = UnramifiedRingElem(dst, r.coeffs)
        # Newton: x <- x - M(x)/M'(x); derivative is a unit (separable mod p)
        for _ in range(newton_steps(dst.N)):
            val = dst.zero()
            for c in reversed(src.modulus):
                val = val * x + dst.from_int(c)
            der = dst.zero()
            for i in range(len(src.modulus) - 1, 0, -1):
                der = der * x + dst.from_int(i * src.modulus[i])
            x = x - val * der.invert()
        return x

    def __call__(self, a: UnramifiedRingElem) -> UnramifiedRingElem:
        if not a.desc.same_field(self.src):
            raise ValueError("descriptor mismatch")
        acc = self.dst.zero()
        for i, c in enumerate(a.coeffs):
            acc = acc + self.dst.from_int(c) * self._powers[i]
        return acc
