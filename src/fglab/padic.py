"""Exact arithmetic in unramified p-adic coefficient rings.

Elements of W(F_{p^f}) mod p^N are stored as coefficient vectors of length f
over Z/p^N with respect to a fixed monic modulus polynomial, chosen
deterministically so that independently created descriptors agree.  The
residue field F_{p^f} is the same ring at N = 1: a residue is an
UnramifiedRingElem of desc.at_precision(1), so it needs no class of its own.
Z_p sits in every such ring as component 0, which is where formal groups
keep their defining data, so no embedding between rings is needed.

Every product of ring elements goes through one kernel built on the
descriptor's structure table T[a][b] = X^a * X^b mod the modulus: ring_mul
for arrays of elements under any bilinear product of component slices
(truncated convolution, contraction), and ring_scale, its
one-matrix form, for multiplying by a single element.  Reduction is mod an
explicit m, or none at all for the integer numerators of exact series.
Every polynomial product of the lab takes its slices through one
convolution, convolve, whose leading axes broadcast, so a stack of series
or of torsion-field points multiplies in one call; unit_inverse inverts a
whole stack of units by one Newton iteration on ring_mul.

Every p-adic valuation of the lab goes through one kernel, valuations: the
capped v_p of each entry of an integer array.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .precision import newton_steps

INF = math.inf

# int64 arrays keep every sum of reduced products below this bound, leaving
# room for one more addition before the next reduction.
_INT64_BUDGET = 2**62


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, exact below _MR_BOUND (Sorenson
    and Webster, Math. Comp. 86, 2017); at or above it raises ValueError."""
    if n >= _MR_BOUND:
        raise ValueError("p is too large to certify as prime")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = int(valuations(n - 1, 2, n.bit_length()))
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        # a strong probable prime to base b: x = 1, or x^(2^r) = -1 for some r < s
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
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


def _fp_polgcd(a, b, p):
    """A gcd over F_p of two polynomials, low coefficients first."""
    while any(x % p for x in b):
        b = [x % p for x in b]
        while not b[-1]:
            b.pop()
        a, b = b, _fp_polrem(a, [x * pow(b[-1], -1, p) % p for x in b], p)
    return a


def _is_irreducible(mod, p):
    """Rabin's test (SIAM J. Comput. 9, 1980): X^{p^f} = X, and
    gcd(X^{p^{f/l}} - X, mod) = 1 for every prime l | f."""
    f = len(mod) - 1
    if f == 1:
        return True
    x = [0, 1] + [0] * (f - 2)
    if _fp_polpow_x(p**f, p, mod) != x:
        return False
    for ell in _factor(f):
        sub = _fp_polpow_x(p ** (f // ell), p, mod)
        if len(_fp_polgcd(mod, [s - t for s, t in zip(sub, x)], p)) > 1:
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
    """Parameters (p, f, N) of W(F_{p^f}) mod p^N.  The modulus is always
    minimal_modulus(p, f), so descriptors built independently agree."""

    __slots__ = ("p", "f", "N", "modulus", "_table")

    def __init__(self, p: int, f: int, N: int):
        if not is_prime(p) or p == 2:
            raise ValueError("p must be an odd prime")
        if f < 1 or N < 1:
            raise ValueError("need f >= 1 and N >= 1")
        self.p = p
        self.f = f
        self.N = N
        self.modulus = minimal_modulus(p, f)
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
        """The same ring mod p^M.  The modulus depends on (p, f) only and the
        structure table does not depend on N, so both are shared."""
        if M < 1:
            raise ValueError("need N >= 1")
        out = object.__new__(RingDescriptor)
        out.p, out.f, out.N, out.modulus = self.p, self.f, M, self.modulus
        out._table = self.structure_table()
        return out

    def same_field(self, other: "RingDescriptor") -> bool:
        return (self.p, self.f) == (other.p, other.f)

    def __eq__(self, other):
        return (isinstance(other, RingDescriptor)
                and (self.p, self.f, self.N) == (other.p, other.f, other.N))

    def __hash__(self):
        return hash((self.p, self.f, self.N))

    def __repr__(self):
        return f"RingDescriptor(p={self.p}, f={self.f}, N={self.N})"

    # element constructors
    def zero(self) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, (0,) * self.f)

    def one(self) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, (1,) + (0,) * (self.f - 1))

    def from_int(self, n: int) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, (n % self.pN,) + (0,) * (self.f - 1))

    def from_coeffs(self, coeffs) -> "UnramifiedRingElem":
        return UnramifiedRingElem(self, tuple(int(c) % self.pN for c in coeffs))


# ---------------------------------------------------------------------------
# the scalar reader

def components(c, desc: RingDescriptor) -> tuple:
    """The exact f components of a ring scalar, unreduced: those of an
    element of desc's field, an integer or rational in component 0, or a
    sequence of exactly f integers or rationals.  An element of another
    field or a sequence of another length raises ValueError, anything else
    TypeError."""
    if isinstance(c, UnramifiedRingElem):
        if not c.desc.same_field(desc):
            raise ValueError("scalar from a different ring")
        return c.coeffs
    if isinstance(c, numbers.Rational):
        return (c,) + (0,) * (desc.f - 1)
    if isinstance(c, (list, tuple, np.ndarray)):
        vec = tuple(c)
        if not all(isinstance(v, numbers.Rational) for v in vec):
            raise TypeError("unsupported scalar")
        if len(vec) != desc.f:
            raise ValueError(f"a scalar of this ring has {desc.f} components, not {len(vec)}")
        return vec
    raise TypeError("unsupported scalar")


def residues(vec, desc: RingDescriptor):
    """The rationals of vec mod p^N; p in a denominator raises ValueError."""
    if any(int(v.denominator) % desc.p == 0 for v in vec):
        raise ValueError("not p-integral")
    return [int(v.numerator) * pow(int(v.denominator), -1, desc.pN) % desc.pN for v in vec]


# ---------------------------------------------------------------------------
# the valuation kernel

def valuations(A, p: int, cap: int):
    """min(v_p(a), cap) for every entry a of an int64 or object array (or an
    int), and cap for 0, as an int64 array of A's shape.  Each pass divides
    the entries not yet settled by p, so there are at most cap passes, over
    fewer entries each time.  As min(v_p(a), cap) = min(v_p(a mod p^cap),
    cap), data reduced mod p^N reads the same at any cap <= N."""
    A = np.asarray(A)
    out = np.full(A.shape, cap, dtype=np.int64)
    idx = np.flatnonzero(A)
    rest = A.ravel()[idx]
    for v in range(cap):
        if not idx.size:
            break
        unit = rest % p != 0
        out.flat[idx[unit]] = v
        idx, rest = idx[~unit], rest[~unit] // p
    return out


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
    beside them): the partial products are folded without reduction.  At
    f = 1 there is nothing to gather or fold: the product is one prod call
    on the single slices, reduced once.
    """
    f = desc.f
    if f == 1:
        c = prod(A[..., 0], B[..., 0])
        return (c if m is None else c % m)[..., None]
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
    zero = np.zeros_like(next(c for c in cross if c is not None))
    C = np.stack([zero if c is None else c for c in cross], axis=-1)
    T = desc.structure_table()
    R = [T[0][k] if k < f else T[f - 1][k - f + 1] for k in range(2 * f - 1)]
    if m is not None:
        R = [[v % m for v in row] for row in R]
    out = C @ np.array(R, dtype=C.dtype)
    return out if m is None else out % m


def convolve(x, y, n=None):
    """The first n terms (all len(x) + len(y) - 1 by default) of the
    convolution of x and y along the last axis, the leading axes broadcast:
    np.convolve for two vectors, else one np.matmul of the windows of y,
    padded by len(x) - 1 zeros in front and viewed in place by as_strided,
    with x reversed.  The one convolution kernel: series and torsion-field
    products take their slices through it."""
    if x.ndim == 1 and y.ndim == 1:
        out = np.convolve(x, y)
        return out if n is None else out[:n]
    a, b = x.shape[-1], y.shape[-1]
    n = a + b - 1 if n is None else n
    padded = np.zeros(y.shape[:-1] + (a - 1 + n,), dtype=y.dtype)
    padded[..., a - 1:a - 1 + min(b, n)] = y[..., :n]
    step = padded.strides[-1]
    # win[..., t, i] = padded[..., t + i]: the a terms that meet x reversed at t
    win = as_strided(padded, padded.shape[:-1] + (n, a), padded.strides[:-1] + (step, step),
                     writeable=False)
    return np.matmul(win, x[..., ::-1, None])[..., 0]


def unit_inverse(A, desc: RingDescriptor):
    """The inverses mod p^N of a (..., f) stack of units, each over the
    whole stack at once: the residue inverses a^(q-2) mod p by square and
    multiply, then the Newton iteration x <- x (2 - a x), each step doubling
    the digits that are right.  Entries are int64 where the products fit
    (contraction_dtype), Python ints otherwise; a non-unit raises
    ZeroDivisionError."""
    p, m = desc.p, desc.pN
    shape = np.shape(A)
    A = (A if isinstance(A, np.ndarray) else np.array(A, dtype=object)) % m
    A = A.astype(contraction_dtype(1, desc)).reshape(-1, desc.f)
    if not (A % p).any(axis=-1).all():
        raise ZeroDivisionError("not a unit")
    one = np.zeros_like(A)
    one[..., 0] = 1
    x, base, e = one, A % p, desc.q - 2
    while e:
        if e & 1:
            x = ring_mul(x, base, desc, p, np.multiply)
        e >>= 1
        if e:
            base = ring_mul(base, base, desc, p, np.multiply)
    for _ in range(newton_steps(desc.N)):
        x = ring_mul(x, 2 * one - ring_mul(A, x, desc, m, np.multiply), desc, m, np.multiply)
    return x.reshape(shape)


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

    def _operand(self, other):
        """The components of an operand: those of an element of this ring,
        or of any other scalar that components reads, reduced mod p^N."""
        if isinstance(other, UnramifiedRingElem):
            if self.desc != other.desc:
                raise ValueError("descriptor mismatch")
            return other.coeffs
        return residues(components(other, self.desc), self.desc)

    def __add__(self, other):
        vec = self._operand(other)
        return UnramifiedRingElem(self.desc, [a + b for a, b in zip(self.coeffs, vec)])

    def __sub__(self, other):
        vec = self._operand(other)
        return UnramifiedRingElem(self.desc, [a - b for a, b in zip(self.coeffs, vec)])

    def __neg__(self):
        return UnramifiedRingElem(self.desc, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UnramifiedRingElem(self.desc, [a * other for a in self.coeffs])
        vec = self._operand(other)
        return UnramifiedRingElem(self.desc, _vec_mulmod(self.coeffs, vec, self.desc, self.desc.pN))

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
        """Inverse of a unit, by unit_inverse on a stack of one."""
        return UnramifiedRingElem(self.desc, unit_inverse(self.coeffs, self.desc).tolist())

    def reduce_to(self, desc: RingDescriptor) -> "UnramifiedRingElem":
        if not desc.same_field(self.desc):
            raise ValueError("descriptor mismatch")
        return UnramifiedRingElem(desc, self.coeffs)

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

    Accepts any scalar that components reads (a residue, an element read
    mod p, an integer, a p-integral rational or a vector); iterates the
    q-power map to its fixed point mod p^N.
    """
    x = UnramifiedRingElem(desc, residues(components(r, desc), desc.at_precision(1)))
    for _ in range(desc.N + 4):
        nxt = x**desc.q
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("Teichmuller iteration did not stabilize")


def root_of_unity(desc: RingDescriptor, m: int) -> UnramifiedRingElem:
    """The canonical generator of mu_m, m | p^f - 1: the Teichmuller lift of
    g^((q - 1) / m) for the generator g of multiplicative_generator."""
    if (desc.q - 1) % m:
        raise ValueError("m must divide p^f - 1")
    return teichmuller_lift(desc, multiplicative_generator(desc) ** ((desc.q - 1) // m))


@functools.lru_cache(maxsize=None)
def teichmuller_digits(desc: RingDescriptor, d: int | None = None) -> tuple[UnramifiedRingElem, ...]:
    """All Teichmuller digits of the subring W(F_{p^d}): 0 and mu_{p^d-1}.

    Requires d | f so that F_{p^d} sits inside the residue field. Digits are
    returned in a deterministic order: zero, then powers of the canonical
    generator of mu_{p^d-1}, so digits[1 + i] = zeta^i.  The elements are
    immutable, so one tuple per (desc, d) serves every caller.
    """
    if d is None:
        d = desc.f
    if desc.f % d != 0:
        raise ValueError("d must divide f")
    m = desc.p**d - 1
    zeta = root_of_unity(desc, m)
    out = [desc.zero()]
    cur = desc.one()
    for _ in range(m):
        out.append(cur)
        cur = cur * zeta
    return tuple(out)
