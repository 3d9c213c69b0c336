"""Torsion-field models and ramification measurements.

The level-n torsion field L_n = K(z) is K[X]/(P_n) where P_n is the
distinguished factor of [p^n]/[p^{n-1}], monic of degree e = q^{n-1}(q-1).
P_n is Eisenstein: its Newton polygon is pure of slope 1/e, so L_n/K is
totally ramified of degree e and v_L(z) = 1.  The model checks Eisenstein's
criterion on P_n; only certify_torsion_degree builds the polygon, for its
report.

The model works on the grading of the group.  With [p] = X u(X^d), [p^n]
is X times a series in X^d, and the preparation commutes with
X -> zeta X, so P_n(X) = Phi_n(X^d) with deg Phi_n = e/d, and O_K[z]/P_n
is the sum of the components z^c O_K[w]/Phi_n(w), c < d, w = z^d.  The
tame action z -> zeta z (Lubin and Tate, 1965) keeps every element the lab
forms in one component: the points [a](z), their images under [p] and
[u](z) - z in z^r O_K[w]/Phi_n, r = 1 mod d (r = 1 when d >= 2, r = 0
when d = 1), and the mu_p witness in component 0.  So the model is the
degree-e/d ring O_K[w]/Phi_n, an element z^c G(w) is kept as G, and
v_L(z^c G) = c + d v_w(G), exact as w is a uniformiser of K(w).

Series are evaluated at points of positive valuation; a window D >= N*e
makes the discarded tail vanish at the working precision.

Model arithmetic takes stacks: arrays shaped (..., e/d, f) whose leading
axes broadcast, so one product, power or series evaluation serves many points.
The scalar-action check builds all q^n points in one contraction and
applies [p] once per valuation class of points; the level-1 cross-check
evaluates the law once at the stack of its unit points.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .groups import series_of
from .padic import (
    INF,
    UnramifiedRingElem,
    components,
    contraction_dtype,
    convolve,
    residue_power_test,
    residues,
    ring_mul,
    ring_scale,
    teichmuller_digits,
    teichmuller_lift,
    valuations,
)
from .precision import (count_window, crosscheck_precision, crosscheck_window, eval_window,
                        level_degree, model_window, newton_steps)
from .series import TruncSeries1


# ------------------------------------------------------------ Newton polygons

class NewtonPolygon:
    """Lower convex hull of the points (i, v_p(c_i)) of a polynomial."""

    __slots__ = ("degree", "points", "vertices", "segments")

    def __init__(self, degree: int, points):
        self.degree = degree
        self.points = list(points)
        verts = []
        for pt in self.points:
            while len(verts) >= 2:
                (x1, y1), (x2, y2) = verts[-2], verts[-1]
                # pop the middle vertex unless it turns strictly upward, so
                # collinear interior points go too (x strictly increases)
                if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                    verts.pop()
                else:
                    break
            verts.append(pt)
        self.vertices = verts
        self.segments = []
        for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
            slope = Fraction(y2 - y1, x2 - x1)
            self.segments.append({
                "slope": slope,
                "length": x2 - x1,
                "root_valuation": -slope,
            })

    def is_pure(self) -> bool:
        return len(self.segments) == 1

    def describe(self):
        return {
            "vertices": [list(v) for v in self.vertices],
            "segments": [{
                "slope": str(s["slope"]),
                "length": s["length"],
                "root_valuation": str(s["root_valuation"]),
            } for s in self.segments],
        }


def newton_polygon(poly: TruncSeries1, degree: int) -> NewtonPolygon:
    """Polygon of a monic polynomial held in an integral series window >
    degree.

    Raises when an endpoint coefficient is indistinguishable from zero at
    the working precision.  An interior one is left out: it sits at v >= N,
    above every chord of the other points, whose values are all < N.
    """
    if poly.D <= degree:
        raise ValueError("window does not contain the polynomial")
    N = poly.desc.N
    vals = valuations(poly.data[:degree + 1], poly.desc.p, N).min(axis=-1)
    pts = [(i, int(v)) for i, v in enumerate(vals) if v < N]
    if not pts or pts[0][0] != 0 or pts[-1][0] != degree:
        raise ValueError("polygon endpoint indistinguishable from zero at this precision")
    return NewtonPolygon(degree, pts)


# ------------------------------------------------------------ the model ring

class TorsionFieldModel:
    """O_K[w]/(Phi_n): arithmetic for the level-n torsion field.

    Elements are coefficient arrays of shape (k, f) mod p^N in powers of
    w, k = e/d, and stacks of them arrays of shape (..., k, f).  A point
    z^r G(w) is its G; when d = 1, w = z and r = 0.
    """

    def __init__(self, group, level: int, N: int):
        q = group.q
        if q is None:
            raise ValueError("no finite height: torsion of this group is not a ring model")
        if level < 1:
            raise ValueError("level must be >= 1")
        if N < 3:
            raise ValueError("model precision must be at least 3")
        if group.desc.N < N:
            raise ValueError("construct the group at higher precision first")
        self.group = group
        self.level = level
        self.q = q
        self.N = N
        self.desc = group.desc.at_precision(N)
        e = level_degree(q, level)
        raw = group.division_factor(level, N).data
        if raw.shape[0] != e + 1:
            raise ValueError("distinguished factor does not have degree e")
        if int(raw[e, 0]) != 1 or any(int(v) for v in raw[e, 1:]):
            raise ValueError("distinguished factor is not monic")
        # for a monic factor of degree e, pure of slope 1/e is Eisenstein's
        # criterion: v(c_0) = 1 and p | c_i for i < e
        v = valuations(raw[:e], self.desc.p, 2).min(axis=-1)
        if v[0] != 1 or v.min() < 1:
            raise ValueError("distinguished factor is not pure of slope 1/e")
        d = group.grading
        if any(any(raw[k]) for k in range(e) if k % d):
            raise ValueError(f"distinguished factor is not a polynomial in X^{d}")
        self.e, self.d, self.r, self.k = e, d, 1 % d, e // d
        self.window = N * e  # a series window: z^(N e) = 0 mod p^N
        self.dtype = contraction_dtype(2 * self.k * self.desc.f * self.desc.f * self.desc.p, self.desc)
        self.P_low = raw[:e:d].astype(self.dtype)  # Phi_n = w^k + P_low(w)

    @functools.cached_property
    def red(self):
        """Reduction table: red[j] = w^(k+j) mod Phi_n, j = 0 .. k-2, built
        at the first product that needs it."""
        return self._w_powers(2 * self.k - 1)[self.k:].astype(self.dtype)

    # ------------------------------------------------------------ elements
    # Every operation takes stacks: arrays shaped (..., k, f) whose leading
    # axes broadcast, so one element combines with a stack elementwise.
    def zero(self, lead=()):
        return np.zeros(tuple(lead) + (self.k, self.desc.f), dtype=self.dtype)

    def one(self, lead=()):
        x = self.zero(lead)
        x[..., 0, 0] = 1
        return x

    def w(self):
        """The class of w = z^d."""
        return self._w_powers(2)[1].astype(self.dtype)

    def from_ok(self, c):
        """Embed an O_K scalar, any that padic.components reads, as a constant."""
        x = self.zero()
        x[0] = residues(components(c, self.desc), self.desc)
        return x

    def add(self, a, b):
        return (a + b) % self.desc.pN

    def sub(self, a, b):
        return (a - b) % self.desc.pN

    def neg(self, a):
        return (-a) % self.desc.pN

    def mul(self, a, b):
        k, m = self.k, self.desc.pN
        full = ring_mul(a, b, self.desc, m, convolve)
        low, high = full[..., :k, :], full[..., k:, :]
        if high.any():
            # sum_j high[j] * (w^(k+j) mod Phi_n), a ring product contracted over j
            low = (low + ring_mul(high, self.red, self.desc, m, np.dot)) % m
        return low

    def scal(self, a, c):
        """Multiply by an O_K scalar, any that padic.components reads."""
        return ring_scale(a, residues(components(c, self.desc), self.desc), self.desc, self.desc.pN)

    def pow_int(self, a, k: int):
        out = None
        while k:
            if k & 1:
                out = a if out is None else self.mul(out, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return self.one(a.shape[:-2]) if out is None else out % self.desc.pN

    def powers(self, x, count: int):
        """x^0 .. x^(count-1) of an element or a stack, on a new first
        axis: each doubling step is one product by x and one stacked product."""
        P = self.one(x.shape[:-2])[None]
        while len(P) < count:
            P = np.concatenate([P, self.mul(P, self.mul(P[-1], x))])
        return P[:count]

    def equal(self, a, b) -> bool:
        return bool(((a - b) % self.desc.pN == 0).all())

    def valuations(self, A, c: int = 0):
        """v_L(z^c G(w)) = c + d v_w(G) of every element G of a stack, INF
        for 0, as an object array shaped like the leading axes.  v_w(G) =
        min_m (k v_p(G_m) + m) is exact, as w is a uniformiser of K(w)."""
        N, k = self.N, self.k
        vp = valuations(A, self.desc.p, N)  # N for a coefficient = 0 mod p^N
        v = np.asarray((k * vp.min(axis=-1) + np.arange(k)).min(axis=-1))
        out = np.asarray(c + self.d * v).astype(object)
        out[v == N * k] = INF
        return out

    def valuation(self, a, c: int = 0):
        """v_L(z^c a(w)) of one element."""
        return self.valuations(a, c)[()]

    def residue(self, a) -> UnramifiedRingElem:
        """The residue of an element, in F_{p^f}: its constant term at N = 1."""
        return UnramifiedRingElem(self.desc.at_precision(1), [int(v) for v in a[0]])

    def exact_div_p(self, a):
        arr = a % self.desc.pN
        if (arr % self.desc.p != 0).any():
            raise ValueError("element is not divisible by p")
        return arr // self.desc.p

    def invert(self, a):
        if self.valuation(a) != 0:
            raise ZeroDivisionError("not a unit in the model")
        c0 = UnramifiedRingElem(self.desc, [int(v) for v in a[0]])
        x = self.from_ok(c0.invert())
        two = self.from_ok(2)
        for _ in range(newton_steps(self.N * self.k)):  # w^(N k) = 0 mod p^N
            x = self.mul(x, self.sub(two, self.mul(a, x)))
        if not self.equal(self.mul(a, x), self.one()):
            raise ArithmeticError("Newton inversion did not converge")
        return x

    # ------------------------------------------------------------ evaluation
    def _require_window(self, D: int, min_val: int = 1):
        """The discarded tail at valuation >= min_val needs D * min_val >= N * e."""
        if D * min_val < self.window:
            raise ValueError(
                "insufficient truncation for this level: lower N or raise D")

    def _w_powers(self, count: int):
        """w^m for m < count by shift-and-fold with w^k = -P_low; w^k is p
        times a unit (pure slope 1/e), so w^(N k) and every higher power
        vanish mod p^N.  Not kept: each caller evaluates all its series in
        one eval_at_z."""
        m = self.desc.pN
        dtype = contraction_dtype(count, self.desc)  # eval_at_z sums count products
        red0 = ((-self.P_low) % m).astype(dtype)
        k = self.k
        W = np.zeros((count, k, self.desc.f), dtype=dtype)
        low = min(count, k)
        W[range(low), range(low), 0] = 1  # w^m below k: nothing to fold
        for j in range(k, count):
            W[j, 1:] = W[j - 1, :-1]
            W[j] = (W[j] + ring_scale(red0, W[j - 1, -1], self.desc, m)) % m
        return W

    def eval_at_z(self, s):
        """The point s(z) = z^r G(w) of one series, or the stack of them for
        a sequence of series, as G: one contraction of the coefficients
        s_(r+dm) with the table of w^m.  Terms with m >= N k vanish, as
        w^(N k) = 0 mod p^N, so a window D >= N e holds all the others.
        Raises ValueError for a nonzero coefficient below N e at a degree
        other than r mod d."""
        series = [s] if isinstance(s, TruncSeries1) else list(s)
        for t in series:
            self._require_window(t.D)
        m = self.desc.pN
        W = self._w_powers(self.N * self.k)
        data = np.stack([_graded(t.data[:self.window], self.d, self.r) for t in series])
        out = ring_mul((data % m).astype(W.dtype), W, self.desc, m, np.matmul).astype(self.dtype)
        return out[0] if isinstance(s, TruncSeries1) else out

    def _eval_poly(self, c, x):
        """sum_k c[k] x^k at a stack x, c an array of O_K coefficients
        shaped (n, f): Horner's rule over the nonzero terms, a gap of g
        degrees stepped by x^g.  The first step is the top coefficient
        times x^g, a product by a scalar."""
        nz = np.flatnonzero((c != 0).any(axis=-1)).tolist()
        out = self.zero(x.shape[:-2])
        if not nz:
            return out
        m = self.desc.pN
        top = deg = nz[-1]
        out[..., 0, :] = c[top] % m
        for k in nz[-2::-1] + ([0] if nz[0] else []):
            step = self.pow_int(x, deg - k)
            out = self.scal(step, c[top]) if deg == top else self.mul(out, step)
            out[..., 0, :] = (out[..., 0, :] + c[k]) % m
            deg = k
        return out

    def eval2(self, F2, x, y):
        """F2(z^r x(w), z^r y(w)) = z^r G(w) at a point y and a point or a
        stack of points x, as G; the total-degree window D2 needs D2 >= N e
        for the tail to vanish.  F2 has only degrees i + j = r mod d, where
        z^(r(i+j)) = z^r w^(a_i+b_j), a_i = floor(ri/d), b_j =
        ceil(r(j-1)/d): with x^i and y^j weighted by those powers of w,
        inner[i] = sum_j F2[i, j] y^j w^(b_j) is one contraction, built once
        for the whole stack, then sum_i inner[i] x^i w^(a_i) is one stacked
        product.  Raises ValueError for a term at another degree."""
        self._require_window(F2.D)
        D2, m, d, r = F2.D, self.desc.pN, self.d, self.r
        F = F2.grid() % m
        i = np.arange(D2)
        if F[(i[:, None] + i) % d != r].any():
            raise ValueError(f"law has a nonzero term at a total degree other than {r} mod {d}")
        X, Y = self.powers(x, D2), self.powers(y, D2)
        lead = (D2,) + (1,) * (x.ndim - 2) + (self.k, self.desc.f)  # broadcast over x's stack
        if r:
            W = self._w_powers(D2 // d + 2).astype(self.dtype)
            X, Y = self.mul(X, W[i // d].reshape(lead)), self.mul(Y, W[(i + d - 2) // d])
        dtype = contraction_dtype(D2, self.desc)  # the contraction sums D2 products
        inner = ring_mul(F.astype(dtype), Y.astype(dtype), self.desc, m, np.matmul).astype(self.dtype)
        return self.mul(inner.reshape(lead), X).sum(axis=0) % m

    # ------------------------------------------------------------ points
    def point_z(self):
        """z as a point z^r G(w): G = 1 when d >= 2, G = w = z when d = 1."""
        return self.w() if self.d == 1 else self.one()

    def apply_pi(self, G, times: int = 1, val=None):
        """Apply [p] `times` times to a stack of points of valuation >= val
        (default: the least valuation in the stack): with f = X u(X^d),
        f(z^r G) = z^r G u(w^r G^d), one product G u(...).  The window
        shrinks as the valuation grows."""
        q, K, d = self.q, self.window, self.d
        if val is None:
            val = min((v for v in np.ravel(self.valuations(G, self.r)) if v != INF), default=INF)
        v = 1 if val == INF else max(1, int(val))
        cur = G
        for _ in range(times):
            pi = self.group.pi_series(eval_window(K, v, q), self.N)
            self._require_window(pi.D, v)
            y = self.pow_int(cur, d)
            if self.r:
                y = self.mul(self.w(), y)
            cur = self.mul(cur, self._eval_poly(_graded(pi.data, d, 1), y))
            v = min(v * q, K)
        return cur


def _graded(data, d: int, r: int):
    """The rows of the degrees = r mod d of series data shaped (..., D, f);
    raises ValueError when a row of another degree is nonzero."""
    off = np.arange(data.shape[-2]) % d != r % d
    if data[..., off, :].any():
        raise ValueError(f"series has a nonzero coefficient at a degree other than {r} mod {d}")
    return data[..., r::d, :]


# ------------------------------------------------------------ measurements

def certify_torsion_degree(group, n: int, N: int = 4) -> dict:
    """Pure slope 1/e with denominator equal to the degree certifies that the
    level-n relative factor is irreducible and L_n/K totally ramified."""
    P = group.division_factor(n, N)
    e = P.D - 1
    ng = newton_polygon(P, e)
    pure = ng.is_pure() and ng.segments[0]["root_valuation"] == Fraction(1, e)
    return {
        "level": n,
        "degree": e,
        "pure": bool(pure),
        "root_valuation": str(Fraction(1, e)) if pure else None,
        "polygon": ng.describe(),
        "irreducible": bool(pure),
        "totally_ramified": bool(pure),
        "certified_degree": e if pure else None,
    }


def torsion_count(group, n: int, N: int | None = None) -> dict:
    """Weierstrass degree of [p^n] counts the p^n-torsion points."""
    if n < 0:
        raise ValueError("level must be >= 0")
    q = group.q
    if q is None:
        raise ValueError("no finite height: torsion is not finite")
    N = N if N is not None else min(group.desc.N, 3)
    if n == 0:
        return {"level": 0, "weierstrass_degree": 1, "expected": 1, "match": True}
    pi = group.pi_series(count_window(q, n), N)
    cur = pi
    for _ in range(n - 1):
        cur = pi.compose(cur)
    wdeg = cur.first_unit_index()
    return {
        "level": n,
        "weierstrass_degree": wdeg,
        "expected": q**n,
        "match": wdeg == q**n,
    }


# ------------------------------------------------ the scalars of the checks

def digit_sums(group, n: int) -> list:
    """The q^n sums a = sum_{j<n} w_j p^j over Teichmuller digits w_j of
    O_F, 0 among them: the scalar-action check's scalars at level n.

    a sits at the index i whose base-q digits, most significant first, are
    the indices of w_0 .. w_(n-1) in teichmuller_digits.  0 is digits[0], so
    the sums at level n hold those of every lower level, and p a mod p^n,
    the sum of the digits (0, w_0, .., w_(n-2)), sits at index i // q.  As
    [p] o [a] = [pa] and [a] on F[p^n] depends only on a mod p^n (Lubin and
    Tate, 1965), [p] takes the point [a](z) to the point at i // q.

    One array step per level: (digits + p sums) mod p^N over the component
    vectors, w_0 the slowest axis."""
    desc = group.desc
    digits = np.array([w.coeffs for w in teichmuller_digits(desc, group.height)], dtype=object)
    sums = np.zeros((1, desc.f), dtype=object)
    for _ in range(n):
        sums = ((digits[:, None] + desc.p * sums[None]) % desc.pN).reshape(-1, desc.f)
    return [UnramifiedRingElem(desc, row) for row in sums.tolist()]


def _units(group) -> list:
    """The Teichmuller digits of O_F other than 0 and 1."""
    one = group.desc.one()
    return [w for w in teichmuller_digits(group.desc, group.height)
            if not (w.is_zero() or (w - one).is_zero())]


def break_rows(group, n: int) -> list:
    """(k, w, u - 1) for the units u of U_k \\ U_{k+1} that the level-n
    ramification check measures: u - 1 is w - 1 at k = 0, for the digits
    w != 0, 1 (u = 1 breaks at infinity), and p^k w at 1 <= k < n."""
    desc = group.desc
    nonzero = [w for w in teichmuller_digits(desc, group.height) if not w.is_zero()]
    rows = [(0, w, w - desc.one()) for w in _units(group)]
    return rows + [(k, w, w * desc.p**k) for k in range(1, n) for w in nonzero]


def crosscheck_scalars(group) -> list:
    """-1, the units w and the w - 1 of the level-1 cross-check."""
    units = _units(group)
    return [-1] + units + [w - group.desc.one() for w in units]


def assumption_check(group, n: int, N: int = 4) -> dict:
    """Is a -> [a](z) a bijection A/p^n -> F[p^n]?

    Enumerates the q^n digit sums, checks all values are p^n-torsion and
    pairwise distinct.  Distinctness at the working precision is conclusive:
    a difference of torsion points is a torsion point of valuation at most
    q^{n-1} < N*e.

    Torsion is checked by a chain, one [p] step per point: the point P_i of
    the digit sum at index i must go to P_(i // q) exactly, as [p] o [a] =
    [pa] and p a mod p^n is the sum at i // q (digit_sums; Lubin and Tate,
    1965).  The chain i -> i // q reaches 0 in n steps, so then [p^n] P_i =
    P_0 = 0 for every i: each point is p^n-torsion, and a -> P_a commutes
    with multiplication by p.  One step runs per valuation class of points.
    """
    h = group.height
    if h is INF:
        raise ValueError("no finite height: the torsion module is not free")
    f = group.desc.f
    if f % h != 0:
        return {
            "level": n,
            "holds": False,
            "mode": "no-module-structure",
            "reason": "coefficient ring lacks mu_{q-1}: no O_F-scalars over this base",
            "count": None,
            "expected": group.q**n,
        }
    scalars = digit_sums(group, n)
    nonzero = [i for i, a in enumerate(scalars) if not a.is_zero()]
    records = group.multiplications([scalars[i] for i in nonzero], model_window(group.q, n, N), N)
    obstructions = [k for _, k in records if k is not None]
    if obstructions:
        return {"level": n, "holds": False, "mode": "obstructed", "obstruction": min(obstructions),
                "count": None, "expected": group.q**n}
    model = TorsionFieldModel(group, n, N)
    # the points z^r G(w) as G: distinct exactly when the Gs are
    points = model.zero((len(scalars),))
    points[nonzero] = model.eval_at_z([ser for ser, _ in records])
    seen = set(map(tuple, points.reshape(len(points), -1).tolist()))
    histogram = {}
    classes = {}
    for i, val in enumerate(model.valuations(points, model.r)):
        histogram[str(val)] = histogram.get(str(val), 0) + 1
        if val != INF:
            classes.setdefault(val, []).append(i)
    # one [p] step per valuation class, the largest window first; each
    # nonzero point P_i must go to P_(i // q)
    annihilated = all(
        model.equal(model.apply_pi(points[rows], times=1, val=v), points[np.array(rows) // group.q])
        for v, rows in sorted(classes.items()))
    distinct = len(seen) == group.q**n
    return {
        "level": n,
        "holds": bool(distinct and annihilated),
        "mode": "measured",
        "count": len(seen),
        "expected": group.q**n,
        "all_torsion": bool(annihilated),
        "valuations": histogram,
    }


def ramification_breaks(group, n: int, N: int = 4, cross_check: bool = True) -> dict:
    """i(sigma_u) = v_L([u](z) - z) for units u of O_F, via module linearity:
    [u](z) - z = [u-1](z).  Expected q^k for u in U_k \\ U_{k+1}.

    Requires the full-height module structure (h | f); refuses otherwise.
    """
    h = group.height
    if h is INF:
        raise ValueError("no finite height: no torsion tower")
    desc = group.desc
    if desc.f % h != 0:
        raise ValueError("full-height module structure required: h must divide f")
    q = group.q
    model = TorsionFieldModel(group, n, N)
    rows = break_rows(group, n)  # one batch, one evaluation
    records = group.multiplications([a for _, _, a in rows], model_window(q, n, N), N)
    points = model.eval_at_z(series_of(records))
    table = [{"k": k, "digit": w.residue().code(), "i_sigma": str(val),
              "expected": q**k, "match": bool(val == q**k)}
             for (k, w, _), val in zip(rows, model.valuations(points, model.r))]
    record = {
        "level": n,
        "breaks": table,
        "identity_break": "inf",
        "all_match": all(row["match"] for row in table),
    }
    if cross_check:
        record["direct_level_one"] = _direct_break_check(group, crosscheck_precision(N))
    return record


def _direct_break_check(group, N: int) -> list:
    """Level-1 cross-check against the definition: evaluate the two-variable
    group law at ([u](z), iota(z)) and compare with the [u-1](z) route."""
    model = TorsionFieldModel(group, 1, N)
    records = group.multiplications(crosscheck_scalars(group), model_window(group.q, 1, N), N)
    F2 = group.group_law2(crosscheck_window(group.q, N), N)
    units = _units(group)
    pts = model.eval_at_z(series_of(records))
    iz, ux = pts[0], pts[1:len(units) + 1]
    direct = model.valuations(model.eval2(F2, ux, iz), model.r)  # one evaluation for every unit
    linear = model.valuations(pts[len(units) + 1:], model.r)
    return [{"digit": w.residue().code(), "direct": str(a), "module_route": str(b), "match": bool(a == b)}
            for w, a, b in zip(units, direct, linear)]


class ResidueRootError(ArithmeticError):
    """A residue passes residue_power_test but has no root: exact over a
    field, so the residue ring is not one (its modulus is reducible)."""


def mu_p_membership(group, d_max: int | None = None, N: int = 6) -> dict:
    """Does the level-1 torsion field contain the p-th roots of unity after
    an unramified enlargement of degree d <= d_max?

    Searches for y with y^(p-1) = -p: y = t * z^(e/(p-1)) with
    t^(p-1) = -p / z^e, solvable iff the residue of -(z^e/p)^(-1) is a
    (p-1)-th power.  A witness must satisfy v_L(y^(p-1) + p) >= (N-2)*e.
    It is formed in component 0: y^(p-1) = t^(p-1) z^e, z^e = w^k.  A
    residue that passes the power test with no root raises ResidueRootError.
    """
    h = group.height
    if h is INF:
        raise ValueError("no finite height: level-1 torsion is not a field model")
    p = group.desc.p
    if d_max is None:
        d_max = h
    attempts = []
    for d in range(1, d_max + 1):
        grp = group if d == 1 else group.base_change(group.desc.f * d)
        model = TorsionFieldModel(grp, 1, N)
        m = model.desc.pN
        # z^e = w^k = -Phi_low(w); V = z^e / p is a unit by pure slope
        ze = (-model.P_low) % m
        V = model.exact_div_p(ze)
        u = model.neg(model.invert(V))
        r = model.residue(u)
        if not residue_power_test(r, p - 1):
            attempts.append({"d": d, "solvable": False, "residue_code": r.code()})
            continue
        roots = (UnramifiedRingElem.from_code(r.desc, k) for k in range(1, model.desc.q))
        rho = next((c for c in roots if c ** (p - 1) == r), None)
        if rho is None:
            raise ResidueRootError(f"residue code {r.code()} passes the power test at d = {d} "
                                   f"but no residue is a {p - 1}-th root of it")
        t = model.from_ok(teichmuller_lift(model.desc, rho))
        for _ in range(newton_steps(model.N * model.k)):
            err = model.sub(model.pow_int(t, p - 1), u)
            if model.equal(err, model.zero()):
                break
            deriv = model.scal(model.pow_int(t, p - 2), p - 1)
            t = model.sub(t, model.mul(err, model.invert(deriv)))
        wit = model.add(model.mul(model.pow_int(t, p - 1), ze), model.from_ok(p))
        v_w = model.valuation(wit)
        threshold = (N - 2) * model.e
        ok = v_w is INF or v_w >= threshold
        attempts.append({
            "d": d,
            "solvable": True,
            "witness_valuation": str(v_w),
            "threshold": threshold,
            "holds": bool(ok),
        })
        if ok:
            return {"found": True, "d": d, "attempts": attempts}
    return {"found": False, "d": None, "attempts": attempts}
