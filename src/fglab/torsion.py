"""Torsion-field models and ramification measurements.

The level-n torsion field L_n = K(z) is modelled as O_K[X]/(P_n) where P_n is
the distinguished factor of [p^n]/[p^{n-1}].  P_n is Eisenstein-like: its
Newton polygon is pure of slope 1/e with e = q^{n-1}(q-1), so L_n/K is
totally ramified of degree e and element valuations are v_L-exact:
v_L(sum c_j z^j) = min_j (e * v_p(c_j) + j), the terms having distinct
residues mod e.

Series are evaluated at points of positive valuation; a window D >= N*e
makes the discarded tail vanish at the working precision.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .padic import (
    INF,
    ResidueElem,
    UnramifiedRingElem,
    contraction_dtype,
    residue_power_test,
    ring_mul,
    ring_scale,
    teichmuller_digits,
    teichmuller_lift,
)
from .series import TruncSeries1, _mul_data
from .weier import division_polynomial


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
                # pop the middle vertex unless it turns strictly upward
                if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) < 0:
                    verts.pop()
                else:
                    break
            verts.append(pt)
        # drop collinear interior points
        clean = [verts[0]]
        for pt in verts[1:]:
            while len(clean) >= 2:
                (x1, y1), (x2, y2) = clean[-2], clean[-1]
                if (x2 - x1) * (pt[1] - y1) == (y2 - y1) * (pt[0] - x1):
                    clean.pop()
                else:
                    break
            clean.append(pt)
        self.vertices = clean
        self.segments = []
        for (x1, y1), (x2, y2) in zip(clean, clean[1:]):
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
    """Polygon of a monic polynomial held in a series window > degree.

    Raises when a coefficient that could influence the hull is
    indistinguishable from zero at the working precision.
    """
    if poly.D <= degree:
        raise ValueError("window does not contain the polynomial")
    desc = poly.desc
    pts = []
    missing = []
    for i in range(degree + 1):
        c = poly.coefficient(i)
        v = c.valuation()
        if v == INF:
            missing.append(i)
        else:
            pts.append((i, int(v)))
    if not pts or pts[0][0] != 0 or pts[-1][0] != degree:
        raise ValueError("polygon endpoint indistinguishable from zero at this precision")
    ng = NewtonPolygon(degree, pts)
    # an omitted interior point sits at v >= N; it only matters if the hull
    # of the finite points passes above N there, which cannot happen when the
    # finite values are all < N (the hull lies under their chords)
    if missing and max(v for _, v in pts) >= desc.N:
        raise ValueError("polygon coefficient indistinguishable from zero at this precision")
    return ng


# ------------------------------------------------------------ the model ring

class TorsionFieldModel:
    """O_K[X]/(P_n): arithmetic for the level-n torsion field.

    Elements are coefficient arrays of shape (e, f) mod p^N.  The class of X
    is a root z of P_n, a point of exact order p^n with v_L(z) = 1.
    """

    def __init__(self, group, level: int, N: int, dp=None):
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
        self.e = q ** (level - 1) * (q - 1)
        self.N = N
        self.desc = group.desc.at_precision(N)
        e, f, m = self.e, self.desc.f, self.desc.pN
        if dp is None:
            dp = division_polynomial(group, level, N=N)
        self.dp = dp
        raw = np.array([[int(v) % m for v in row] for row in dp.P.data], dtype=object)
        if raw.shape[0] != e + 1:
            raise ValueError("distinguished factor does not have degree e")
        if int(raw[e, 0]) != 1 or any(int(v) for v in raw[e, 1:]):
            raise ValueError("distinguished factor is not monic")
        poly = TruncSeries1(self.desc, e + 1, "integral", raw.astype(object))
        self.polygon = newton_polygon(poly, e)
        seg = self.polygon.segments
        if not (len(seg) == 1 and seg[0]["root_valuation"] == Fraction(1, e)):
            raise ValueError("distinguished factor is not pure of slope 1/e")
        self.dtype = contraction_dtype(2 * e * f * f * self.desc.p, self.desc)
        self.P_low = raw[:e].astype(self.dtype)
        # reduction table: red[k] = X^(e+k) mod P, k = 0 .. e-2
        red = np.zeros((max(e - 1, 1), e, f), dtype=self.dtype)
        red[0] = (-self.P_low) % m
        for k in range(1, e - 1):
            shifted = np.zeros((e, f), dtype=self.dtype)
            shifted[1:] = red[k - 1][: e - 1]
            top = red[k - 1][e - 1]
            if any(int(v) for v in top):
                shifted = (shifted + ring_scale(red[0], top, self.desc, m)) % m
            red[k] = shifted % m
        self.red = red
        self._zpow = None

    # ------------------------------------------------------------ elements
    def zero(self):
        return np.zeros((self.e, self.desc.f), dtype=self.dtype)

    def one(self):
        x = self.zero()
        x[0, 0] = 1
        return x

    def z(self):
        x = self.zero()
        x[1, 0] = 1
        return x

    def from_ok(self, c):
        """Embed an O_K scalar (int or ring element) as a constant."""
        x = self.zero()
        if isinstance(c, UnramifiedRingElem):
            x[0] = np.array([v % self.desc.pN for v in c.coeffs], dtype=self.dtype)
        else:
            x[0, 0] = int(c) % self.desc.pN
        return x

    def add(self, a, b):
        return (a + b) % self.desc.pN

    def sub(self, a, b):
        return (a - b) % self.desc.pN

    def neg(self, a):
        return (-a) % self.desc.pN

    def mul(self, a, b):
        e, f, m = self.e, self.desc.f, self.desc.pN
        W = 2 * e - 1
        pa = np.zeros((W, f), dtype=self.dtype)
        pa[:e] = a
        pb = np.zeros((W, f), dtype=self.dtype)
        pb[:e] = b
        full = _mul_data(pa, pb, self.desc, W, m)
        low = full[:e]
        high = full[e:]
        if high.any():
            # sum_k high[k] * (X^(e+k) mod P), a ring product contracted over k
            low = (low + ring_mul(high, self.red, self.desc, m, np.dot)) % m
        return low % m

    def scal(self, a, c):
        """Multiply by an O_K scalar (vector of length f or ring element)."""
        if isinstance(c, UnramifiedRingElem):
            vec = np.array([v % self.desc.pN for v in c.coeffs], dtype=self.dtype)
        elif isinstance(c, int):
            return (a * (c % self.desc.pN)) % self.desc.pN
        else:
            vec = np.asarray(c, dtype=self.dtype)
        return ring_scale(a, vec, self.desc, self.desc.pN)

    def pow_int(self, a, k: int):
        out = self.one()
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def equal(self, a, b) -> bool:
        return bool(((a - b) % self.desc.pN == 0).all())

    def valuation(self, a):
        """v_L, exact because coefficient valuations are distinct mod e."""
        best = INF
        p, N = self.desc.p, self.N
        for j in range(self.e):
            row = a[j]
            v = None
            for c in row:
                c = int(c) % self.desc.pN
                if c == 0:
                    continue
                w = 0
                while c % p == 0:
                    c //= p
                    w += 1
                v = w if v is None else min(v, w)
            if v is not None:
                best = min(best, self.e * v + j)
        return best

    def residue(self, a) -> ResidueElem:
        return ResidueElem(self.desc, [int(v) for v in a[0]])

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
        steps = max(1, math.ceil(math.log2(self.N * self.e)) + 1)
        two = self.from_ok(2)
        for _ in range(steps):
            x = self.mul(x, self.sub(two, self.mul(a, x)))
        if not self.equal(self.mul(a, x), self.one()):
            raise ArithmeticError("Newton inversion did not converge")
        return x

    # ------------------------------------------------------------ evaluation
    def _require_window(self, D: int):
        if D < self.N * self.e:
            raise ValueError(
                "insufficient truncation for this level: lower N or raise D")

    def _z_powers(self):
        """z^k for k < N*e by shift-and-fold; z^e is p times a unit (pure
        slope 1/e), so z^(N*e) and every higher power vanish mod p^N."""
        if self._zpow is None:
            K, m = self.N * self.e, self.desc.pN
            dtype = contraction_dtype(K, self.desc)  # eval_at_z sums K products
            red0 = self.red[0].astype(dtype)
            Z = np.zeros((K, self.e, self.desc.f), dtype=dtype)
            Z[0, 0, 0] = 1
            for k in range(1, K):
                Z[k, 1:] = Z[k - 1, :-1]
                Z[k] = (Z[k] + ring_scale(red0, Z[k - 1, -1], self.desc, m)) % m
            self._zpow = Z
        return self._zpow

    def eval_at_z(self, s: TruncSeries1):
        """s(z): one contraction of the coefficients with the z^k table."""
        self._require_window(s.D)
        Z = self._z_powers()
        m = self.desc.pN
        data = (s.data[: len(Z)] % m).astype(Z.dtype)
        return ring_mul(data, Z, self.desc, m, np.matmul).astype(self.dtype)

    def eval_series(self, s: TruncSeries1, x, min_val: int = 1):
        """Evaluate at an element of valuation >= min_val; the discarded tail
        needs D * min_val >= N * e."""
        if s.D * min_val < self.N * self.e:
            raise ValueError(
                "insufficient truncation for this level: lower N or raise D")
        nz = s.nonzero_degrees()
        if not nz:
            return self.zero()
        if len(nz) <= 8:
            out = self.zero()
            for k in nz:
                out = self.add(out, self.scal(self.pow_int(x, k), s.data[k]))
            return out
        acc = self.zero()
        for k in range(s.D - 1, -1, -1):
            acc = self.mul(acc, x)
            acc[0] = (acc[0] + s.data[k]) % self.desc.pN
        return acc % self.desc.pN

    def eval2(self, F2, x, y):
        """Evaluate a two-variable series; total-degree window D2 needs
        D2 >= N * e for the tail to vanish."""
        if F2.D < self.N * self.e:
            raise ValueError(
                "insufficient truncation for this level: lower N or raise D")
        xp = [self.one()]
        yp = [self.one()]
        for _ in range(F2.D - 1):
            xp.append(self.mul(xp[-1], x))
            yp.append(self.mul(yp[-1], y))
        out = self.zero()
        for i, j, vec in F2.coeff_triples():
            term = self.scal(self.mul(xp[i], yp[j]), np.asarray(vec, dtype=self.dtype))
            out = self.add(out, term)
        return out

    def apply_pi(self, x, times: int = 1):
        """Apply the [p]-series repeatedly; window shrinks as valuation grows."""
        q = self.q
        cur = x
        v = max(1, self.valuation(x)) if self.valuation(x) is not INF else 1
        for _ in range(times):
            w = min(-(-self.N * self.e // v) + 1, self.N * self.e)
            pi = self.group.pi_series(max(w, q + 1), self.N)
            cur = self.eval_series(pi, cur, min_val=v)
            v = min(v * q, self.N * self.e)
        return cur


# ------------------------------------------------------------ measurements

def certify_torsion_degree(group, n: int, N: int = 4) -> dict:
    """Pure slope 1/e with denominator equal to the degree certifies that the
    level-n relative factor is irreducible and L_n/K totally ramified."""
    dp = division_polynomial(group, n, N=N)
    e = dp.e
    desc = group.desc.at_precision(N)
    raw = np.array([[int(v) % desc.pN for v in row] for row in dp.P.data], dtype=object)
    poly = TruncSeries1(desc, e + 1, "integral", raw)
    ng = newton_polygon(poly, e)
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
    D = q**n + q
    pi = group.pi_series(D, N)
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


def _scalar_tuples(group, n: int):
    """All sums sum_i w_i p^i over Teichmuller digits of O_F, n digits."""
    h = group.height
    desc = group.desc
    digits = teichmuller_digits(desc, h)
    p = desc.p
    out = []
    for tup in itertools.product(range(len(digits)), repeat=n):
        a = desc.zero()
        for i, ix in enumerate(tup):
            a = a + digits[ix] * (p**i)
        out.append((tup, a))
    return out


def assumption_check(group, n: int, N: int = 4) -> dict:
    """Is a -> [a](z) a bijection A/p^n -> F[p^n]?

    Enumerates the q^n digit sums, checks all values are p^n-torsion and
    pairwise distinct.  Distinctness at the working precision is conclusive:
    a difference of torsion points is a torsion point of valuation at most
    q^{n-1} < N*e.
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
    model = TorsionFieldModel(group, n, N)
    D = N * model.e
    module = group.module(D, N)
    scalars = [a for _tup, a in _scalar_tuples(group, n)]
    module.solve_batch([a for a in scalars if not a.is_zero()])
    seen = set()
    annihilated = True
    histogram = {}
    for a in scalars:
        if a.is_zero():
            t = model.zero()
        else:
            ser = module.multiplication_by(a)
            t = model.eval_at_z(ser)
        seen.add(tuple(int(v) for v in t.ravel()))
        val = model.valuation(t)
        histogram[str(val)] = histogram.get(str(val), 0) + 1
        if not model.equal(t, model.zero()):
            if not model.equal(model.apply_pi(t, times=n), model.zero()):
                annihilated = False
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
    e = model.e
    D = N * e
    module = group.module(D, N)
    digits = teichmuller_digits(desc, h)
    nonzero = [w for w in digits if not w.is_zero()]
    one = desc.one()
    shifted = [w - one for w in nonzero if not (w - one).is_zero()]
    module.solve_batch(shifted + (nonzero if n > 1 else []))
    table = []
    all_match = True
    zbar = model.z()
    for k in range(n):
        expected = q**k
        wk = zbar if k == 0 else model.apply_pi(zbar, times=k)
        window = -(-N * e // q**k) + 1
        for w in nonzero:
            if k == 0:
                um1 = w - one
                if um1.is_zero():
                    continue  # u = 1 is the identity: break is infinite
                ser = module.multiplication_by(um1)
                val = model.valuation(model.eval_at_z(ser))
            else:
                # u - 1 = p^k * w: apply [p] k times, then the unit digit
                ser = module.multiplication_by(w).truncate(max(window, q + 1))
                val = model.valuation(model.eval_series(ser, wk, min_val=q**k))
            ok = val == expected
            all_match = all_match and ok
            table.append({
                "k": k,
                "digit": w.residue().code(),
                "i_sigma": str(val),
                "expected": expected,
                "match": bool(ok),
            })
    record = {
        "level": n,
        "breaks": table,
        "identity_break": "inf",
        "all_match": bool(all_match),
    }
    if cross_check:
        record["direct_level_one"] = _direct_break_check(group, min(N, 4))
    return record


def _direct_break_check(group, N: int) -> list:
    """Level-1 cross-check against the definition: evaluate the two-variable
    group law at ([u](z), iota(z)) and compare with the [u-1](z) route."""
    model = TorsionFieldModel(group, 1, N)
    e = model.e
    D = N * e
    module = group.module(D, N)
    D2 = N * e + 2
    F2 = group.group_law2(D2, N)
    digits = teichmuller_digits(group.desc, group.height)
    one = group.desc.one()
    units = [w for w in digits if not (w.is_zero() or (w - one).is_zero())]
    module.solve_batch([-1] + units + [w - one for w in units])
    neg = group.negation_series(D, N)
    iz = model.eval_at_z(neg)
    out = []
    for w in units:
        ux = model.eval_at_z(module.multiplication_by(w))
        delta = model.eval2(F2, ux, iz)
        direct = model.valuation(delta)
        linear = model.valuation(model.eval_at_z(module.multiplication_by(w - one)))
        out.append({
            "digit": w.residue().code(),
            "direct": str(direct),
            "module_route": str(linear),
            "match": bool(direct == linear),
        })
    return out


def mu_p_membership(group, d_max: int | None = None, N: int = 6) -> dict:
    """Does the level-1 torsion field contain the p-th roots of unity after
    an unramified enlargement of degree d <= d_max?

    Searches for y with y^(p-1) = -p: y = t * z^(e/(p-1)) with
    t^(p-1) = -p / z^e, solvable iff the residue of -(z^e/p)^(-1) is a
    (p-1)-th power.  A witness must satisfy v_L(y^(p-1) + p) >= (N-2)*e.
    """
    h = group.height
    if h is INF:
        raise ValueError("no finite height: level-1 torsion is not a field model")
    q = group.q
    p = group.desc.p
    e = q - 1
    if d_max is None:
        d_max = h
    attempts = []
    for d in range(1, d_max + 1):
        grp = group if d == 1 else group.base_change(group.desc.f * d)
        model = TorsionFieldModel(grp, 1, N)
        m = model.desc.pN
        # z^e = -(low part of P); V = z^e / p is a unit by pure slope
        ze = (-(model.P_low)) % m
        V = model.exact_div_p(ze)
        u = model.neg(model.invert(V))
        r = model.residue(u)
        if not residue_power_test(r, p - 1):
            attempts.append({"d": d, "solvable": False, "residue_code": r.code()})
            continue
        rho = None
        for code in range(1, model.desc.q):
            cand = ResidueElem.from_code(model.desc, code)
            if (cand ** (p - 1)).code() == r.code():
                rho = cand
                break
        t = model.from_ok(teichmuller_lift(model.desc, rho))
        for _ in range(40):
            err = model.sub(model.pow_int(t, p - 1), u)
            if model.equal(err, model.zero()):
                break
            deriv = model.scal(model.pow_int(t, p - 2), p - 1)
            t = model.sub(t, model.mul(err, model.invert(deriv)))
        y = model.mul(t, model.pow_int(model.z(), e // (p - 1)))
        wit = model.add(model.pow_int(y, p - 1), model.from_ok(p))
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
