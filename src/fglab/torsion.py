"""Torsion-field models and ramification measurements.

The level-n torsion field L_n = K(z) is modelled as O_K[X]/(P_n) where P_n is
the distinguished factor of [p^n]/[p^{n-1}].  P_n is Eisenstein-like: its
Newton polygon is pure of slope 1/e with e = q^{n-1}(q-1), so L_n/K is
totally ramified of degree e and element valuations are v_L-exact:
v_L(sum c_j z^j) = min_j (e * v_p(c_j) + j), the terms having distinct
residues mod e.

Series are evaluated at points of positive valuation; a window D >= N*e
makes the discarded tail vanish at the working precision.

Model arithmetic takes stacks: arrays shaped (..., e, f) whose leading axes
broadcast, so one product, power or series evaluation serves many points.
The scalar-action check builds all q^n points in one contraction and
applies [p^n] once per valuation class of points.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .padic import (
    INF,
    UnramifiedRingElem,
    contraction_dtype,
    residue_power_test,
    ring_mul,
    ring_scale,
    teichmuller_digits,
    teichmuller_lift,
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

    Elements are coefficient arrays of shape (e, f) mod p^N, and stacks of
    them arrays of shape (..., e, f).  The class of X is a root z of P_n, a
    point of exact order p^n with v_L(z) = 1.
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
        self.e = level_degree(q, level)
        self.N = N
        self.window = model_window(q, level, N)
        self.desc = group.desc.at_precision(N)
        e, f, m = self.e, self.desc.f, self.desc.pN
        raw, self.polygon = _factor_polygon(group, level, N)
        if raw.shape[0] != e + 1:
            raise ValueError("distinguished factor does not have degree e")
        if int(raw[e, 0]) != 1 or any(int(v) for v in raw[e, 1:]):
            raise ValueError("distinguished factor is not monic")
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

    # ------------------------------------------------------------ elements
    # Every operation takes stacks: arrays shaped (..., e, f) whose leading
    # axes broadcast, so one element combines with a stack elementwise.
    def zero(self, lead=()):
        return np.zeros(tuple(lead) + (self.e, self.desc.f), dtype=self.dtype)

    def one(self, lead=()):
        x = self.zero(lead)
        x[..., 0, 0] = 1
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
        e, m = self.e, self.desc.pN
        full = ring_mul(a, b, self.desc, m, _conv)
        low, high = full[..., :e, :], full[..., e:, :]
        if high.any():
            # sum_k high[k] * (X^(e+k) mod P), a ring product contracted over k
            low = (low + ring_mul(high, self.red, self.desc, m, np.dot)) % m
        return low

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
        out = None
        while k:
            if k & 1:
                out = a if out is None else self.mul(out, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return self.one(a.shape[:-2]) if out is None else out % self.desc.pN

    def powers(self, x, count: int):
        """x^0 .. x^(count-1) of an element, stacked on a new first axis:
        each doubling step is one product by x and one stacked product."""
        P = self.one()[None]
        while len(P) < count:
            P = np.concatenate([P, self.mul(P, self.mul(P[-1], x))])
        return P[:count]

    def equal(self, a, b) -> bool:
        return bool(((a - b) % self.desc.pN == 0).all())

    def valuations(self, A):
        """v_L of every element of a stack, INF for 0, as an object array
        shaped like the leading axes; exact because coefficient valuations
        are distinct mod e."""
        p, N, e = self.desc.p, self.N, self.e
        A = np.asarray(A) % self.desc.pN
        # v_p of each coefficient, N for a zero one (A < p^N after reduction)
        vp = sum((A % p**k == 0).astype(np.int64) for k in range(1, N + 1))
        v = np.asarray((e * vp.min(axis=-1) + np.arange(e)).min(axis=-1))
        out = v.astype(object)
        out[v == self.window] = INF
        return out

    def valuation(self, a):
        """v_L of one element."""
        return self.valuations(a)[()]

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
        for _ in range(newton_steps(self.window)):
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

    def _z_powers(self):
        """z^k for k < N*e by shift-and-fold; z^e is p times a unit (pure
        slope 1/e), so z^(N*e) and every higher power vanish mod p^N.  Not
        kept: each caller evaluates all its series in one eval_at_z."""
        K, m = self.window, self.desc.pN
        dtype = contraction_dtype(K, self.desc)  # eval_at_z sums K products
        red0 = self.red[0].astype(dtype)
        Z = np.zeros((K, self.e, self.desc.f), dtype=dtype)
        Z[0, 0, 0] = 1
        for k in range(1, K):
            Z[k, 1:] = Z[k - 1, :-1]
            Z[k] = (Z[k] + ring_scale(red0, Z[k - 1, -1], self.desc, m)) % m
        return Z

    def eval_at_z(self, s):
        """s(z) for one series, or the stack of s_i(z) for a sequence of
        series: one contraction of the coefficients with the z^k table."""
        series = [s] if isinstance(s, TruncSeries1) else list(s)
        for t in series:
            self._require_window(t.D)
        Z = self._z_powers()
        m = self.desc.pN
        data = (np.stack([t.data[: len(Z)] for t in series]) % m).astype(Z.dtype)
        out = ring_mul(data, Z, self.desc, m, np.matmul).astype(self.dtype)
        return out[0] if isinstance(s, TruncSeries1) else out

    def eval_series(self, s: TruncSeries1, x, min_val: int = 1):
        """Evaluate at a stack of elements of valuation >= min_val."""
        self._require_window(s.D, min_val)
        nz = s.nonzero_degrees()
        out = self.zero(x.shape[:-2])
        if not nz:
            return out
        m = self.desc.pN
        if len(nz) <= 8:
            # x^k for the nonzero degrees in turn, each from the one before
            power, deg = None, 0
            for k in nz:
                step = self.pow_int(x, k - deg)
                power = step if power is None else self.mul(power, step)
                deg = k
                out = self.add(out, self.scal(power, s.data[k]))
            return out
        out[..., 0, :] = s.data[nz[-1]] % m
        for k in range(nz[-1] - 1, -1, -1):
            out = self.mul(out, x)
            out[..., 0, :] = (out[..., 0, :] + s.data[k]) % m
        return out

    def eval2(self, F2, x, y):
        """Evaluate a two-variable series at two elements; total-degree
        window D2 needs D2 >= N * e for the tail to vanish.  inner[i] =
        sum_j F2[i, j] y^j is one contraction, then sum_i inner[i] x^i is
        one stacked product."""
        self._require_window(F2.D)
        D2, m = F2.D, self.desc.pN
        dtype = contraction_dtype(D2, self.desc)  # the contraction sums D2 products
        F = (F2.data % m).astype(dtype)
        Y = self.powers(y, D2).astype(dtype)
        inner = ring_mul(F, Y, self.desc, m, np.matmul).astype(self.dtype)
        return self.mul(inner, self.powers(x, D2)).sum(axis=0) % m

    def apply_pi(self, x, times: int = 1, val=None):
        """Apply the [p]-series `times` times to a stack of elements of
        valuation >= val (default: the least valuation in the stack); the
        window shrinks as the valuation grows."""
        q, K = self.q, self.window
        if val is None:
            val = min((v for v in np.ravel(self.valuations(x)) if v != INF), default=INF)
        v = 1 if val == INF else max(1, int(val))
        cur = x
        for _ in range(times):
            pi = self.group.pi_series(eval_window(K, v, q), self.N)
            cur = self.eval_series(pi, cur, min_val=v)
            v = min(v * q, K)
        return cur


def _conv(x, y):
    """Full convolution along the last axis, the leading axes broadcast:
    np.convolve for two vectors, else one contraction of x reversed with
    the windows of y padded by len(x) - 1 zeros on each side."""
    if x.ndim == 1 and y.ndim == 1:
        return np.convolve(x, y)
    n, k = x.shape[-1], y.shape[-1]
    padded = np.zeros(y.shape[:-1] + (2 * n + k - 2,), dtype=y.dtype)
    padded[..., n - 1:n - 1 + k] = y
    win = sliding_window_view(padded, n + k - 1, axis=-1)
    return np.einsum("...i,...it->...t", x[..., ::-1], win)


# ------------------------------------------------------------ measurements

def _factor_polygon(group, n: int, N: int):
    """P_n at precision N as an (e + 1, f) object array, and its Newton polygon."""
    P = group.division_factor(n, N)
    raw = P.data.astype(object)
    return raw, newton_polygon(TruncSeries1(P.desc, P.D, "integral", raw), P.D - 1)


def certify_torsion_degree(group, n: int, N: int = 4) -> dict:
    """Pure slope 1/e with denominator equal to the degree certifies that the
    level-n relative factor is irreducible and L_n/K totally ramified."""
    raw, ng = _factor_polygon(group, n, N)
    e = len(raw) - 1
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
    module = group.module(model.window, N)
    scalars = [a for _tup, a in _scalar_tuples(group, n)]
    nonzero = [i for i, a in enumerate(scalars) if not a.is_zero()]
    module.solve_batch([scalars[i] for i in nonzero])
    points = model.zero((len(scalars),))
    points[nonzero] = model.eval_at_z([module.multiplication_by(scalars[i]) for i in nonzero])
    seen = set(map(tuple, points.reshape(len(points), -1).tolist()))
    histogram = {}
    classes = {}
    for i, val in enumerate(model.valuations(points)):
        histogram[str(val)] = histogram.get(str(val), 0) + 1
        if val != INF:
            classes.setdefault(val, []).append(i)
    # [p^n] once per valuation class, the largest window first; each
    # nonzero point must go to 0
    annihilated = all(
        not model.apply_pi(points[classes[v]], times=n, val=v).any()
        for v in sorted(classes))
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
    module = group.module(model.window, N)
    digits = teichmuller_digits(desc, h)
    nonzero = [w for w in digits if not w.is_zero()]
    one = desc.one()
    units = [w for w in nonzero if not (w - one).is_zero()]  # u = 1: break is infinite
    module.solve_batch([w - one for w in units] + (nonzero if n > 1 else []))
    table = []
    all_match = True
    for k in range(n):
        expected = q**k
        if k == 0:
            row = units
            vals = model.valuations(model.eval_at_z(
                [module.multiplication_by(w - one) for w in units]))
        else:
            # u - 1 = p^k * w: apply [p] k times, then the unit digit
            row = nonzero
            wk = model.apply_pi(model.z(), times=k)
            window = eval_window(model.window, q**k, q)
            vals = [model.valuation(model.eval_series(
                module.multiplication_by(w).truncate(window), wk, min_val=q**k)) for w in row]
        for w, val in zip(row, vals):
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
        record["direct_level_one"] = _direct_break_check(group, crosscheck_precision(N))
    return record


def _direct_break_check(group, N: int) -> list:
    """Level-1 cross-check against the definition: evaluate the two-variable
    group law at ([u](z), iota(z)) and compare with the [u-1](z) route."""
    model = TorsionFieldModel(group, 1, N)
    D = model.window
    module = group.module(D, N)
    F2 = group.group_law2(crosscheck_window(group.q, N), N)
    digits = teichmuller_digits(group.desc, group.height)
    one = group.desc.one()
    units = [w for w in digits if not (w.is_zero() or (w - one).is_zero())]
    module.solve_batch([-1] + units + [w - one for w in units])
    pts = model.eval_at_z([group.negation_series(D, N)]
                          + [module.multiplication_by(w) for w in units]
                          + [module.multiplication_by(w - one) for w in units])
    iz, ux, um1 = pts[0], pts[1:len(units) + 1], pts[len(units) + 1:]
    out = []
    for w, x, linear in zip(units, ux, model.valuations(um1)):
        direct = model.valuation(model.eval2(F2, x, iz))
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
        roots = (UnramifiedRingElem.from_code(r.desc, k) for k in range(1, model.desc.q))
        rho = next(c for c in roots if c ** (p - 1) == r)
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
