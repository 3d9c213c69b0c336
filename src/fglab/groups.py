"""Formal group laws over unramified p-adic coefficient rings.

Three kinds of group, each with its multiplication-by-p series [p]:

* multiplicative_group: F = X + Y + XY with everything in closed form;
* lubin_tate_group: [p] is a distinguished polynomial f = pX + ...
  congruent to X^q mod p;
* honda_group: logarithm built from the functional equation
  lam(X) = X + sum_i u_i lam(X^{p^i}) / p over Z_p, with [p] recovered from
  lam([p]) = p lam by a Newton iteration carried out mod a high power of p.
  lam and [p] have Z_p coefficients (Hazewinkel's functional-equation
  lemma), so a honda group over any W(F_{p^f}) keeps them in component 0,
  and its base change is the honda group over the larger ring.

Both non-closed kinds get their two-variable law from one solver: F is the
unique series X + Y + ... commuting with [p], F(f(X), f(Y)) = f(F(X, Y))
(Lubin-Tate 1965).  It follows the grading of f = X u(X^d): only total
degrees k = 1 mod d are solved, each from the degree-k part of the defect
f(F) - F(f(X), f(Y)), formed by compose and substitute2_into2, divided by
p^k - p.

Module structure ([a]-series for ring scalars a) is computed by the
commutation recursion: g with linear term a and g(f(X)) = f(g(X)) is solved
one coefficient at a time, the degree-k defect divided by p^k - p.  A defect
that is not divisible by p certifies that no such series exists; the degree
where that happens is reported as the obstruction.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .padic import (
    INF,
    Embedding,
    RingDescriptor,
    UnramifiedRingElem,
    _frac_val,
    contraction_dtype,
    ring_mul,
    ring_scale,
)
from .precision import (
    cushion,
    default_precision,
    height_index,
    honda_precision,
    law_window,
    level_degree,
)
from .series import (
    TruncSeries1,
    TruncSeries2,
    _dtype_for,
    _mul_data,
    substitute2_into2,
)
from .weier import division_polynomial


class ObstructionError(ValueError):
    """Raised when a commutation solve hits a non-divisible defect."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"no commuting series; obstruction at degree {degree}")


class FrobeniusSeries:
    """Distinguished polynomial f = pX + ... with f = X^q mod p, q = p^h."""

    def __init__(self, desc: RingDescriptor, coeffs):
        self.desc = desc
        poly = TruncSeries1.from_coeffs(desc, coeffs, D=len(coeffs))
        p = desc.p
        if any(v != 0 for v in poly.data[0]):
            raise ValueError("constant term must vanish")
        if tuple(poly.data[1]) != (p,) + (0,) * (desc.f - 1):
            raise ValueError("linear coefficient must be exactly p")
        units = [k for k in poly.nonzero_degrees() if any(int(v) % p for v in poly.data[k])]
        if len(units) != 1:
            raise ValueError("reduction mod p must be a single power of X")
        q = units[0]
        h = height_index(q, p)
        res = [int(v) % p for v in poly.data[q]]
        if res != [1] + [0] * (desc.f - 1):
            raise ValueError("reduction mod p must equal X^q")
        self.coeff_rows = [tuple(int(v) for v in poly.data[k]) for k in range(len(coeffs))]
        self.degree = len(coeffs) - 1
        self.q = q
        self.h = h

    def at(self, D: int, N: int | None = None) -> TruncSeries1:
        desc = self.desc if N is None else self.desc.at_precision(N)
        s = TruncSeries1.zero(desc, D)
        for k, row in enumerate(self.coeff_rows[:D]):
            for j, v in enumerate(row):
                s.data[k, j] = v % desc.pN
        return s


def solve_equivariant_group_law(f_ser: TruncSeries1, D2: int, N: int) -> TruncSeries2:
    """The unique F = X + Y + ... with F(f(X), f(Y)) = f(F(X, Y)).

    With F known below degree k, the degree-k part of the defect
    f(F) - F(f(X), f(Y)) is (p^k - p) F_k.  With d = gcd{j - 1 : f_j != 0}
    the defect lives on total degrees = 1 mod d, so only those degrees are
    solved; d = 0 (f = pX) leaves F = X + Y.  Works mod the precision of
    f_ser, which carries a cushion of digits above N for the divisions by
    p^k - p; equivariance is checked mod p^N.
    """
    desc = f_ser.desc
    p, m = desc.p, desc.pN
    f2 = f_ser.lift(D2) if f_ser.D < D2 else f_ser.truncate(D2)
    d = math.gcd(*(j - 1 for j in f2.nonzero_degrees()))
    F = TruncSeries2.from_triples(desc, [(1, 0, 1), (0, 1, 1)], D2)

    def defect():
        return (f2.compose(F) - substitute2_into2(F, f2, f2)).data

    for k in range(1 + d, D2, d) if d else ():
        i = np.arange(k + 1)
        part = defect()[i, k - i]  # the coefficients of X^i Y^(k-i)
        if (part % p).any():
            raise ObstructionError(k, f"group law solve obstructed at degree {k}")
        F.data[i, k - i] = part // p * pow((pow(p, k - 1, m) - 1) % m, -1, m) % m
    if (defect() % p**N).any():
        raise ArithmeticError("equivariance failed")
    return F


def _narrow(s, D: int, N: int):
    """A one- or two-variable integral series on the window D at precision
    N, with the dtype a fresh build there has."""
    desc = s.desc.at_precision(N)
    data = s.data[(slice(D),) * (s.data.ndim - 1)] % desc.pN
    if s.data.ndim == 3:
        data[np.add.outer(np.arange(D), np.arange(D)) >= D] = 0
    return type(s)(desc, D, "integral", data.astype(_dtype_for(desc, D, "integral")))


def _serve(cache: dict, D: int, N: int, build):
    """cache[(D, N)]: built on a miss, unless some cached (D0 >= D, N0 >= N)
    serves it by truncation and reduction.  list() copies the keys at once,
    so another --jobs thread may store while the wider ones are sought."""
    out = cache.get((D, N))
    if out is None:
        wider = [k for k in list(cache) if k[0] >= D and k[1] >= N]
        out = _narrow(cache[min(wider)], D, N) if wider else build()
        cache[(D, N)] = out
    return out


# ----------------------------------------------------------------- honda

def honda_log_coeffs(p: int, u, D: int):
    """Exact logarithm coefficients from lam = X + sum u_i lam(X^{p^i})/p."""
    lam = [Fraction(0)] * D
    if D > 1:
        lam[1] = Fraction(1)
    for k in range(2, D):
        acc = Fraction(0)
        for i, ui in enumerate(u, start=1):
            step = p**i
            if ui and k % step == 0:
                acc += ui * lam[k // step]
        if acc:
            lam[k] = acc / p
    return lam


def _data_exact_div_p(data, p: int, k: int):
    m = p**k
    if (data % m).any():
        raise ArithmeticError("expected divisibility failed")
    return data // m


def _honda_pi_series(out_desc: RingDescriptor, u, D: int) -> TruncSeries1:
    """[p]-series of the honda group over out_desc: Newton solve of
    lam(g) = p lam over Z_p, written into component 0."""
    p = out_desc.p
    lam = honda_log_coeffs(p, u, D)
    jmax = max((-_frac_val(c, p) for c in lam if c), default=0)
    scale = p**jmax
    desc = RingDescriptor(p, 1, honda_precision(D, out_desc.N, jmax))
    m = desc.pN
    L = TruncSeries1.zero(desc, D)
    for k, c in enumerate(lam):
        if c:
            # lam has p-power denominators only, so c * scale is an integer
            L.data[k, 0] = int(c * scale) % m
    target = L.scalar_mul(p)
    Lp = L.derivative()
    g = TruncSeries1.zero(desc, D)
    g.data[1, 0] = p
    d = 1
    while d < D:
        d = min(2 * d, D)
        gt = g.truncate(d)
        err = L.truncate(d).compose(gt) - target.truncate(d)
        if not err.is_zero():
            Up = Lp.truncate(d).compose(gt)
            U = TruncSeries1(desc, d, "integral", _data_exact_div_p(Up.data, p, jmax))
            corr = err * U.invert_unit()
            corr.data = _data_exact_div_p(corr.data, p, jmax)
            gt = gt - corr
        g = gt.lift(D)
    out = TruncSeries1.zero(out_desc, D)
    out.data[:, 0] = g.data[:, 0] % out_desc.pN
    return out


def _frobenius_log(fs: FrobeniusSeries, desc: RingDescriptor, D: int) -> TruncSeries1:
    """Logarithm of a Lubin-Tate group, exact.

    The stored integer coefficient rows define the group exactly, so
    log(f(X)) = p log(X) determines the coefficients by an exact rational
    recursion: b_n = [X^n](sum_{k<n} b_k f^k) / (p - p^n)."""
    p = desc.p
    fx = TruncSeries1.from_coeffs(desc, fs.coeff_rows, D, "scaled")
    b = [0, 1]
    comp = fx  # running sum_{k<n} b_k f^k, here b_1 f
    fpow = fx
    for n in range(2, D):
        div = p - p**n
        b.append(tuple(c / div for c in comp.coeff_vec(n)))
        if n < D - 1:
            fpow = fpow * fx
            if any(b[n]):
                comp = comp + fpow.scalar_mul(b[n])
    return TruncSeries1.from_coeffs(desc, b[:D], D, "scaled")


# --------------------------------------------------------------- the group

class FormalGroupLaw:
    """A one-dimensional formal group law with its coefficient-ring action.

    kind is one of "gm", "lubin_tate", "honda"; each kind is one object over
    any W(F_{p^f}), and base_change returns the same kind over the larger
    ring.  Heavy artifacts (the [p]-series at a degree window, the
    two-variable law, module structures) are built on demand and cached per
    window/precision.
    """

    def __init__(self, desc, kind, label, frobenius=None, u=None):
        self.desc = desc
        self.kind = kind
        self.label = label
        self.frobenius = frobenius
        self.u = u
        self._height = frobenius.h if frobenius is not None else None
        if kind == "honda":
            self._height = next((i for i, ui in enumerate(u, start=1) if ui % desc.p), INF)
        if kind == "gm":
            self._height = 1
        self._pi_cache = {}
        self._f2_cache = {}
        self._log_cache = {}
        self._exp_cache = {}
        self._endo_cache = {}   # endo.try_endomorphism records
        self._module_cache = {}
        self._division_cache = {}

    # ------------------------------------------------------------- basics
    @property
    def height(self):
        return self._height

    @property
    def q(self):
        """p^height, or None for infinite height."""
        if self._height == INF:
            return None
        return self.desc.p**self._height

    @property
    def q_eff(self) -> int:
        return self.q if self.q else self.desc.p

    def __repr__(self):
        return f"FormalGroupLaw({self.label}, p={self.desc.p}, f={self.desc.f}, h={self.height})"

    # ---------------------------------------------------------- [p]-series
    def pi_series(self, D: int, N: int | None = None) -> TruncSeries1:
        N = self.desc.N if N is None else N
        if N > self.desc.N:
            raise ValueError("requested precision above construction precision")
        if self.q is not None and D <= self.q:
            raise ValueError("window must exceed the height index")
        return _serve(self._pi_cache, D, N, lambda: self._build_pi_series(D, N))

    def _build_pi_series(self, D: int, N: int) -> TruncSeries1:
        p = self.desc.p
        if self.kind == "gm":
            desc = self.desc.at_precision(N)
            out = TruncSeries1.zero(desc, D)
            for k in range(1, min(p, D - 1) + 1):
                out.data[k, 0] = math.comb(p, k) % desc.pN
        elif self.kind == "lubin_tate":
            out = self.frobenius.at(D, N)
        else:
            out = _honda_pi_series(self.desc.at_precision(N), self.u, D)
        if out.first_unit_index() != (self.q if self.q else None):
            raise AssertionError("multiplication-by-p series has wrong unit index")
        return out

    # ----------------------------------------------------- two-variable law
    def group_law2(self, D2: int, N: int | None = None) -> TruncSeries2:
        """The law on the window D2 mod p^N, solved once per window: a law
        cached at (D0 >= D2, N0 >= N) serves by truncation and reduction."""
        N = default_precision(self.desc.N, D2, self.q_eff) if N is None else N
        return _serve(self._f2_cache, D2, N, lambda: self._build_group_law2(D2, N))

    def _build_group_law2(self, D2: int, N: int) -> TruncSeries2:
        if self.kind == "gm":
            desc = self.desc.at_precision(N)
            return TruncSeries2.from_triples(desc, [(1, 0, 1), (0, 1, 1), (1, 1, 1)], D2)
        W = law_window(D2, self.q)
        N_work = N + cushion(W, self.q_eff)
        if self.kind == "honda":
            # the honda [p]-series is exact data at any precision
            f_work = _honda_pi_series(self.desc.at_precision(N_work), self.u, W)
        elif N_work > self.desc.N:
            raise ValueError("construct the group at higher precision first")
        else:
            f_work = self.pi_series(W, N_work)
        return _narrow(solve_equivariant_group_law(f_work, W, N), D2, N)

    # ------------------------------------------------------------ logarithm
    def logarithm(self, D: int) -> TruncSeries1:
        if D in self._log_cache:
            return self._log_cache[D]
        if self.kind == "gm":
            coeffs = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, D)]
            out = TruncSeries1.from_coeffs(self.desc, coeffs, D, "scaled")
        elif self.kind == "lubin_tate":
            out = _frobenius_log(self.frobenius, self.desc, D)
        else:
            lam = honda_log_coeffs(self.desc.p, self.u, D)
            out = TruncSeries1.from_coeffs(self.desc, lam, D, "scaled")
        self._log_cache[D] = out
        return out

    def exponential(self, D: int) -> TruncSeries1:
        if D not in self._exp_cache:
            self._exp_cache[D] = self.logarithm(D).reversion()
        return self._exp_cache[D]

    # ----------------------------------------------------- division factor
    def division_factor(self, n: int, N: int) -> TruncSeries1:
        """P_n of weier.division_polynomial at precision N.  Preparation is
        unique and every digit is stable at its window N*e, so a factor
        cached at any N0 >= N serves by reduction."""
        if self.q is None:
            raise ValueError("group has no finite height; no division polynomial")
        level = self._division_cache.setdefault(n, {})  # P_n of this level only
        return _serve(level, level_degree(self.q, n) + 1, N,
                      lambda: division_polynomial(self, n, N=N).P)

    # --------------------------------------------------------------- module
    def module(self, D: int, N_out: int) -> "ModuleStructure":
        key = (D, N_out)
        if key not in self._module_cache:
            self._module_cache[key] = ModuleStructure(self, D, N_out)
        return self._module_cache[key]

    def multiplication_by(self, a, D: int, N: int | None = None) -> TruncSeries1:
        N = default_precision(self.desc.N, D, self.q_eff) if N is None else N
        return self.module(D, N).multiplication_by(a)

    def negation_series(self, D: int, N: int | None = None) -> TruncSeries1:
        return self.multiplication_by(-1, D, N)

    # --------------------------------------------------------- base change
    def base_change(self, f_new: int) -> "FormalGroupLaw":
        """Coefficientwise image over the unramified extension with residue
        degree f_new (a multiple of the current one)."""
        if f_new % self.desc.f:
            raise ValueError("target residue degree must be a multiple of the current one")
        if f_new == self.desc.f:
            return self
        dst = RingDescriptor(self.desc.p, f_new, self.desc.N)
        label = f"{self.label}@f={f_new}"
        if self.kind == "gm":
            return multiplicative_group(dst, label=label)
        if self.kind == "lubin_tate":
            emb = Embedding(self.desc, dst)
            coeffs = [emb(UnramifiedRingElem(self.desc, list(row))).coeffs
                      for row in self.frobenius.coeff_rows]
            return lubin_tate_group(dst, coeffs, label=label)
        return honda_group(dst, self.u, label)


def multiplicative_group(desc: RingDescriptor, label: str | None = None) -> FormalGroupLaw:
    return FormalGroupLaw(desc, "gm", label or f"gm(p={desc.p},f={desc.f})")


def lubin_tate_group(desc: RingDescriptor, coeffs, label: str | None = None) -> FormalGroupLaw:
    frob = FrobeniusSeries(desc, coeffs)
    return FormalGroupLaw(desc, "lubin_tate",
                          label or f"lt(p={desc.p},f={desc.f},q={frob.q})",
                          frobenius=frob)


def honda_group(desc: RingDescriptor, u, label: str | None = None) -> FormalGroupLaw:
    u = tuple(int(x) for x in u)
    return FormalGroupLaw(desc, "honda", label or f"honda(p={desc.p},u={u})", u=u)


# -------------------------------------------------------- module structure

# The power table of one solver chunk stays under this many bytes.
_BATCH_BYTES = 1 << 20


def _power_table(f_data, desc: RingDescriptor, nz) -> np.ndarray:
    """table[j] = f^j truncated at the window D = len(f_data), for j < D."""
    D, m = len(f_data), desc.pN
    table = np.zeros((D, D, desc.f), dtype=f_data.dtype)
    table[0, 0, 0] = 1
    table[1] = f_data
    terms = [(k, tuple(f_data[k])) for k in nz]
    for j in range(2, D):
        cur = table[j - 1]
        if len(terms) > 6:
            table[j] = _mul_data(cur, f_data, desc, D, m)
            continue
        for d, vec in terms:
            table[j, d:] = (table[j, d:] + ring_scale(cur[: D - d], vec, desc, m)) % m
    return table


# (x, y) -> sum_j x[b, j] * y[i, b, j] for every (i, b)
_sum_bj = functools.partial(np.einsum, "bj,ibj->ib")


class ModuleStructure:
    """[a]-series solver for one group at a fixed degree window and output
    precision, working with a digit cushion over N_out.  Every scalar obeys
    the same degree-k recurrence, so solve_batch runs many scalars through
    one pass over a table of the powers f^j built once for the window.

    With d = gcd{j - 1 : f_j != 0}, f = X u(X^d), so f^j lives on degrees
    = j mod d; by induction on k so does g^j, and g_k = 0 unless k = 1 mod d
    (both sides of g(f) = f(g) vanish at every other degree)."""

    def __init__(self, group: FormalGroupLaw, D: int, N_out: int):
        self.group = group
        self.D = D
        self.N_out = N_out
        self.cushion = cushion(D, group.q_eff)
        N_work = N_out + self.cushion
        if N_work > group.desc.N:
            raise ValueError("construct the group at higher precision first")
        self.desc_w = group.desc.at_precision(N_work)
        self.m = self.desc_w.pN
        fs = group.pi_series(D, N_work)
        # every contraction of the solver sums at most D products
        self.dtype = contraction_dtype(D, self.desc_w)
        self.f_nz = fs.nonzero_degrees()
        self.mdeg = self.f_nz[-1]
        self.step = math.gcd(*(j - 1 for j in self.f_nz))  # d; 0 when f = pX
        self.fpow = _power_table(fs.data.astype(self.dtype), self.desc_w, self.f_nz)
        self._cache = {}

    def _coerce_scalar(self, a):
        f = self.desc_w.f
        if isinstance(a, UnramifiedRingElem):
            if not a.desc.same_field(self.desc_w):
                raise ValueError("scalar from a different ring")
            if a.desc.N < self.desc_w.N:
                raise ValueError("scalar needs at least the working precision")
            return tuple(int(v) % self.m for v in a.coeffs)
        if isinstance(a, int):
            return (a % self.m,) + (0,) * (f - 1)
        if isinstance(a, (tuple, list)):
            return tuple(int(v) % self.m for v in a)
        raise TypeError("unsupported scalar")

    def try_multiplication(self, a):
        """Returns (series, None) or (None, obstruction_degree)."""
        return self.solve_batch([a])[0]

    def multiplication_by(self, a) -> TruncSeries1:
        ser, obs = self.try_multiplication(a)
        if obs is not None:
            raise ObstructionError(obs)
        return ser

    def solve_batch(self, scalars):
        """Solve every scalar not yet in the cache, together; returns the
        (series, None) or (None, obstruction_degree) record of each scalar.

        Scalars equal at the working precision share one record.  Chunks
        keep the power table under _BATCH_BYTES.  Under --jobs > 1 two
        threads may solve the same scalar; the records are equal and the
        dict store is atomic, so the race costs time only.
        """
        vecs = [self._coerce_scalar(a) for a in scalars]
        todo = list(dict.fromkeys(v for v in vecs if v not in self._cache))
        entry = 8 if self.dtype is np.int64 else 40  # object: pointer and int
        chunk = max(1, _BATCH_BYTES // (self.mdeg * self.D * self.desc_w.f * entry))
        for i in range(0, len(todo), chunk):
            part = todo[i:i + chunk]
            for v, rec in zip(part, self._solve_chunk(part)):
                self._cache[v] = rec
        return [self._cache[v] for v in vecs]

    def _solve_chunk(self, vecs):
        D, m, p, d = self.D, self.m, self.desc_w.p, self.step
        desc, fpow, mdeg = self.desc_w, self.fpow, self.mdeg
        # P[i] = g^(i+1) for every scalar, so P[0] holds the series g
        P = np.zeros((mdeg, len(vecs), D, desc.f), dtype=self.dtype)
        P[0, :, 1] = vecs
        obstruction = [None] * len(vecs)
        sup = [1]  # degrees j where some g_j of the chunk may be nonzero
        for k in range(2, D if d else 2):  # d = 0: f = pX, so g = aX
            top = min(mdeg, k)
            # only the rows g^(i+1) with i + 1 = k mod d are nonzero at k
            lo = (k - 2) % d + 1
            # sums over j run on the support only; a dense one is sliced
            if len(sup) == k - 1:
                js, back = slice(1, k), slice(k - 1, 0, -1)
            else:
                js = np.array(sup)
                back = k - js
            g_low = P[0][:, js]
            if lo < top:
                # g^(i+1)[k] = sum_{0<j<k} g_j g^i[k-j]; g_k is not needed
                P[lo:top:d, :, k] = ring_mul(g_low, P[lo - 1:top - 1:d, :, back], desc, m, _sum_bj)
            if (k - 1) % d:
                continue
            fg = ring_mul(fpow[1, lo + 1:top + 1:d], P[lo:top:d, :, k], desc, m, np.matmul)
            gf = ring_mul(g_low, fpow[js, k], desc, m, np.matmul)
            defect = (fg - gf) % m
            if not defect.any():
                continue
            bad = (defect % p != 0).any(axis=1)
            for b in np.flatnonzero(bad):
                if obstruction[b] is None:
                    obstruction[b] = k
            inv = pow((pow(p, k - 1, m) - 1) % m, -1, m)
            gk = defect // p * inv % m
            gk[bad] = 0
            P[0, :, k] = gk
            if gk.any():
                sup.append(k)
        return [
            (None, obs) if obs is not None else
            (TruncSeries1(desc, D, "integral", P[0, b]).reduce_precision(self.N_out), None)
            for b, obs in enumerate(obstruction)
        ]
