"""Formal group laws over unramified p-adic coefficient rings.

Each group reads one source object, its Z_p data, which states the rules
of its kind once: the height, the grading, [p] on a window, the logarithm.

* FrobeniusSeries, the source of lubin_tate_group: [p] = f = pX + ... with
  integer coefficients, f = X^q mod p, held mod the p^N it was read at;
* multiplicative_group: the Lubin-Tate group of f = (1 + X)^p - 1, whose
  law F = X + Y + XY and logarithm log(1 + X) are in closed form;
* HondaSeries, the source of honda_group: the logarithm from the
  functional equation lam(X) = X + sum_i u_i lam(X^{p^i}) / p over Z_p,
  with [p] recovered from lam([p]) = p lam by a Newton iteration carried
  out mod p^(N + jmax) (lam and [p] have Z_p coefficients by Hazewinkel's
  functional-equation lemma).  It is exact, so it serves any precision.

A source is kept in component 0 over any W(F_{p^f}), so base change
reuses it.  Lubin-Tate sources need no more: when h | f, any Frobenius
series with W(F_{p^f}) coefficients gives a group isomorphic over that
ring to the one of pX + X^q (Lubin-Tate 1965).

Both non-closed kinds get their two-variable law from one solver over Z_p,
fed by the group's own pi_series: F is the unique series X + Y + ...
commuting with [p], F(f(X), f(Y)) = f(F(X, Y)) (Lubin-Tate 1965), so it has
Z_p coefficients too.  It follows the grading of f = X u(X^d): only total
degrees k = 1 mod d are solved, each from the degree-k part of the defect
f(F) - F(f(X), f(Y)), formed by compose and substitute2_into2, divided by
p^k - p.

Module structure ([a]-series for ring scalars a) is computed by the
commutation recursion: g with linear term a and g(f(X)) = f(g(X)) is solved
one coefficient at a time, the degree-k defect divided by p^k - p.  It
follows the grading too: g = X S(X^d), so only the windows k = 1 + d t are
solved, in y = X^d, with the powers of g taken from those of S - a by the
binomial identity.  A defect that is not divisible by p certifies that no
such series exists; the degree where that happens is reported as the
obstruction.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .padic import (
    INF,
    RingDescriptor,
    UnramifiedRingElem,
    components,
    contraction_dtype,
    residues,
    ring_mul,
    root_of_unity,
    scalar_matrix,
    valuations,
)
from .precision import (
    default_precision,
    height_index,
    honda_precision,
    law_window,
    level_degree,
    solve_precision,
)
from .series import (
    TruncSeries1,
    TruncSeries2,
    _dtype_for,
    _powers,
    substitute2_into2,
)
from .weier import division_polynomial


class ObstructionError(ValueError):
    """Raised when a commutation solve hits a non-divisible defect."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"no commuting series; obstruction at degree {degree}")


class FrobeniusSeries:
    """The source of a Lubin-Tate group: a distinguished polynomial f =
    pX + ... with f = X^q mod p, q = p^h.

    Its coefficients are integers, checked and kept mod p^N of desc: Z_p
    data, so the same series serves over every W(F_{p^f}) in component 0.
    """

    def __init__(self, desc: RingDescriptor, coeffs):
        try:
            coeffs = [operator.index(c) % desc.pN for c in coeffs]
        except TypeError:
            raise ValueError("Lubin-Tate coefficients must be integers") from None
        p = desc.p
        if any(coeffs[:1]):
            raise ValueError("constant term must vanish")
        if coeffs[1:2] != [p % desc.pN]:
            raise ValueError("linear coefficient must be exactly p")
        units = [k for k, c in enumerate(coeffs) if c % p]
        if len(units) != 1:
            raise ValueError("reduction mod p must be a single power of X")
        q = units[0]
        h = height_index(q, p)
        if coeffs[q] % p != 1:
            raise ValueError("reduction mod p must equal X^q")
        self.coeffs, self.N, self.q, self.h = coeffs, desc.N, q, h
        self.grading = TruncSeries1.from_coeffs(desc, coeffs).grading()

    def at(self, desc: RingDescriptor, D: int) -> TruncSeries1:
        """f on the window D over desc, in component 0, mod at most p^N."""
        if desc.N > self.N:
            raise ValueError("construct the group at higher precision first")
        return TruncSeries1.from_coeffs(desc, self.coeffs, D)

    def log(self, desc: RingDescriptor, D: int) -> TruncSeries1:
        """The logarithm, exact.  The integer coefficients define the group
        exactly, so log(f(X)) = p log(X) determines the coefficients by an
        exact rational recursion: b_n = [X^n](sum_{k<n} b_k f^k) / (p - p^n)."""
        p = desc.p
        fx = TruncSeries1.from_coeffs(desc, self.coeffs, D, "scaled")
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


def solve_equivariant_group_law(f_ser: TruncSeries1, D2: int, N: int) -> TruncSeries2:
    """The unique F = X + Y + ... with F(f(X), f(Y)) = f(F(X, Y)).

    With F known below degree k, the degree-k part of the defect
    f(F) - F(f(X), f(Y)) is (p^k - p) F_k.  With d = gcd{j - 1 : f_j != 0}
    the defect lives on total degrees = 1 mod d, so only those degrees are
    solved; d = 0 (f = pX) leaves F = X + Y.  Degree k needs only row k of
    the defect, so step k evaluates it on the window k + 1.  Works mod the
    precision of f_ser, which carries a cushion of digits above N for the
    divisions by p^k - p; equivariance is checked mod p^N on the full
    window.
    """
    desc = f_ser.desc
    p, m = desc.p, desc.pN
    f2 = f_ser.lift(D2) if f_ser.D < D2 else f_ser.truncate(D2)
    d = f2.grading()
    F = TruncSeries2.from_triples(desc, [(1, 0, 1), (0, 1, 1)], D2)

    def defect(f, G):
        return (f.compose(G) - substitute2_into2(G, f, f)).data

    for k in range(1 + d, D2, d) if d else ():
        # the degree-k part: row k of the series data
        part = defect(f2.truncate(k + 1), _narrow(F, k + 1, desc.N))[k]
        if (part % p).any():
            raise ObstructionError(k, f"group law solve obstructed at degree {k}")
        F.data[k, :k + 1] = part // p * pow((pow(p, k - 1, m) - 1) % m, -1, m) % m
    if (defect(f2, F) % p**N).any():
        raise ArithmeticError("equivariance failed")
    return F


def _narrow(s, D: int, N: int):
    """A one- or two-variable integral series on the window D at precision
    N, with the dtype a fresh build there has."""
    desc = s.desc.at_precision(N)
    data = s.data[(slice(D),) * (s.data.ndim - 1)] % desc.pN
    return type(s)(desc, D, "integral", data.astype(_dtype_for(desc, D, "integral")))


def series_of(records) -> list:
    """The series of (series, obstruction) records; the first obstructed
    record raises its ObstructionError."""
    for _, obs in records:
        if obs is not None:
            raise ObstructionError(obs)
    return [ser for ser, _ in records]


def _serve(cache: dict, D: int, N: int, build, narrow=_narrow):
    """cache[(D, N)]: built on a miss, unless some cached (D0 >= D, N0 >= N)
    serves it by narrow(artifact, D, N), truncation and reduction; the
    module structures pass the identity, as a structure serves every window
    it covers as it is."""
    out = cache.get((D, N))
    if out is None:
        wider = [k for k in cache if k[0] >= D and k[1] >= N]
        out = narrow(cache[min(wider)], D, N) if wider else build()
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
    lam = TruncSeries1.from_coeffs(out_desc, honda_log_coeffs(p, u, D), D, "scaled")
    # lam has p-power denominators only, so its den is p^jmax and its
    # numerators are lam * p^jmax
    jmax = int(valuations(lam.den, p, lam.den.bit_length()))
    desc = RingDescriptor(p, 1, honda_precision(out_desc.N, jmax))
    L = TruncSeries1.zero(desc, D)
    L.data[:, 0] = lam.data[:, 0] % desc.pN
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


class HondaSeries:
    """The functional equation lam = X + sum_i u_i lam(X^{p^i}) / p: the
    source of a honda group, exact Z_p data, so it serves any precision."""

    def __init__(self, p: int, u):
        self.p = p
        try:
            self.u = u = tuple(operator.index(x) for x in u)
        except TypeError:
            raise ValueError("honda coefficients u_i must be integers") from None
        self.h = next((i for i, ui in enumerate(u, start=1) if ui % p), INF)
        self.grading = math.gcd(*(p**i - 1 for i, ui in enumerate(u, start=1) if ui))

    def at(self, desc: RingDescriptor, D: int) -> TruncSeries1:
        """[p] on the window D over desc, in component 0, mod p^N of desc."""
        return _honda_pi_series(desc, self.u, D)

    def log(self, desc: RingDescriptor, D: int) -> TruncSeries1:
        return TruncSeries1.from_coeffs(desc, honda_log_coeffs(self.p, self.u, D), D, "scaled")


# --------------------------------------------------------------- the group

class FormalGroupLaw:
    """A one-dimensional formal group law with its coefficient-ring action.

    kind is gm, lubin_tate or honda; source, its Z_p data, answers the
    height, grading, [p]-series and logarithm, and only gm's closed-form law
    and logarithm read the kind.  base_change keeps both over a larger ring.
    Heavy artifacts (the [p]-series at a degree window, the two-variable
    law, division factors, module structures) are built on demand and
    cached at their (window, precision); each serves every narrower, less
    precise request by truncation and reduction, so a caller that opens the
    widest first builds each one once.
    """

    def __init__(self, desc, kind, label, source):
        self.desc = desc
        self.kind = kind
        self.label = label
        self.source = source
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
        return self.source.h

    @property
    def q(self):
        """p^height, or None for infinite height."""
        return None if self.height == INF else self.desc.p**self.height

    @property
    def grading(self) -> int:
        """d with [p] = X u(X^d), from the source: gcd{j - 1} over the
        support of the Frobenius series, gcd{p^i - 1 : u_i != 0} for honda
        (0 for u = ()).  The [p]-series on a window may look more coarsely
        graded: ModuleStructure.step is the grading of its own window."""
        return self.source.grading

    @property
    def q_eff(self) -> int:
        return self.q if self.q else self.desc.p

    def __repr__(self):
        return f"FormalGroupLaw({self.label}, p={self.desc.p}, f={self.desc.f}, h={self.height})"

    # ---------------------------------------------------------- [p]-series
    def pi_series(self, D: int, N: int | None = None) -> TruncSeries1:
        N = self.desc.N if N is None else N
        if self.q is not None and D <= self.q:
            raise ValueError("window must exceed the height index")
        return _serve(self._pi_cache, D, N, lambda: self._build_pi_series(D, N))

    def _build_pi_series(self, D: int, N: int) -> TruncSeries1:
        out = self.source.at(self.desc.at_precision(N), D)
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
        N_work = solve_precision(N, W, self.q_eff)
        # [p] has Z_p coefficients, so F is fixed by Frobenius: solve over Z_p
        zp = RingDescriptor(self.desc.p, 1, N_work)
        pi = self.pi_series(W, N_work).data[:, :1]
        f_work = TruncSeries1(zp, W, "integral", pi.astype(_dtype_for(zp, W, "integral")))
        out = TruncSeries2.zero(self.desc.at_precision(N), D2)
        out.data[..., 0] = _narrow(solve_equivariant_group_law(f_work, W, N), D2, N).data[..., 0]
        return out

    # ------------------------------------------------------------ logarithm
    def logarithm(self, D: int) -> TruncSeries1:
        if D not in self._log_cache:
            if self.kind == "gm":
                coeffs = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, D)]
                self._log_cache[D] = TruncSeries1.from_coeffs(self.desc, coeffs, D, "scaled")
            else:
                self._log_cache[D] = self.source.log(self.desc, D)
        return self._log_cache[D]

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
        """The [a]-series solver covering the window D mod p^N_out: the
        cached structure at some (D0 >= D, N0 >= N_out) where there is one,
        else one built at (D, N_out).  Its records are on its own window;
        multiplications narrows them to the one asked for."""
        # a structure keeps no reference back to the group: a cycle would
        # hold both, and their tables, until the cyclic collector runs
        return _serve(self._module_cache, D, N_out, lambda: ModuleStructure(self, D, N_out),
                      lambda module, D, N: module)

    def multiplications(self, scalars, D: int, N: int | None = None) -> list:
        """The (series, None) or (None, obstruction_degree) record of [a] on
        the window D mod p^N for each scalar, from one solve_batch on the
        structure that covers (D, N).  The [a]-series mod (p^N, X^D) is
        unique, so a wider, more precise record narrows to it, and a record
        obstructed at k >= D to the series solved below k, as a solve on
        this window finds no obstruction.  A ring element below the
        structure's working precision is read at this window's solve
        precision, as a structure built here reads it."""
        N = default_precision(self.desc.N, D, self.q_eff) if N is None else N
        module = self.module(D, N)
        desc = self.desc.at_precision(solve_precision(N, D, self.q_eff))
        asked = [module._coerce_scalar(a, desc)
                 if isinstance(a, UnramifiedRingElem) and a.desc.N < module.desc_w.N else a
                 for a in scalars]
        # on the structure's own key its records serve as they are: a copy
        # of each would cost time and memory at the widest windows
        own = (module.D, module.N_out) == (D, N)
        out = []
        for a, (ser, obs) in zip(asked, module.solve_batch(asked)):
            if obs is not None and obs >= D:
                ser, obs = module._below[module._coerce_scalar(a)], None
            out.append((ser if own or ser is None else _narrow(ser, D, N), obs))
        return out

    def multiplication_by(self, a, D: int, N: int | None = None) -> TruncSeries1:
        return series_of(self.multiplications([a], D, N))[0]

    def negation_series(self, D: int, N: int | None = None) -> TruncSeries1:
        return self.multiplication_by(-1, D, N)

    # --------------------------------------------------------- base change
    def base_change(self, f_new: int) -> "FormalGroupLaw":
        """The same group over the unramified extension with residue degree
        f_new (a multiple of the current one).  Its source is Z_p data, so
        it is reused over the larger ring."""
        if f_new % self.desc.f:
            raise ValueError("target residue degree must be a multiple of the current one")
        if f_new == self.desc.f:
            return self
        dst = RingDescriptor(self.desc.p, f_new, self.desc.N)
        label = f"{self.label}@f={f_new}"
        return FormalGroupLaw(dst, self.kind, label, self.source)


def multiplicative_group(desc: RingDescriptor, label: str | None = None) -> FormalGroupLaw:
    """G_m, the Lubin-Tate group of [p] = (1 + X)^p - 1."""
    p = desc.p
    frob = FrobeniusSeries(desc, [0] + [math.comb(p, k) for k in range(1, p + 1)])
    return FormalGroupLaw(desc, "gm", label or f"gm(p={p},f={desc.f})", frob)


def lubin_tate_group(desc: RingDescriptor, coeffs, label: str | None = None) -> FormalGroupLaw:
    frob = FrobeniusSeries(desc, coeffs)
    return FormalGroupLaw(desc, "lubin_tate",
                          label or f"lt(p={desc.p},f={desc.f},q={frob.q})", frob)


def honda_group(desc: RingDescriptor, u, label: str | None = None) -> FormalGroupLaw:
    source = HondaSeries(desc.p, u)
    return FormalGroupLaw(desc, "honda", label or f"honda(p={desc.p},u={source.u})", source)


# -------------------------------------------------------- module structure

# The E table of one solver chunk stays under this many bytes.
_BATCH_BYTES = 1 << 20


# (x, y) -> sum_j x[j, b] * y[i, j, b] for every (i, b)
_sum_jb = functools.partial(np.einsum, "jb,ijb->ib")
# (x, y) -> sum_l x[l, s, b] * y[l, s, b] for every (s, b)
_sum_l = functools.partial(np.einsum, "lsb,lsb->sb")


class ModuleStructure:
    """[a]-series solver for one group at a fixed degree window and output
    precision, working with a digit cushion over N_out.  Every scalar obeys
    the same recurrence, so solve_batch runs many scalars through one pass
    over a table of powers of f built once for the window.

    The solve runs in y = X^d, d = gcd{j - 1 : f_j != 0}: f = X u(y), and
    both sides of g(f) = f(g) vanish off the degrees k = 1 + d t, so g =
    X S(y), S(0) = a, is solved on the Tn = (D - 2) // d + 1 windows k < D.
    The degree-k defect sum_{s>=1} u_s [y^(t-s)] S^(1+ds) - sum_{j<t} S_j
    fpow[j, t] is (p^k - p) S_t, where fpow[j, t] = [y^t] y^j u^(1+dj) is
    f^(1+dj) on the grid, a Tn x Tn table.  The powers of S come from E_l =
    (S - a)^l, l <= L = min(mdeg, Tn - 2), by the binomial identity S^m =
    sum_l C(m, l) a^(m-l) E_l.  E_l has no constant term, so E_l at t takes
    E_(l-1) only below t: the rows E_2 .. E_L at one window are one
    contraction, with no chain through them.  A window is three
    contractions: those rows, f(g) over (s, l) with K = u_s C(m, l) a^(m-l)
    per scalar, and g(f) over fpow.

    The grading makes the scalars come in orbits.  For zeta in mu_g,
    g = gcd(d, p^f - 1), f(zeta X) = zeta f(X), so zeta [a] commutes with f
    and has linear term zeta a: the solution is unique, so [zeta a] =
    zeta [a] (Lubin-Tate 1965), and zeta a obstructs at the degree where a
    does, its defects being zeta times those of a.  solve_batch solves one
    scalar per mu_g-orbit and turns it into the others.  d = 0 (f = pX)
    takes g = 1, and [a] = aX.

    One structure serves every window and precision it covers:
    FormalGroupLaw.multiplications narrows its records, and for that an
    obstructed scalar keeps the series solved below its obstruction degree
    in _below."""

    def __init__(self, group: FormalGroupLaw, D: int, N_out: int):
        self.D = D
        self.N_out = N_out
        self.q = group.q_eff
        N_work = solve_precision(N_out, D, self.q)
        if N_work > group.desc.N:
            raise ValueError("construct the group at higher precision first")
        self.desc_w = desc = group.desc.at_precision(N_work)
        self.m = m = desc.pN
        fs = group.pi_series(D, N_work)
        # every contraction of the solver sums at most D products
        self.dtype = contraction_dtype(D, desc)
        self.f_nz = fs.nonzero_degrees()
        self.mdeg = self.f_nz[-1]
        self.step = d = fs.grading()  # 0 when f = pX
        # u on the windows t, degrees 1 + d t < D (t = 0 only when d = 0),
        # and fpow[j] = y^j u^(1+dj) = u (y u^d)^j
        rows = fs.data[1::d or D].copy()
        self.Tn = Tn = len(rows)
        u = TruncSeries1(desc, Tn, "integral", rows)
        yud = np.zeros_like(rows)
        yud[1:] = functools.reduce(operator.mul, [u] * max(d, 1)).data[:-1]
        self.fpow = _powers(TruncSeries1(desc, Tn, "integral", yud), Tn, first=u)[0]
        # E_l at the windows t - s < Tn - 1 vanishes for l > t - s: rows E_0
        # .. E_L, and E_1 = S - a always
        self.L = L = max(1, min(self.mdeg, Tn - 2))
        # the s >= 1 of u's support, m_s = 1 + d s, and K's factors
        # u_s C(m_s, l) and m_s - l, for l <= L
        ms = np.array(self.f_nz[1:], dtype=object)
        self.us = ((ms - 1) // (d or 1)).astype(np.intp)
        self._expo = np.maximum(ms - np.arange(L + 1)[:, None], 0).astype(np.intp)
        binom = [np.ones(len(ms), dtype=object)]
        for l in range(1, L + 1):
            binom.append(binom[-1] * (ms - l + 1) // l)
        coef = np.array(binom)[:, :, None] % m * fs.data[self.f_nz[1:]] % m
        self._coef = coef[:, :, None].astype(self.dtype)
        self._cache = {}
        self._below = {}  # obstructed vector -> its series, right below the obstruction
        # mu_g = {eta^k}, eta its canonical generator; the inverse of eta^k
        # as a scalar matrix, to find where a vector sits in its orbit
        g = math.gcd(d, desc.q - 1) if d else 1
        eta = root_of_unity(group.desc, g)
        self._mu = [(eta**k).coeffs for k in range(g)]
        self._mu_inv = [scalar_matrix(self._mu[-k], desc, m) for k in range(g)]
        self._orbits = {}  # orbit key -> (k, series, obstruction) of eta^k key

    def _coerce_scalar(self, a, desc=None):
        """The vector mod p^N of a scalar read at the working precision, or
        at that of desc: the key its record is filed under."""
        desc = desc or self.desc_w
        vec = components(a, desc)
        if isinstance(a, UnramifiedRingElem) and a.desc.N < desc.N:
            raise ValueError("scalar needs at least the working precision")
        return tuple(residues(vec, desc))

    def try_multiplication(self, a):
        """Returns (series, None) or (None, obstruction_degree)."""
        return self.solve_batch([a])[0]

    def _orbit(self, v):
        """(key, k) with v = eta^k key: the key is the least of the
        vectors eta^-k v, the same for every vector of the mu_g-orbit."""
        m = self.m
        turns = [tuple(sum(x * s for x, s in zip(v, col)) % m for col in zip(*S))
                 for S in self._mu_inv]
        key = min(turns)
        return key, turns.index(key)

    def solve_batch(self, scalars):
        """Solve every scalar not yet in the cache, together; returns the
        (series, None) or (None, obstruction_degree) record of each scalar.

        Scalars equal at the working precision share one record.  Only the
        first scalar seen of each mu_g-orbit is solved; every other one is
        eta^k times its record, within the batch and across calls.  Chunks
        keep the E table under _BATCH_BYTES.
        """
        vecs = [self._coerce_scalar(a) for a in scalars]
        orbit = {v: self._orbit(v) for v in vecs if v not in self._cache}
        todo = {}  # orbit key -> first scalar seen, for orbits not solved yet
        for v, (key, _) in orbit.items():
            if key not in self._orbits:
                todo.setdefault(key, v)
        todo = list(todo.values())
        entry = 8 if self.dtype is np.int64 else 40  # object: pointer and int
        chunk = max(1, _BATCH_BYTES // ((self.L + 1) * self.Tn * self.desc_w.f * entry))
        for i in range(0, len(todo), chunk):
            part = todo[i:i + chunk]
            for v, (ser, obs) in zip(part, self._solve_chunk(part)):
                key, k = orbit[v]
                self._orbits[key] = (k, ser, obs)
        for v, (key, k) in orbit.items():
            k0, ser, obs = self._orbits[key]
            if k != k0:
                ser = ser.scalar_mul(self._mu[(k - k0) % len(self._mu)])
            if obs is not None:
                self._below[v] = ser
            self._cache[v] = (ser, None) if obs is None else (None, obs)
        return [self._cache[v] for v in vecs]

    def _solve_chunk(self, vecs):
        D, m, p, d = self.D, self.m, self.desc_w.p, self.step
        desc, fpow, us, Tn, L = self.desc_w, self.fpow, self.us, self.Tn, self.L
        # S[t] = g_(1+dt) and E[l, t] = [y^t] (S - a)^l, for every scalar
        S = np.zeros((Tn, len(vecs), desc.f), dtype=self.dtype)
        S[0] = vecs
        E = np.zeros((L + 1,) + S.shape, dtype=self.dtype)
        E[0, 0, :, 0] = 1
        # K[l, i] = u_s C(m_s, l) a^(m_s - l), s = us[i], from a^0 .. a^mdeg:
        # a^(n-1) times a^1 .. a^(n-1) gives a^n .. a^(2n-2)
        A = np.zeros((self.mdeg + 1,) + S.shape[1:], dtype=self.dtype)
        A[0, :, 0], A[1], n = 1, S[0], 2
        while n <= self.mdeg:
            hi = min(2 * n - 1, self.mdeg + 1)
            A[n:hi] = ring_mul(A[n - 1:n], A[1:hi - n + 1], desc, m, np.multiply)
            n = hi
        K = ring_mul(self._coef, A[self._expo], desc, m, np.multiply)
        obstruction = [None] * len(vecs)
        for t in range(1, Tn):
            k = 1 + d * t
            top = min(L, t - 1)
            if top >= 2:
                # E_l at t - 1: sum_{0<j<t-1} S_j E_(l-1)[t-1-j], for 2 <= l <= top
                E[2:top + 1, t - 1] = ring_mul(S[1:t - 1], E[1:top, t - 2:0:-1], desc, m, _sum_jb)
            # f(g): sum over s <= t of the reduced sums over l of K[l, s] E_l[t - s]
            fg = 0
            ns = int(np.searchsorted(us, t, side="right"))
            if ns:
                lt = min(L, t - int(us[0]))
                fg = ring_mul(K[:lt + 1, :ns], E[:lt + 1, t - us[:ns]], desc, m, _sum_l).sum(0)
            # g(f): sum_{j<t} S_j fpow[j, t]
            gf = ring_mul(fpow[:t, t], S[:t], desc, m, np.matmul)
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
            S[t] = E[1, t] = gk
        g = np.zeros((len(vecs), D, desc.f), dtype=self.dtype)
        g[:, 1::d or D] = S.swapaxes(0, 1)
        # (series, obstruction): an obstructed series is right below its degree
        return [(TruncSeries1(desc, D, "integral", g[b]).reduce_precision(self.N_out), obs)
                for b, obs in enumerate(obstruction)]
