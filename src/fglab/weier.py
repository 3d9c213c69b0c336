"""Weierstrass preparation and the phi-basis division algorithm.

weierstrass_prep factors f = P * U with P monic distinguished of degree d
(the first unit-coefficient index) and U a unit series, by p-digit induction.

digit_split_step writes f = sum a_i X^i + [p](X) * g + p * f1 with a_i the
Teichmuller lifts of the first q residue coefficients; the division is fixed
canonically by dividing the remainder by the prepared distinguished factor of
the [p]-series, so outputs are reproducible.

phi_basis_decompose iterates the step in the [p]-direction: components
a_0(X)..a_{q-1}(X) with f = sum_i a_i([p](X)) X^i + [p]^{D'} * remainder,
exact mod (p^N, X^D) when the remainder is kept.  Dropping the remainder
leaves a graded guarantee: the degree-t coefficient of the reconstruction
matches f mod p^{ceil((D-t)/(q-1))} (capped at N), because [p]^j carries
valuation at least (qj-t)/(q-1) at degree t.
"""

from __future__ import annotations

import numpy as np

from .padic import teichmuller_lift
from .precision import count_window, level_degree, model_window
from .series import TruncSeries1


class WeierstrassData:
    """f = P * U with P monic distinguished of degree d, U a unit series.

    The identity holds exactly mod (p^N, X^D), but a window-D truncation only
    pins down the true distinguished factor mod p^stable_digits, with
    stable_digits = ceil((D - d + 1) / d): a tail term X^T of f perturbs the
    factor coefficients by valuation >= (T - d + 1)/d.  Callers needing P at
    full precision N must supply a window D >= N*d.
    """

    __slots__ = ("desc", "d", "P", "U", "stable_digits", "_u_inv")

    def __init__(self, desc, d, P: TruncSeries1, U: TruncSeries1):
        self.desc = desc
        self.d = d
        self.P = P  # window d+1 polynomial
        self.U = U  # window of the input series
        if d > 0:
            self.stable_digits = min(desc.N, -(-(U.D - d + 1) // d))
        else:
            self.stable_digits = desc.N
        self._u_inv = None

    def P_window(self, D: int) -> TruncSeries1:
        return self.P.lift(D)

    def u_inverse(self) -> TruncSeries1:
        if self._u_inv is None:
            self._u_inv = self.U.invert_unit()
        return self._u_inv

    def product(self) -> TruncSeries1:
        return self.P_window(self.U.D) * self.U

    def __repr__(self):
        return f"WeierstrassData(d={self.d}, D={self.U.D})"


def weierstrass_prep(f: TruncSeries1, perturb: TruncSeries1 | None = None) -> WeierstrassData:
    """Digit-by-digit preparation; `perturb` (a series multiplied by p and
    added to the initial unit lift) must not change the result — uniqueness."""
    desc, D = f.desc, f.D
    p, N, m = desc.p, desc.N, desc.pN
    d = f.first_unit_index()
    if d is None:
        raise ValueError("Weierstrass degree exceeds truncation")
    if d == 0:
        P = TruncSeries1.zero(desc, 1)
        P.data[0, 0] = 1
        return WeierstrassData(desc, 0, P, f)
    # initial unit: lift of the residue of f / X^d
    U = TruncSeries1.zero(desc, D)
    U.data[: D - d] = f.data[d:] % p
    if perturb is not None:
        U = U + perturb.scalar_mul(p)
    P = TruncSeries1.zero(desc, d + 1)
    P.data[d, 0] = 1
    desc1 = desc.at_precision(1)
    ubar = TruncSeries1(desc1, D, "integral", (U.data % p).astype(U.data.dtype))
    ubar_inv = ubar.invert_unit()
    for step in range(1, N):
        err = f - P.lift(D) * U
        pm = p**step
        if not err.data.any():
            break
        if (err.data % pm).any():
            raise ArithmeticError("digit induction out of sync")
        Ebar = TruncSeries1(desc1, D, "integral", (err.data // pm % p).astype(err.data.dtype))
        t = Ebar * ubar_inv
        rho = t.data[:d] % p
        t_high = TruncSeries1.zero(desc1, D)
        t_high.data[: D - d] = t.data[d:]
        mu = (t_high * ubar).data % p
        P = TruncSeries1(desc, d + 1, "integral",
                         (P.data + pm * np.vstack([rho, np.zeros((1, desc.f), dtype=P.data.dtype)])) % m)
        U = TruncSeries1(desc, D, "integral", (U.data + pm * mu) % m)
    out = WeierstrassData(desc, d, P, U)
    if out.product() != f:
        raise ArithmeticError("preparation failed to converge")
    return out


def weierstrass_divide(f: TruncSeries1, prep: WeierstrassData):
    """f = Q * P + R with deg R < d, exact mod (p^N, X^D)."""
    desc, D = f.desc, f.D
    d = prep.d
    if d == 0:
        return f, TruncSeries1.zero(desc, max(d, 1))
    # M = X^d - P has valuation >= 1, so each pass gains a p-digit
    M = TruncSeries1.zero(desc, D)
    M.data[:d] = (-prep.P.data[:d]) % desc.pN
    Q = TruncSeries1.zero(desc, D)
    R = TruncSeries1.zero(desc, d)
    cur = f
    for _ in range(desc.N + 1):
        if cur.is_zero():
            break
        S = TruncSeries1.zero(desc, D)
        S.data[: D - d] = cur.data[d:]
        R.data[:] = (R.data + cur.data[:d]) % desc.pN
        Q = Q + S
        cur = M * S
    if not cur.is_zero():
        raise ArithmeticError("division did not terminate")
    return Q, R


class DigitSplit:
    __slots__ = ("a", "g", "f1")

    def __init__(self, a, g, f1):
        self.a = a
        self.g = g
        self.f1 = f1


def digit_split_step(f: TruncSeries1, pi_ser: TruncSeries1, q: int | None = None,
                     prep: WeierstrassData | None = None) -> DigitSplit:
    """f = sum_{i<q} a_i X^i + pi_ser * g + p * f1, canonical choice.

    a_i are the Teichmuller lifts of the first q residue coefficients and the
    division of the remainder is by the prepared distinguished factor of
    pi_ser.  f1 (degree < q) is exact after multiplying back by p; on its own
    it is a representative mod p^(N-1)."""
    desc = f.desc
    p = desc.p
    wdeg = pi_ser.first_unit_index()
    if q is None:
        q = wdeg
    if wdeg != q:
        raise ValueError("pi-series must have Weierstrass degree q")
    if prep is None:
        prep = weierstrass_prep(pi_ser)
    a = [teichmuller_lift(desc, f.data[i]) for i in range(q)]
    rem = TruncSeries1(desc, f.D, "integral", f.data.copy())
    for i, ai in enumerate(a):
        rem.data[i] = (rem.data[i] - np.array(ai.coeffs, dtype=rem.data.dtype)) % desc.pN
    Q, R = weierstrass_divide(rem, prep)
    g = Q * prep.u_inverse()
    if (R.data % p).any():
        raise ArithmeticError("low-order remainder not divisible by p")
    f1 = TruncSeries1(desc, q, "integral", R.data // p)
    return DigitSplit(a, g, f1)


class PhiDecomposition:
    """Components a_i(X) with f = sum_i a_i([p](X)) X^i + [p]^{D'} remainder."""

    __slots__ = ("components", "remainder", "q", "D_prime", "N", "D")

    def __init__(self, components, remainder, q, D_prime, N, D):
        self.components = components
        self.remainder = remainder
        self.q = q
        self.D_prime = D_prime
        self.N = N
        self.D = D


def phi_basis_decompose(f: TruncSeries1, pi_ser: TruncSeries1, q: int | None = None,
                        prep: WeierstrassData | None = None,
                        D_prime: int | None = None) -> PhiDecomposition:
    desc, D = f.desc, f.D
    wdeg = pi_ser.first_unit_index()
    if q is None:
        q = wdeg
    if wdeg != q:
        raise ValueError("pi-series must have Weierstrass degree q")
    if q < 2:
        raise ValueError("phi-basis needs q >= 2")
    if D_prime is None:
        D_prime = D // q
    if D_prime < 1:
        raise ValueError("insufficient truncation")
    if prep is None:
        prep = weierstrass_prep(pi_ser)
    u_inv = prep.u_inverse()
    alphas = [TruncSeries1.zero(desc, D_prime) for _ in range(q)]
    cur = f
    for j in range(D_prime):
        low = cur.data[:q].copy()
        high = TruncSeries1(desc, D, "integral", cur.data.copy())
        high.data[:q] = 0
        Q, R = weierstrass_divide(high, prep)
        for i in range(q):
            alphas[i].data[j] = (low[i] + R.data[i]) % desc.pN
        cur = Q * u_inv
    return PhiDecomposition(alphas, cur, q, D_prime, desc.N, D)


def phi_reconstruct(decomp: PhiDecomposition, pi_ser: TruncSeries1,
                    include_remainder: bool = True) -> TruncSeries1:
    desc = pi_ser.desc
    D = decomp.D
    pi = pi_ser if pi_ser.D == D else (pi_ser.truncate(D) if pi_ser.D > D else pi_ser.lift(D))
    out = TruncSeries1.zero(desc, D)
    for i, a in enumerate(decomp.components):
        comp = a.lift(D).compose(pi)
        out = out + comp.shift(i)
    if include_remainder:
        tail = pi.pow_trunc(decomp.D_prime) * decomp.remainder
        out = out + tail
    return out


class DivisionPolyData:
    __slots__ = ("level", "e", "P", "U", "phi")

    def __init__(self, level, e, P, U, phi):
        self.level = level
        self.e = e
        self.P = P
        self.U = U
        self.phi = phi


def division_polynomial(group, n: int, N: int | None = None) -> DivisionPolyData:
    """Distinguished factor P_n of [p^n]/[p^{n-1}], degree q^{n-1}(q-1);
    its roots are the points of exact order p^n.  The window N*e makes
    every digit of P stable (see WeierstrassData)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    q = group.q
    if q is None:
        raise ValueError("group has no finite height; no division polynomial")
    N = N if N is not None else group.desc.N
    e = level_degree(q, n)
    D = max(count_window(q, n), model_window(q, n, N))
    pi = group.pi_series(D, N)
    psi = TruncSeries1.zero(pi.desc, D)
    psi.data[: D - 1] = pi.data[1:]
    pin1 = TruncSeries1.x(pi.desc, D)
    for _ in range(n - 1):
        pin1 = pi.compose(pin1)
    phi = psi.compose(pin1) if n > 1 else psi
    if phi.first_unit_index() != e:
        raise ValueError("unexpected Weierstrass degree for the relative level")
    prep = weierstrass_prep(phi)
    return DivisionPolyData(n, e, prep.P, prep.U, phi)
