"""Weierstrass preparation and the phi-basis division algorithm.

weierstrass_prep factors f = P * U with P monic distinguished of degree d
(the first unit-coefficient index) and U a unit series, by p-digit induction
on the short factor: a digit E of f - P * U is rho * ubar + X^d * mu mod p, as
P = X^d mod p, so each product has a factor of at most d + 1 terms: O(N * D * d).

digit_split_step writes f = sum a_i X^i + [p](X) * g + p * f1 with a_i the
Teichmuller lifts of the first q residue coefficients, q the Weierstrass
degree of the [p]-series; the division is fixed canonically by dividing the
remainder by the distinguished factor of the [p]-series, so outputs are
reproducible.

phi_basis_decompose iterates the step in the [p]-direction: components
a_0(X)..a_{q-1}(X) with f = sum_i a_i([p](X)) X^i + [p]^{D'} * remainder,
D' = D // q, exact mod (p^N, X^D) when the remainder is kept.  Dropping the
remainder leaves a graded guarantee: the degree-t coefficient of the
reconstruction matches f mod p^{ceil((D-t)/(q-1))} (capped at N), because
[p]^j carries valuation at least (qj-t)/(q-1) at degree t.  Each call of
either prepares the [p]-series once and inverts its unit factor once.
"""

from __future__ import annotations

import numpy as np

from .padic import teichmuller_lift
from .precision import division_window, level_degree
from .series import TruncSeries1, _mul_data, _powers


class WeierstrassData:
    """f = P * U with P monic distinguished of degree d, U a unit series.

    The identity holds exactly mod (p^N, X^D), but a window-D truncation only
    pins down the true distinguished factor mod p^stable_digits, with
    stable_digits = ceil((D - d + 1) / d): a tail term X^T of f perturbs the
    factor coefficients by valuation >= (T - d + 1)/d.  Callers needing P at
    full precision N must supply a window D >= N*d.  U is pinned at degree
    j < D - d mod p^min(N, ceil((D - d - j) / d)) only, and not at all at its
    top d degrees, which weierstrass_prep leaves at their starting lift.
    """

    __slots__ = ("desc", "d", "P", "U", "stable_digits")

    def __init__(self, desc, d, P: TruncSeries1, U: TruncSeries1):
        self.desc = desc
        self.d = d
        self.P = P  # window d+1 polynomial
        self.U = U  # window of the input series
        self.stable_digits = min(desc.N, -(-(U.D - d + 1) // d)) if d > 0 else desc.N

    def product(self) -> TruncSeries1:
        U = self.U
        return U._new(_mul_data(self.P.data, U.data, self.desc, U.D, U._modulo()))

    def __repr__(self):
        return f"WeierstrassData(d={self.d}, D={self.U.D})"


def weierstrass_prep(f: TruncSeries1) -> WeierstrassData:
    """Digit-by-digit preparation on the short factor.  With f = P U mod p^s,
    the digit E = (f - P U) / p^s mod (p, X^D) is rho ubar + X^d mu, ubar the
    residue of U, as P = X^d mod p: rho = E ubar^-1 mod X^d, with ubar
    inverted at window d, and mu = (E - rho ubar) / X^d.  Every product of
    a digit has a factor of at most d + 1 terms, O(N D d) in all.  The
    result does not depend on the starting lift of U beyond P's stable
    digits: the factorisation is unique."""
    desc, D = f.desc, f.D
    p, N, m = desc.p, desc.N, desc.pN
    d = f.first_unit_index()
    if d is None:
        raise ValueError("Weierstrass degree exceeds truncation")
    if d == 0:
        P = TruncSeries1.from_coeffs(desc, [1])
        return WeierstrassData(desc, 0, P, f)
    # initial unit: lift of the residue of f / X^d
    U = TruncSeries1.zero(desc, D)
    U.data[: D - d] = f.data[d:] % p
    P = TruncSeries1.zero(desc, d + 1)
    P.data[d, 0] = 1
    desc1 = desc.at_precision(1)
    ubar = U.data % p
    ubar_inv = TruncSeries1(desc1, d, "integral", ubar[:d]).invert_unit().data
    for step in range(1, N):
        err = (f.data - _mul_data(P.data, U.data, desc, D, m)) % m
        pm = p**step
        if not err.any():
            break
        if (err % pm).any():
            raise ArithmeticError("digit induction out of sync")
        E = err // pm % p
        rho = _mul_data(E[:d], ubar_inv, desc1, d, p)
        mu = (E - _mul_data(rho, ubar, desc1, D, p))[d:] % p
        P.data[:d] = (P.data[:d] + pm * rho) % m
        U.data[: D - d] = (U.data[: D - d] + pm * mu) % m
    out = WeierstrassData(desc, d, P, U)
    if out.product() != f:
        raise ArithmeticError("preparation failed to converge")
    return out


def weierstrass_divide(f: TruncSeries1, prep: WeierstrassData):
    """f = Q * P + R with deg R < d, exact mod (p^N, X^D).  Each pass moves
    the part of cur at degrees >= d, S, into Q and takes cur = M S with M =
    X^d - P: M has valuation >= 1, so a pass gains a p-digit, and d rows,
    so its product is O(D d)."""
    desc, D = f.desc, f.D
    d, m = prep.d, desc.pN
    if d == 0:
        return f, TruncSeries1.zero(desc, max(d, 1))
    Q = TruncSeries1.zero(desc, D)
    R = TruncSeries1.zero(desc, d)
    M = (-prep.P.data[:d] % m).astype(Q.data.dtype)
    cur = f.data
    for _ in range(desc.N + 1):
        if not cur.any():
            break
        S = np.zeros_like(Q.data)
        S[: D - d] = cur[d:]
        R.data[:] = (R.data + cur[:d]) % m
        Q.data = (Q.data + S) % m
        cur = _mul_data(M, S, desc, D, m)
    if cur.any():
        raise ArithmeticError("division did not terminate")
    return Q, R


class DigitSplit:
    __slots__ = ("a", "g", "f1")

    def __init__(self, a, g, f1):
        self.a = a
        self.g = g
        self.f1 = f1


def digit_split_step(f: TruncSeries1, pi_ser: TruncSeries1) -> DigitSplit:
    """f = sum_{i<q} a_i X^i + pi_ser * g + p * f1, canonical choice, q the
    Weierstrass degree of pi_ser.

    a_i are the Teichmuller lifts of the first q residue coefficients and the
    division of the remainder is by the distinguished factor of pi_ser,
    prepared here.  f1 (degree < q) is exact after multiplying back by p; on
    its own it is a representative mod p^(N-1)."""
    desc = f.desc
    p = desc.p
    prep = weierstrass_prep(pi_ser)
    q = prep.d
    a = [teichmuller_lift(desc, f.data[i]) for i in range(q)]
    rem = TruncSeries1(desc, f.D, "integral", f.data.copy())
    for i, ai in enumerate(a):
        rem.data[i] = (rem.data[i] - np.array(ai.coeffs, dtype=rem.data.dtype)) % desc.pN
    Q, R = weierstrass_divide(rem, prep)
    g = Q * prep.U.invert_unit()
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


def phi_basis_decompose(f: TruncSeries1, pi_ser: TruncSeries1) -> PhiDecomposition:
    """The components of f in the phi-basis of pi_ser on D' = D // q of its
    [p]-digits, q the Weierstrass degree of pi_ser."""
    desc, D = f.desc, f.D
    q = pi_ser.first_unit_index()
    if q < 2:
        raise ValueError("phi-basis needs q >= 2")
    D_prime = D // q
    if D_prime < 1:
        raise ValueError("insufficient truncation")
    prep = weierstrass_prep(pi_ser)
    u_inv = prep.U.invert_unit()
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
        rows, den = _powers(pi, decomp.D_prime + 1)
        tail = pi._new(rows[-1], den) * decomp.remainder
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
    D = division_window(q, n, N)
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
