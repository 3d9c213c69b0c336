import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fglab
from fglab.corpus import CORPUS_SPECS, make_group
from fglab.padic import INF, RingDescriptor, _vec_mulmod, teichmuller_lift
from fglab.precision import cushion, floor_log, law_precision
from fglab.series import TruncSeries1, TruncSeries2, substitute2_into2
from fglab.groups import (
    FrobeniusSeries,
    HondaSeries,
    ObstructionError,
    honda_group,
    lubin_tate_group,
    multiplicative_group,
)
from test_exact_oracle import element_from_rationals
from test_law_solve import inject_x, inject_y


def gm(p=3, N=10):
    return multiplicative_group(RingDescriptor(p, 1, N))


def lt_h1(p=3, N=12):
    d = RingDescriptor(p, 1, N)
    return lubin_tate_group(d, [0, p] + [0] * (p - 2) + [1])


def lt_h2(N=14):
    # f = 3X + X^9 over W(F_9)
    d = RingDescriptor(3, 2, N)
    coeffs = [0, 3, 0, 0, 0, 0, 0, 0, 0, 1]
    return lubin_tate_group(d, coeffs)


def honda_h2(N=14):
    return honda_group(RingDescriptor(3, 1, N), (0, 1))


# ------------------------------------------------------------ construction

def test_frobenius_validation():
    d = RingDescriptor(3, 1, 6)
    FrobeniusSeries(d, [0, 3, 0, 1])  # 3X + X^3
    with pytest.raises(ValueError):
        FrobeniusSeries(d, [0, 1, 0, 1])  # linear term not p
    with pytest.raises(ValueError):
        FrobeniusSeries(d, [0, 3, 1, 1])  # unit at non-power index 2... two units
    with pytest.raises(ValueError):
        FrobeniusSeries(d, [0, 3, 0, 2])  # residue 2X^3, not X^3
    with pytest.raises(ValueError):
        FrobeniusSeries(d, [1, 3, 0, 1])  # constant term


def test_lubin_tate_coefficients_are_integers():
    d = RingDescriptor(3, 2, 6)
    good = [0, 3] + [0] * 7 + [1]  # 3X + X^9
    assert FrobeniusSeries(d, good).coeffs == good
    for bad in ((3, 0), [3, 0], Fraction(3), d.from_int(3)):
        coeffs = [0, bad] + good[2:]
        with pytest.raises(ValueError, match="integers"):
            FrobeniusSeries(d, coeffs)
        with pytest.raises(ValueError, match="integers"):
            lubin_tate_group(d, coeffs)


def test_honda_coefficients_are_integers():
    # a non-integer u_i is refused, not truncated to the group of int(u_i)
    d = RingDescriptor(3, 1, 8)
    assert honda_group(d, (0, np.int64(1))).label == honda_group(d, (0, 1)).label
    for bad in (1.7, Fraction(1, 2), Fraction(1), "1"):
        with pytest.raises(ValueError, match="integers"):
            honda_group(d, (0, bad))
        with pytest.raises(ValueError, match="integers"):
            HondaSeries(3, (0, bad))


def test_lubin_tate_first_coefficients():
    # degree-2 part vanishes, degree-3 part is 8(X^2 Y + X Y^2) mod 9
    g = lt_h1(3, N=10)
    F = g.group_law2(4, N=2)
    assert F.coefficient(1, 1).coeffs[0] == 0
    assert F.coefficient(2, 0).coeffs[0] == 0
    assert F.coefficient(2, 1).coeffs[0] == 8
    assert F.coefficient(1, 2).coeffs[0] == 8
    assert F.coefficient(3, 0).coeffs[0] == 0


def test_multiplicative_group_closed_form():
    g = gm()
    F = g.group_law2(6, N=8)
    assert sorted(F.coeff_triples()) == [(0, 1, (1,)), (1, 0, (1,)), (1, 1, (1,))]
    pi = g.pi_series(6, 8)
    assert [int(v[0]) for v in pi.data] == [0, 3, 3, 1, 0, 0]


def oracle_gm_pi_series(group, D, N):
    """[p] of G_m written term by term: (1 + X)^p - 1, the binomials C(p, k)
    in component 0 mod p^N."""
    desc = group.desc.at_precision(N)
    out = TruncSeries1.zero(desc, D)
    for k in range(1, min(desc.p, D - 1) + 1):
        out.data[k, 0] = math.comb(desc.p, k) % desc.pN
    return out


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_gm_pi_series_is_the_binomial_series(p, f):
    # G_m takes the Frobenius-series route of the Lubin-Tate groups
    g = multiplicative_group(RingDescriptor(p, f, 10))
    assert (g.height, g.grading, g.kind) == (1, 1, "gm")
    for D, N in ((p + 1, 10), (p + 2, 3), (2 * p + 5, 7), (40, 1), (12 * p, 10)):
        assert g.pi_series(D, N) == oracle_gm_pi_series(g, D, N)
    # at N = 1 the linear coefficient p reads as 0, and the group still builds
    g1 = multiplicative_group(RingDescriptor(p, f, 1))
    assert g1.pi_series(p + 3) == oracle_gm_pi_series(g1, p + 3, 1)


def test_heights():
    assert gm().height == 1
    assert lt_h1(3).height == 1
    assert lt_h1(5).height == 1
    assert lt_h2().height == 2
    assert honda_h2().height == 2
    # the height read off the first unit coefficient of [p]
    for g in (gm(), lt_h2(), honda_h2()):
        assert g.pi_series(3**3 + 2, 4).first_unit_index() == 3**g.height


def test_additive_honda_group():
    g = honda_group(RingDescriptor(3, 1, 8), ())
    assert g.height == INF
    F = g.group_law2(6, N=6)
    assert sorted(F.coeff_triples()) == [(0, 1, (1,)), (1, 0, (1,))]
    assert g.multiplication_by(5, 6, 4).nonzero_degrees() == [1]


def test_honda_logarithm_and_pi():
    g = honda_h2()
    lam = g.logarithm(85)
    for k in range(85):
        expect = Fraction(0)
        if k == 1:
            expect = Fraction(1)
        elif k == 9:
            expect = Fraction(1, 3)
        elif k == 81:
            expect = Fraction(1, 9)
        assert lam.coeff_vec(k)[0] == expect
    pi = g.pi_series(20)
    # lam([3](X)) = 3 lam(X): check through the exact logarithm
    got = lam.truncate(20).compose(pi.to_scaled())
    for k in range(20):
        diff = got.coeff_vec(k)[0] - 3 * lam.coeff_vec(k)[0]
        if diff:
            num = diff.numerator
            v = 0
            while num % 3 == 0:
                num //= 3
                v += 1
            assert v - _vp_den(diff, 3) >= 8
    assert pi.first_unit_index() == 9


def _vp_den(x: Fraction, p: int) -> int:
    den = x.denominator
    v = 0
    while den % p == 0:
        den //= p
        v += 1
    return v


def test_honda_u1_integral_height_one():
    g = honda_group(RingDescriptor(3, 1, 10), (1,))
    lam = g.logarithm(30)
    assert lam.coeff_vec(3)[0] == Fraction(1, 3)
    assert lam.coeff_vec(9)[0] == Fraction(1, 9)
    assert g.height == 1
    pi = g.pi_series(12, 6)
    assert pi.first_unit_index() == 3
    # group law integral (construction would raise otherwise)
    F = g.group_law2(10, N=6)
    assert F.coefficient(1, 1).coeffs[0] != 0 or F.coefficient(2, 1).coeffs[0] != 0


# (p, u, D, N) on which the solve at N + jmax digits is checked
HONDA_GRID = [
    (3, (1,), 216, 12), (3, (0, 1), 300, 8), (3, (1, 1), 120, 10), (3, (2, 1), 100, 6),
    (3, (0, 0, 1), 300, 6), (5, (1,), 150, 8), (5, (0, 1), 300, 6), (5, (1, 1), 60, 12),
]


@pytest.mark.parametrize("p,u,D,N", HONDA_GRID)
def test_honda_pi_series_at_n_plus_jmax_digits(p, u, D, N, monkeypatch):
    from fglab import groups
    out_desc = RingDescriptor(p, 1, N)
    got = groups._honda_pi_series(out_desc, u, D)

    def doubling_rule(N_out, jmax):
        # the rule it replaced: 2 jmax digits for each of ceil(log2 D) doublings
        return N_out + 2 * jmax * (D - 1).bit_length() + jmax + 2

    monkeypatch.setattr(groups, "honda_precision", doubling_rule)
    assert got == groups._honda_pi_series(out_desc, u, D)


def test_honda_pi_series_solve_fits_int64(monkeypatch):
    # jmax = 4 at D = 216: 16 digits, where the doubling rule asked for 82
    from fglab import groups
    dtypes = []
    compose = TruncSeries1.compose
    monkeypatch.setattr(TruncSeries1, "compose",
                        lambda self, g: dtypes.append(self.data.dtype) or compose(self, g))
    groups._honda_pi_series(RingDescriptor(3, 1, 12), (1,), 216)
    assert dtypes and all(dt == np.int64 for dt in dtypes)


# ------------------------------------------- group axioms (test oracle)
# Identity, commutativity and associativity on explicit windows, over
# dicts of (i, j, k) -> coefficient vector: a substitution route that
# shares no code with the series kernels.

def _poly3_mul(A: dict, B: dict, desc, m, D3):
    out = {}
    for (i1, j1, k1), v1 in A.items():
        for (i2, j2, k2), v2 in B.items():
            i, j, k = i1 + i2, j1 + j2, k1 + k2
            if i + j + k >= D3:
                continue
            w = _vec_mulmod(v1, v2, desc, m)
            key = (i, j, k)
            if key in out:
                out[key] = tuple((x + y) % m for x, y in zip(out[key], w))
            else:
                out[key] = tuple(x % m for x in w)
    return {kk: v for kk, v in out.items() if any(v)}


def _compose2_into3(F: TruncSeries2, G: dict, H: dict, D3: int):
    desc = F.desc
    m = desc.pN
    one = {(0, 0, 0): (1,) + (0,) * (desc.f - 1)}
    Gp = [one]
    Hp = [one]
    for _ in range(1, D3):
        Gp.append(_poly3_mul(Gp[-1], G, desc, m, D3))
        Hp.append(_poly3_mul(Hp[-1], H, desc, m, D3))
    out: dict = {}
    grid = F.grid()
    for i in range(min(F.D, D3)):
        for j in range(min(F.D - i, D3)):
            vec = tuple(int(v) % m for v in grid[i, j])
            if not any(vec):
                continue
            term = _poly3_mul(Gp[i], Hp[j], desc, m, D3)
            for key, v in term.items():
                w = _vec_mulmod(v, vec, desc, m)
                if key in out:
                    out[key] = tuple((x + y) % m for x, y in zip(out[key], w))
                else:
                    out[key] = w
    return {kk: v for kk, v in out.items() if any(v)}


def check_group_axioms(group, D2: int | None = None, D3: int | None = None,
                       N: int | None = None):
    """Identity, commutativity, associativity on explicit windows; raises on
    failure."""
    q = group.q_eff
    D2 = D2 if D2 is not None else max(q + 4, 12)
    D3 = D3 if D3 is not None else max(q + 3, 6)
    F = group.group_law2(D2, N)
    x = TruncSeries1.x(F.desc, D2)
    grid = F.grid()
    if not (grid[:, 0] == x.data).all():
        raise AssertionError("F(X, 0) != X")
    if not (grid[0, :] == x.data).all():
        raise AssertionError("F(0, Y) != Y")
    if not (grid.swapaxes(0, 1) == grid).all():
        raise AssertionError("F not commutative")
    desc = F.desc
    m = desc.pN
    one = (1,) + (0,) * (desc.f - 1)
    X3 = {(1, 0, 0): one}
    Y3 = {(0, 1, 0): one}
    Z3 = {(0, 0, 1): one}
    Fxy = _compose2_into3(F, X3, Y3, D3)
    Fyz = _compose2_into3(F, Y3, Z3, D3)
    left = _compose2_into3(F, Fxy, Z3, D3)
    right = _compose2_into3(F, X3, Fyz, D3)
    if left != right:
        raise AssertionError("F not associative")
    return True


def test_axioms_all_groups():
    check_group_axioms(gm())
    check_group_axioms(lt_h1(3))
    check_group_axioms(lt_h1(5, N=10))
    check_group_axioms(honda_group(RingDescriptor(3, 1, 10), (1,)))


@pytest.mark.slow
def test_axioms_height_two():
    check_group_axioms(lt_h2())
    check_group_axioms(honda_h2())


# --------------------------------------------------------- module structure

def substitute2(F: TruncSeries2, g: TruncSeries1, h: TruncSeries1) -> TruncSeries1:
    """F(g(X), h(X)): the anti-diagonal sums of substitute2_into2(F, g, h)."""
    R = substitute2_into2(F, g, h).grid()
    out = TruncSeries1.zero(F.desc, F.D, F.domain)
    for i in range(F.D):
        out.data[i:] += R[i, : F.D - i]
    if F.domain == "integral":
        out.data %= F.desc.pN
    return out


def test_gm_module_matches_binomial():
    g = gm(3, 10)
    for a in (2, 3, 5, -1):
        ser = g.multiplication_by(a, 10, 6)
        # (1+X)^a - 1 mod X^10
        m = 3**6
        acc = [0] * 10
        c = 1
        for k in range(1, 10):
            c = c * (a - k + 1) // k
            acc[k] = c % m
        assert [int(v[0]) for v in ser.data] == acc


def test_gm_hand_recursion_value():
    # [2] for the multiplicative group: degree-2 defect (12-6)/(9-3) = 1
    g = gm(3, 10)
    ser = g.multiplication_by(2, 4, 6)
    assert [int(v[0]) for v in ser.data] == [0, 2, 1, 0]


def test_module_p_recovers_pi():
    for g, D in [(gm(3, 10), 8), (lt_h1(3), 12), (lt_h2(), 14), (honda_h2(), 14)]:
        ser = g.multiplication_by(g.desc.p, D, 6)
        assert ser == g.pi_series(D, 6)


def test_module_composition_law():
    g = lt_h1(3)
    D, N = 12, 6
    a, b = 2, 5
    sa = g.multiplication_by(a, D, N)
    sb = g.multiplication_by(b, D, N)
    sab = g.multiplication_by(a * b, D, N)
    assert sa.compose(sb) == sab
    assert sb.compose(sa) == sab


def test_module_addition_law():
    g = lt_h1(3, N=14)
    D, N = 10, 6
    sa = g.multiplication_by(2, D, N)
    sb = g.multiplication_by(3, D, N)
    ssum = g.multiplication_by(5, D, N)
    F = g.group_law2(D, N)
    assert substitute2(F, sa, sb) == ssum


def test_module_linearity_random(subtests=None):
    rng = random.Random(7)
    g = lt_h2()
    D, N = 12, 5
    for _ in range(3):
        a = rng.randrange(3**5)
        b = rng.randrange(3**5)
        sa = g.multiplication_by(a, D, N)
        sb = g.multiplication_by(b, D, N)
        F = g.group_law2(D, N)
        assert substitute2(F, sa, sb) == g.multiplication_by(a + b, D, N)


def test_teichmuller_scalar_exact_linear_honda():
    # [z] = zX exactly for z in the Teichmuller lift of the residue field
    # of the height-two honda group base-changed to W(F_9)
    g = honda_h2().base_change(2)
    d = g.desc
    m = g.module(20, 8)
    z = teichmuller_lift(m.desc_w, (2, 2))
    ser = g.multiplication_by(z, 20, 8)
    assert ser.nonzero_degrees() == [1]
    assert tuple(int(v) for v in ser.data[1]) == tuple(v % 3**8 for v in z.reduce_to(d.at_precision(8)).coeffs)


def test_negation_series():
    g = gm(3, 10)
    neg = g.negation_series(8, 6)
    m = 3**6
    assert [int(v[0]) for v in neg.data] == [0] + [(-1) ** k % m for k in range(1, 8)]
    gh = honda_h2()
    neg = gh.negation_series(12, 6)
    assert neg.nonzero_degrees() == [1]
    assert int(neg.data[1, 0]) == 3**6 - 1
    # F(X, neg(X)) = 0
    g2 = lt_h1(3)
    D, N = 12, 6
    neg = g2.negation_series(D, N)
    x = TruncSeries1.x(neg.desc, D)
    assert substitute2(g2.group_law2(D, N), x, neg).is_zero()


def test_obstruction_detection():
    # over Z_3 the height-one Lubin-Tate group has endomorphisms only for
    # scalars in Z_3; a Teichmuller vector from a larger field cannot occur,
    # but a non-scalar "a" makes no sense over f=1.  Instead check that the
    # h=2 group over W(F_9) rejects a generic non-commuting linear term is
    # impossible there (full ring acts), so use the multiplicative group
    # base-changed to W(F_9): only Z_3 acts, so sqrt(-1) must obstruct.
    g = multiplicative_group(RingDescriptor(3, 2, 12))
    m = g.module(12, 5)
    z = teichmuller_lift(m.desc_w, (0, 1))  # order-4 root of unity
    ser, obs = m.try_multiplication(z)
    assert ser is None and obs is not None
    with pytest.raises(ObstructionError):
        g.multiplication_by(z, 12, 5)


def test_logarithm_additivity_and_exp():
    for g in (gm(3, 10), lt_h1(3), honda_h2()):
        D = 10
        lam = g.logarithm(D)
        exp = g.exponential(D)
        x = TruncSeries1.x(lam.desc, D, "scaled")
        assert lam.compose(exp) == x
        F = g.group_law2(D)
        Fs = _to_scaled2(F)
        # lam(F(X, Y)) = lam(X) + lam(Y): check on the curve Y = X^2
        # (substitute Y -> X^2 to stay in one variable)
        dsc = Fs.desc
        lam_f = _rescale(lam, dsc)
        xf = TruncSeries1.x(dsc, D, "scaled")
        y = TruncSeries1.from_coeffs(dsc, [0, 0, 1], D=D, domain="scaled")
        lhs = lam_f.compose(substitute2(Fs, xf, y))
        rhs = lam_f + lam_f.compose(y)
        for k in range(D):
            diff = lhs.coeff_vec(k)[0] - rhs.coeff_vec(k)[0]
            assert _vp(diff, g.desc.p) >= 5


def _to_scaled2(F):
    from fglab.series import TruncSeries2

    return TruncSeries2(F.desc, F.D, "scaled", F.data.astype(object))


def _rescale(s, desc):
    out = TruncSeries1.zero(desc, s.D, "scaled")
    out.data[:, : s.desc.f] = s.data
    return TruncSeries1(desc, s.D, "scaled", out.data, s.den)


def _vp(x, p):
    if x == 0:
        return 10**9
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _in_component_zero(s, base):
    """s, over W(F_{p^f}), carries the Z_p data of base in component 0 and
    zeros in the others."""
    assert s.D == base.D and s.den == base.den and s.desc.N == base.desc.N
    assert np.array_equal(s.data[..., 0], base.data[..., 0]) and not s.data[..., 1:].any()


def test_base_change_preserves_data():
    g = lt_h1(3)
    g2 = g.base_change(2)
    assert g2.desc.f == 2 and g2.height == 1
    pi, pi2 = g.pi_series(8, 6), g2.pi_series(8, 6)
    for k in range(8):
        assert int(pi2.data[k, 0]) == int(pi.data[k, 0])
        assert int(pi2.data[k, 1]) == 0
    gh = honda_h2()
    gh2 = gh.base_change(2)
    assert gh2.height == 2
    pi, pi2 = gh.pi_series(12, 6), gh2.pi_series(12, 6)
    for k in range(12):
        assert int(pi2.data[k, 0]) == int(pi.data[k, 0]) and int(pi2.data[k, 1]) == 0
    with pytest.raises(ValueError):
        lt_h2().base_change(3)
    # pi_series, the law and the logarithm have Z_p coefficients, through a
    # chain of base changes too
    D, N = 12, 6
    cases = [(honda_group(RingDescriptor(3, 1, 14), u), (2,)) for u in ((0, 1), (1,))]
    cases += [(honda_h2(), (2, 4)), (lt_h1(3), (2, 4))]
    for base, chain in cases:
        g = base
        for f in chain:
            g = g.base_change(f)
            assert (g.desc.f, g.kind, g.source, g.height) == (f, base.kind, base.source, base.height)
            _in_component_zero(g.pi_series(D, N), base.pi_series(D, N))
            _in_component_zero(g.group_law2(D, N), base.group_law2(D, N))
            _in_component_zero(g.logarithm(D), base.logarithm(D))
    # a honda group built over W(F_9) is the base-changed one
    for u in ((0, 1), (1,)):
        direct = honda_group(RingDescriptor(3, 2, 14), u)
        changed = honda_group(RingDescriptor(3, 1, 14), u).base_change(2)
        assert (direct.kind, direct.source.u, direct.height) == (changed.kind, changed.source.u, changed.height)
        assert direct.pi_series(D, N) == changed.pi_series(D, N)
        assert direct.group_law2(D, N) == changed.group_law2(D, N)
        assert direct.logarithm(D) == changed.logarithm(D)
    # a base-changed Lubin-Tate group is the one built from the same integers
    for base, chain in ((lt_h1(3), (2, 4)), (lt_h2(), (4,))):
        g = base
        for f in chain:
            g = g.base_change(f)
            direct = lubin_tate_group(RingDescriptor(3, f, base.desc.N), base.source.coeffs)
            assert (direct.kind, direct.height) == (g.kind, g.height)
            assert direct.pi_series(D, N) == g.pi_series(D, N)
            assert direct.group_law2(D, N) == g.group_law2(D, N)
            assert direct.logarithm(D) == g.logarithm(D)


def test_gm_base_change_identical():
    g = multiplicative_group(RingDescriptor(5, 1, 8)).base_change(2)
    F = g.group_law2(5, 6)
    assert sorted(F.coeff_triples()) == [
        (0, 1, (1, 0)), (1, 0, (1, 0)), (1, 1, (1, 0))]


# ---------------------------------------------- honda law against exp-log

def _exp_log_group_law(log_ser, D2):
    """Oracle: F = exp(log X + log Y) from an exact scaled logarithm."""
    lam = log_ser.truncate(D2) if log_ser.D >= D2 else log_ser.lift(D2)
    exp = lam.reversion()
    L = inject_x(lam) + inject_y(lam)
    acc = TruncSeries2.zero(lam.desc, D2, "scaled")
    for k in range(D2 - 1, 0, -1):
        acc = acc * L + TruncSeries2.from_triples(lam.desc, [(0, 0, exp.coeff_vec(k))], D2, "scaled")
    return acc * L


@pytest.mark.parametrize("u", [(0, 1), (1,)])
@pytest.mark.parametrize("D2", [12, 24])
def test_honda_law_equals_exp_log(u, D2):
    g = honda_group(RingDescriptor(3, 1, 10), u)
    F = g.group_law2(D2, law_precision(g.kind, g.desc.N, D2, g.q_eff))
    assert F.desc.N == 10
    exact = {(i, j): vec for i, j, vec in _exp_log_group_law(g.logarithm(D2), D2).coeff_triples()}
    for i in range(D2):
        for j in range(D2 - i):
            assert F.coefficient(i, j) == element_from_rationals(F.desc, exact.get((i, j), (0,)))


def test_precision_cushion_at_exact_powers():
    assert floor_log(242, 3) == 4 and floor_log(243, 3) == 5
    assert floor_log(59049, 9) == 5 and floor_log(2, 3) == 0
    assert cushion(243, 3) == 7
    assert cushion(59049, 9) == 7


def test_certificate_guard_survives_optimize_flag():
    """Certificate checks are explicit raises, so python -O keeps them."""
    code = ("import numpy as np\n"
            "from fglab.groups import _data_exact_div_p\n"
            "try:\n"
            "    _data_exact_div_p(np.array([3, 4]), 3, 1)\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fglab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


# --------------------------------------------------------- one cache route

@pytest.mark.parametrize("method", ["pi_series", "group_law2"])
def test_narrower_keys_do_not_serve_a_wider_window(method):
    g, fresh = lt_h1(3), lt_h1(3)
    getattr(g, method)(6, 5)
    # no cached window serves (12, 5): it is built as on a new group
    assert getattr(g, method)(12, 5) == getattr(fresh, method)(12, 5)


def test_honda_pi_series_serves_any_precision():
    # a honda source is exact, so pi_series serves N above the group's own;
    # a Frobenius series holds only the digits it was read at
    from fglab import groups
    g = honda_group(RingDescriptor(3, 2, 8), (0, 1))
    for D, N in ((30, 12), (25, 11), (20, 20), (40, 9)):
        assert g.pi_series(D, N) == groups._honda_pi_series(RingDescriptor(3, 2, N), (0, 1), D)
    for group in (lt_h1(3, N=8), lt_h2(8), gm(3, 8), gm(5, 8)):
        group.pi_series(30, 8)
        with pytest.raises(ValueError, match="higher precision"):
            group.pi_series(30, 9)


def _calls(tree, name):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_formal_group_law_reads_its_source_only():
    # the group reads no field of one kind of source; the honda Newton solve
    # has one caller, HondaSeries.at; the windowed grading rule is written
    # once, in series.py
    src = Path(fglab.__file__).parent
    classes = {node.name: node for node in ast.parse((src / "groups.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    reads = [f"groups.py:{node.lineno}: .{node.attr}" for node in ast.walk(classes["FormalGroupLaw"])
             if isinstance(node, ast.Attribute) and node.attr in ("frobenius", "u")]
    assert reads == []
    calls = [(path.name, line) for path in sorted(src.glob("*.py"))
             for line in _calls(ast.parse(path.read_text()), "_honda_pi_series")]
    inside = _calls(classes["HondaSeries"], "_honda_pi_series") if "HondaSeries" in classes else []
    assert calls == [("groups.py", line) for line in inside] and len(calls) == 1
    rule = [path.name for path in sorted(src.glob("*.py"))
            for line in path.read_text().splitlines() if "gcd(*(j - 1" in line]
    assert rule == ["series.py"]


def test_pi_series_after_many_narrow_keys():
    # windows that none of 396 cached narrow keys serves, asked in four
    # interleaved runs, so the later runs are served by narrowing
    g = lt_h1(3)
    for D in range(4, 37):
        for N in range(1, 13):
            g.pi_series(D, N)
    got = [(D, g.pi_series(D, 12)) for first in range(40, 44) for D in range(first, 240, 4)]
    fresh = lt_h1(3)
    assert len(got) == 200 and all(s == fresh.pi_series(D, 12) for D, s in got)


@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_reduced_law_equals_fresh_solve(name, monkeypatch):
    from fglab import groups
    solves = []
    solve = groups.solve_equivariant_group_law
    monkeypatch.setattr(groups, "solve_equivariant_group_law",
                        lambda *args: solves.append(args[1]) or solve(*args))
    spec = dict(CORPUS_SPECS)[name]
    wide = make_group(N=6, nmax=1, **spec)
    N = wide.group_law2(20).desc.N - 2
    served = wide.group_law2(14, N)
    assert len(solves) == (0 if wide.kind == "gm" else 1)
    fresh = make_group(N=6, nmax=1, **spec).group_law2(14, N)
    assert served == fresh and served.data.dtype == fresh.data.dtype


def test_served_series_take_the_fresh_dtype():
    # at p = 3 the window-12 contraction fits int64 up to N = 18, the
    # window-30 one only up to N = 17
    g, fresh = gm(3, 24), gm(3, 24)
    for method in ("pi_series", "group_law2"):
        assert getattr(g, method)(30, 20).data.dtype == object
        served = getattr(g, method)(12, 18)
        assert served == getattr(fresh, method)(12, 18)
        assert served.data.dtype == getattr(fresh, method)(12, 18).data.dtype == np.int64


@pytest.mark.parametrize("argv", [("--group", "lubin-tate", "--p", "3", "--f", "2", "--d", "2"),
                                  ("--group", "honda", "--p", "3", "--u", "0,1")])
def test_endo_suite_solves_the_law_once(argv, monkeypatch, tmp_path):
    # the multiplier certificates ask for the law on one window at two
    # precisions; the lower one is served by reduction
    from fglab import cli, groups
    solves = []
    solve = groups.solve_equivariant_group_law
    monkeypatch.setattr(groups, "solve_equivariant_group_law",
                        lambda *args: solves.append(args[1]) or solve(*args))
    out = tmp_path / "report.json"
    assert cli.main(["endo", *argv, "--N", "6", "--nmax", "1", "--out", str(out)]) == 0
    assert solves == [36]
