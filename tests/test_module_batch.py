"""The batched [a]-series solver and the z^k contraction of eval_at_z
against the per-scalar routes they replaced, kept here as oracles."""

import functools
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from fglab import groups, padic, precision
from fglab.corpus import CORPUS_SPECS, corpus
from fglab.groups import (
    ModuleStructure,
    honda_group,
    lubin_tate_group,
    multiplicative_group,
)
from fglab.padic import (
    RingDescriptor,
    _vec_mulmod,
    contraction_dtype,
    multiplicative_generator,
    ring_mul,
    root_of_unity,
    ring_scale,
    teichmuller_digits,
    teichmuller_lift,
)
from fglab.series import TruncSeries1, _mul_data
from fglab.torsion import TorsionFieldModel, assumption_check
from test_torsion_lab import full_model, scatter


# ------------------------------------------------------------------ oracles

# (x, y) -> sum_j x[b, j] * y[i, b, j] for every (i, b)
sum_bj = functools.partial(np.einsum, "bj,ibj->ib")


def oracle_fpow_list(group, module):
    """f^j for j < D: shift-and-scale for a sparse f, products otherwise."""
    D, m, desc_w = module.D, module.m, module.desc_w
    f_data = group.pi_series(D, desc_w.N).data
    terms = [(k, tuple(f_data[k])) for k in module.f_nz]
    sparse = len(terms) <= 6
    fpow = [None, f_data]
    cur = f_data
    for _ in range(2, D):
        if sparse:
            nxt = np.zeros_like(cur)
            for d, vec in terms:
                if d < D:
                    seg = ring_scale(cur[: D - d], vec, desc_w, m)
                    nxt[d:] = (nxt[d:] + seg) % m
        else:
            nxt = _mul_data(cur, f_data, desc_w, D, m)
        fpow.append(nxt)
        cur = nxt
    return fpow


def oracle_update_powers(module, Gpow, k, gk):
    """Binomial update of the powers of g after its degree-k term gk."""
    D, m, desc_w = module.D, module.m, module.desc_w
    smax_global = (D - 1) // k
    tpow = [(1,) + (0,) * (desc_w.f - 1), gk]
    for i in range(module.mdeg, 0, -1):
        smax = min(i, smax_global)
        acc = Gpow[i].copy()
        for s in range(1, smax + 1):
            while len(tpow) <= s:
                tpow.append(_vec_mulmod(tpow[-1], gk, desc_w, m))
            shift = k * s
            if shift >= D:
                break
            comb = math.comb(i, s) % m
            cvec = tuple(v * comb % m for v in tpow[s])
            seg = ring_scale(Gpow[i - s][: D - shift], cvec, desc_w, m)
            acc[shift:] = (acc[shift:] + seg) % m
        Gpow[i] = acc


def oracle_solve(group, module, a_vec):
    """One scalar at a time: (series, None) or (None, obstruction degree)."""
    D, m, p = module.D, module.m, module.desc_w.p
    desc_w = module.desc_w
    fdim = desc_w.f
    fpow = oracle_fpow_list(group, module)
    f_data = fpow[1]
    dtype = f_data.dtype
    g = np.zeros((D, fdim), dtype=dtype)
    g[1] = a_vec
    one = (1,) + (0,) * (fdim - 1)
    Gpow = [np.zeros((D, fdim), dtype=dtype) for _ in range(module.mdeg + 1)]
    Gpow[0][0] = one
    acc = one
    for i in range(1, module.mdeg + 1):
        acc = _vec_mulmod(acc, a_vec, desc_w, m)
        if i < D:
            Gpow[i][i] = acc
    GF = ring_scale(f_data, a_vec, desc_w, m)
    f_terms = [(i, tuple(f_data[i])) for i in module.f_nz]

    def rebuild_FG():
        out = np.zeros((D, fdim), dtype=dtype)
        for i, c in f_terms:
            out = (out + ring_scale(Gpow[i], c, desc_w, m)) % m
        return out

    FG = rebuild_FG()
    for k in range(2, D):
        defect = (FG[k] - GF[k]) % m
        if not defect.any():
            continue
        if any(int(v) % p for v in defect):
            return (None, k)
        w = pow(p, k - 1, m)
        inv = pow((w - 1) % m, -1, m)
        gk = tuple((int(v) // p * inv) % m for v in defect)
        g[k] = gk
        GF = (GF + ring_scale(fpow[k], gk, desc_w, m)) % m
        oracle_update_powers(module, Gpow, k, gk)
        FG = rebuild_FG()
    ser = TruncSeries1(desc_w, D, "integral", g)
    return (ser.reduce_precision(module.N_out), None)


def oracle_fpow_table(group, module):
    """The D x D table of f^j, f^0 = 1, from oracle_fpow_list."""
    rows = oracle_fpow_list(group, module)
    table = np.zeros((module.D,) + rows[1].shape, dtype=rows[1].dtype)
    table[0, 0, 0] = 1
    table[1:] = rows[1:]
    return table


def oracle_dense_chunk(group, module, vecs):
    """The degree-k recurrence on every degree and every power row, in X:
    three ring products per degree, each summing over all j < k."""
    D, m, p = module.D, module.m, module.desc_w.p
    desc, fpow, mdeg = module.desc_w, oracle_fpow_table(group, module), module.mdeg
    # P[i] = g^(i+1) for every scalar, so P[0] holds the series g
    P = np.zeros((mdeg, len(vecs), D, desc.f), dtype=module.dtype)
    P[0, :, 1] = vecs
    obstruction = [None] * len(vecs)
    for k in range(2, D):
        top = min(mdeg, k)
        g_low = P[0, :, 1:k]
        if top > 1:
            P[1:top, :, k] = ring_mul(g_low, P[: top - 1, :, k - 1:0:-1], desc, m, sum_bj)
        fg = ring_mul(fpow[1, 2:top + 1], P[1:top, :, k], desc, m, np.matmul)
        gf = ring_mul(g_low, fpow[1:k, k], desc, m, np.matmul)
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
    return [
        (None, obs) if obs is not None else
        (TruncSeries1(desc, D, "integral", P[0, b]).reduce_precision(module.N_out), None)
        for b, obs in enumerate(obstruction)
    ]


def oracle_dense_records(group, module, scalars):
    return oracle_dense_chunk(group, module, [module._coerce_scalar(a) for a in scalars])


def oracle_eval_at_z(model, s):
    """Horner walk specialised to x = z in a full model: one shift-and-fold
    per degree."""
    e, m = model.e, model.desc.pN
    data = s.data
    acc = model.zero()
    for k in range(s.D - 1, -1, -1):
        top = acc[e - 1].copy()
        acc[1:] = acc[: e - 1]
        acc[0] = 0
        if any(int(v) for v in top):
            acc = (acc + ring_scale(model.red[0], top, model.desc, m)) % m
        acc[0] = (acc[0] + data[k]) % m
    return acc % m


# ------------------------------------------------------------------ helpers

def gm(p=3, f=1, N=12):
    return multiplicative_group(RingDescriptor(p, f, N))


def lt_h1(p=3, N=12):
    return lubin_tate_group(RingDescriptor(p, 1, N), [0, p] + [0] * (p - 2) + [1])


def lt_h2(N=14):
    # 3X + X^9 over W(F_9)
    return lubin_tate_group(RingDescriptor(3, 2, N), [0, 3, 0, 0, 0, 0, 0, 0, 0, 1])


def honda(u=(0, 1), N=14):
    return honda_group(RingDescriptor(3, 1, N), u)


def assert_same_record(got, want):
    ser, obs = got
    ser0, obs0 = want
    assert obs == obs0
    if obs0 is None:
        assert ser.desc == ser0.desc and ser.D == ser0.D
        assert ser.data.dtype == ser0.data.dtype
        assert np.array_equal(ser.data, ser0.data)
    else:
        assert ser is None


def scalars_for(module, count, seed):
    rng = random.Random(seed)
    f, m = module.desc_w.f, module.m
    out = [1, -1, module.desc_w.p, 2]
    while len(out) < count:
        out.append(tuple(rng.randrange(m) for _ in range(f)))
    return out


def count_chunks(monkeypatch):
    """The number of vectors of every _solve_chunk call, as they happen."""
    calls = []
    solve_chunk = ModuleStructure._solve_chunk

    def counted(self, vecs):
        calls.append(len(vecs))
        return solve_chunk(self, vecs)

    monkeypatch.setattr(ModuleStructure, "_solve_chunk", counted)
    return calls


def check_against_oracle(group, module, scalars):
    records = module.solve_batch(scalars)
    assert len(records) == len(scalars)
    for a, rec in zip(scalars, records):
        assert_same_record(rec, oracle_solve(group, module, module._coerce_scalar(a)))


# -------------------------------------------------------------------- solver

@pytest.mark.parametrize("make, D, N_out", [
    (lambda: gm(3), 14, 6),
    (lambda: gm(5), 12, 5),
    (lambda: lt_h1(3), 14, 6),
    (lambda: lt_h1(5), 12, 5),
    (lambda: lt_h2(), 16, 6),
    (lambda: honda(), 16, 6),
    (lambda: honda((1,)), 16, 6),
])
def test_batch_matches_per_scalar_solver(make, D, N_out):
    g = make()
    module = g.module(D, N_out)
    check_against_oracle(g, module, scalars_for(module, 8, seed=D + N_out))


def test_honda_series_is_dense():
    # the dense [p]-series takes the product route of the power table
    module = honda((1,)).module(16, 6)
    assert len(module.f_nz) > 6
    assert module.mdeg == max(module.f_nz)


def test_batch_dtype_switches_with_precision():
    # N_work = N_out + 4 at D = 12, q = 3: the contraction budget
    # 12 * (3^N_work - 1)^2 < 2^62 holds at N_work = 18 and fails at 19
    g = gm(3, N=24)
    cushion = precision.cushion(12, g.q_eff)
    small, large = g.module(12, 18 - cushion), g.module(12, 19 - cushion)
    assert small.dtype is np.int64 and small.fpow.dtype == np.int64
    assert large.dtype is object and large.fpow.dtype == object
    assert contraction_dtype(12, large.desc_w) is object
    for module in (small, large):
        check_against_oracle(g, module, scalars_for(module, 5, seed=module.m % 97))


def test_batch_longer_than_one_chunk(monkeypatch):
    g = lt_h2()
    module = g.module(14, 6)
    per_scalar = (module.L + 1) * module.Tn * module.desc_w.f * 8
    monkeypatch.setattr(groups, "_BATCH_BYTES", 3 * per_scalar)
    calls = count_chunks(monkeypatch)
    # -1 = zeta^4 * 1 for the mu_8 generator zeta: it shares the orbit of 1
    scalars = [a for a in scalars_for(module, 9, seed=5) if a != -1]
    assert len({module._orbit(module._coerce_scalar(a))[0] for a in scalars}) == 8
    check_against_oracle(g, module, scalars)
    assert calls == [3, 3, 2]


def test_duplicate_scalars_share_one_record():
    g = lt_h1(3)
    module = g.module(14, 6)
    p, N = module.desc_w.p, module.desc_w.N
    a, b = 3, 3 + p**N
    recs = module.solve_batch([a, b, a])
    assert len(module._cache) == 1
    assert recs[0] is recs[1] is recs[2]
    assert_same_record(recs[0], oracle_solve(g, module, module._coerce_scalar(a)))
    # a cached scalar is not solved again
    assert module.try_multiplication(b) is recs[0]


def test_numpy_and_rational_scalars_read_as_their_residues():
    g = lt_h1(3)
    D, N = 14, 6
    two = g.multiplication_by(2, D, N)
    assert g.multiplication_by(np.int64(2), D, N) == two
    half = g.multiplication_by(Fraction(1, 2), D, N)
    assert half == g.multiplication_by(pow(2, -1, 3**40), D, N)
    with pytest.raises(TypeError, match="unsupported scalar"):
        g.multiplication_by(2.0, D, N)
    with pytest.raises(ValueError, match="not p-integral"):
        g.multiplication_by(Fraction(1, 3), D, N)


def test_mixed_batch_obstruction():
    # only Z_3 acts on gm over W(F_9): the mu_8 generator obstructs and the
    # integers around it solve
    g = gm(3, f=2, N=12)
    module = g.module(12, 5)
    zeta = teichmuller_lift(module.desc_w, multiplicative_generator(module.desc_w))
    scalars = [2, zeta, -1, 4]
    recs = module.solve_batch(scalars)
    assert [obs is None for _, obs in recs] == [True, False, True, True]
    assert recs[1][1] == 3
    for a, rec in zip(scalars, recs):
        assert_same_record(rec, oracle_solve(g, module, module._coerce_scalar(a)))


# ------------------------------------------- residue classes and support

@pytest.mark.parametrize("window", ["small", "level-2"])
@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_solver_matches_dense_oracle_on_corpus(name, window):
    g = dict(corpus(N=4, nmax=2))[name]
    q = g.q
    # the level-2 window is the one assumption_check opens at N = 4
    D = q + 3 if window == "small" else 4 * q * (q - 1)
    module = g.module(D, 4)
    scalars = scalars_for(module, 6, seed=D)
    assert module.solve_batch(scalars) == oracle_dense_records(g, module, scalars)


@pytest.mark.parametrize("window", ["small", "level-2"])
@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_power_table_matches_oracle_on_corpus(name, window):
    g = dict(corpus(N=4, nmax=2))[name]
    D = g.q + 3 if window == "small" else 4 * g.q * (g.q - 1)
    module = g.module(D, 4)
    d, Tn = module.step, module.Tn
    oracle = oracle_fpow_table(g, module)
    assert module.fpow.dtype == oracle.dtype == module.dtype
    # Tn^2 f entries, not D^2 f: fpow[s, t] is f^(1+ds) at degree 1 + dt
    assert Tn == (D - 2) // d + 1
    assert module.fpow.shape == (Tn, Tn, g.desc.f)
    grid = 1 + d * np.arange(Tn)
    assert np.array_equal(module.fpow, oracle[np.ix_(grid, grid)])
    # and the dense table holds nothing off that grid: f^j lives on the
    # degrees = j mod d
    j, k = np.indices((D, D))
    assert not oracle[(j - k) % d != 0].any()


@pytest.mark.parametrize("make, step", [
    (lambda: gm(3, f=2, N=12), 1),
    (lambda: lubin_tate_group(RingDescriptor(3, 2, 12), [0, 3, 0, 1]), 2),
])
def test_solver_matches_dense_oracle_on_mixed_batch(make, step):
    # only Z_3 acts on these height-1 groups over W(F_9): the mu_8 digits
    # obstruct and the integers and other residues around them solve
    g = make()
    module = g.module(14, 5)
    assert module.step == step
    zeta = teichmuller_lift(module.desc_w, multiplicative_generator(module.desc_w))
    scalars = [2, zeta, -1, (1, 1), 4, zeta * zeta, 3]
    recs = module.solve_batch(scalars)
    assert [obs is None for _, obs in recs] == [True, False, True, False, True, False, True]
    assert recs == oracle_dense_records(g, module, scalars)


def test_solver_matches_dense_oracle_on_one_term_pi_series():
    # f = pX alone: the gcd is 0 and every [a]-series is aX
    g = honda_group(RingDescriptor(3, 1, 10), ())
    module = g.module(12, 5)
    assert module.f_nz == [1] and module.step == 0
    scalars = [5, -1, 3, 0, 7]
    recs = module.solve_batch(scalars)
    assert recs == oracle_dense_records(g, module, scalars)
    assert all(ser.nonzero_degrees() == ([1] if a else []) for a, (ser, _) in zip(scalars, recs))


def test_lt_h2_series_vanish_off_one_mod_eight():
    # 3X + X^9: f_j != 0 only for j = 1, 9, so d = gcd(0, 8) = 8
    g = lt_h2()
    module = g.module(80, 6)
    assert module.step == 8
    recs = oracle_dense_records(g, module, scalars_for(module, 6, seed=8))
    degrees = {k for ser, _ in recs for k in ser.nonzero_degrees()}
    assert {1, 9, 17} <= degrees
    assert all(k % 8 == 1 for k in degrees)


def test_solver_ring_products_bounded_by_residue_classes(monkeypatch):
    # lt-h2-p3 at its level-2 window for N = 4: D = 288 and d = 8 make
    # Tn = 36 windows.  Each of the 35 solved windows takes at most three
    # products (the E rows, f(g), g(f)), and the K table of the one chunk
    # takes a^0 .. a^mdeg by doubling and one product more
    module = lt_h2(N=8).module(288, 4)
    scalars = scalars_for(module, 20, seed=3)
    chunks = count_chunks(monkeypatch)
    calls = []
    mul = groups.ring_mul

    def counted(*args):
        calls.append(1)
        return mul(*args)

    monkeypatch.setattr(groups, "ring_mul", counted)
    module.solve_batch(scalars)
    assert (module.D, module.step, module.Tn, module.mdeg) == (288, 8, 36, 9)
    assert len(chunks) == 1
    assert len(calls) <= 3 * (module.Tn - 1) + module.mdeg.bit_length() + 1


def test_module_structure_leaves_its_group_to_refcounting():
    # a group and its module structures form no reference cycle, so the
    # tables they hold go when the group does, not at the next collection
    g = lt_h2()
    g.module(40, 6).solve_batch([2])
    gone = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert gone() is None
    finally:
        gc.enable()


# ------------------------------------------------------------ mu_g-orbits

def digit_sums(g, n):
    """Every nonzero sum of n Teichmuller digits times powers of p that the
    base ring holds: digits of W(F_{p^gcd(f, h)})."""
    desc = g.desc
    digits = teichmuller_digits(desc, math.gcd(desc.f, g.height))
    sums = (sum((w * desc.p**i for i, w in enumerate(tup)), desc.zero())
            for tup in itertools.product(digits, repeat=n))
    return [a for a in sums if not a.is_zero()]


def mu_generator(desc):
    return teichmuller_lift(desc, multiplicative_generator(desc))


def lt_height(h, f, N=12):
    # pX + X^(p^h) over W(F_{3^f}): d = 3^h - 1 and g = 3^gcd(h, f) - 1
    coeffs = [0] * (3**h + 1)
    coeffs[1], coeffs[-1] = 3, 1
    return lubin_tate_group(RingDescriptor(3, f, N), coeffs)


@pytest.mark.parametrize("h,f", [(1, 1), (1, 2), (1, 5), (2, 2), (2, 3), (2, 4),
                                 (2, 6), (3, 3), (3, 6)])
def test_mu_equals_the_digit_table(h, f):
    # eta = [gen^((q-1)/g)] and its powers are the digits zeta^(k(q-1)/g)
    g = lt_height(h, f)
    module = ModuleStructure(g, 3**h + 2, 4)
    q1 = g.desc.q - 1
    n = math.gcd(module.step, q1)
    digits = teichmuller_digits(g.desc, f)
    assert n == 3**math.gcd(h, f) - 1
    assert module._mu == [digits[1 + k * q1 // n].coeffs for k in range(n)]


def test_mu_skips_the_digit_table(monkeypatch):
    # at f = 12 the digit table holds 3^12 elements; mu_2 = {1, -1} needs none
    def digit_table(desc, d=None):
        raise AssertionError(f"the digit table of W(F_{desc.p}^{d}) was built")

    for mod in (groups, padic):
        monkeypatch.setattr(mod, "teichmuller_digits", digit_table, raising=False)
    g = lt_height(1, 12, N=8)
    module = ModuleStructure(g, 5, 4)
    one = g.desc.one()
    assert module._mu == [one.coeffs, (-one).coeffs]


def test_assumption_check_solves_one_scalar_per_orbit(monkeypatch):
    # d = 8 = q - 1: mu_8 acts, and the 80 nonzero digit sums make 10 orbits
    g = dict(corpus(N=4, nmax=2))["lt-h2-p3"]
    calls = count_chunks(monkeypatch)
    assert assumption_check(g, 2)["holds"]
    assert sum(calls) == (g.q**2 - 1) // (g.q - 1) == 10


@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_orbit_records_match_dense_oracle_on_corpus(name):
    # every scalar solved on its own by the oracle, at the level-2 window
    g = dict(corpus(N=4, nmax=2))[name]
    module = g.module(4 * g.q * (g.q - 1), 4)
    scalars = digit_sums(g, 2)
    assert module.solve_batch(scalars) == oracle_dense_records(g, module, scalars)


def test_obstructed_orbit_shares_its_degree(monkeypatch):
    # d = 2 and q - 1 = 8: mu_2 = {1, -1} acts, and the mu_8 digits obstruct
    g = lubin_tate_group(RingDescriptor(3, 2, 12), [0, 3, 0, 1])
    module = g.module(14, 5)
    assert len(module._mu) == 2
    zeta = mu_generator(module.desc_w)
    scalars = [zeta, -zeta, zeta * zeta, -(zeta * zeta)]
    calls = count_chunks(monkeypatch)
    recs = module.solve_batch(scalars)
    assert calls == [2]
    assert all(ser is None for ser, _ in recs)
    assert recs[0][1] == recs[1][1] and recs[2][1] == recs[3][1]
    assert recs == oracle_dense_records(g, module, scalars)


def test_orbit_served_across_calls(monkeypatch):
    g = lt_h2()
    module = g.module(40, 6)
    zeta = mu_generator(module.desc_w)
    v = module.desc_w.from_coeffs((2, 5))
    calls = count_chunks(monkeypatch)
    module.solve_batch([v])
    assert calls == [1]
    turned = [zeta**k * v for k in range(1, 8)]
    recs = module.solve_batch(turned)
    assert calls == [1]
    assert recs == oracle_dense_records(g, module, turned)


def test_orbits_served_in_any_request_order():
    # the zeta-multiples of the same scalars, asked from a different first
    # member each time: every record must equal the oracle's
    module = lt_h2().module(40, 6)
    desc, zeta = module.desc_w, mu_generator(module.desc_w)
    base = [desc.from_coeffs(module._coerce_scalar(a)) for a in scalars_for(module, 4, seed=7)]
    asked = [[zeta**((3 * t + j) % 8) * b for j in range(8) for b in base] for t in range(4)]
    want = dict(zip(asked[0], oracle_dense_records(lt_h2(), lt_h2().module(40, 6), asked[0])))
    for scalars in asked:
        assert module.solve_batch(scalars) == [want[a] for a in scalars]


# ------------------------------------------------------------- narrowing

def fresh_records(make, D, N, scalars):
    """The records of a structure built on the window D mod p^N of a new
    group, which holds no wider structure to serve it."""
    return ModuleStructure(make(), D, N).solve_batch(scalars)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_narrowed_records_equal_fresh_solve_on_corpus(name, level, monkeypatch):
    # the level-2 window at N = 5 serves the level-n window at N = 4
    def make():
        return dict(corpus(N=5, nmax=2))[name]

    g = make()
    q = g.q
    key = (precision.model_window(q, 2, 5), 5)
    wide = g.module(*key)
    scalars = digit_sums(g, level)
    wide.solve_batch(scalars)
    D, N = precision.model_window(q, level, 4), 4
    assert g.module(D, N) is wide
    calls = count_chunks(monkeypatch)
    got = g.multiplications(scalars, D, N)
    assert calls == []  # served from the wide structure's records
    want = fresh_records(make, D, N, scalars)
    assert got == want
    for rec, rec0 in zip(got, want):
        assert_same_record(rec, rec0)
    # on its own window a structure's records are served as they are
    own = g.multiplications(scalars, *key)
    assert all(wide._cache[wide._coerce_scalar(a)][0] is ser for a, (ser, _) in zip(scalars, own))


def gm_f2():
    return gm(3, f=2, N=14)


def lt_h1_f2():
    return lubin_tate_group(RingDescriptor(3, 2, 14), [0, 3, 0, 1])


def honda_f2():
    return honda_group(RingDescriptor(3, 2, 14), (0, 1, 1))


def mixed_batch(desc):
    # the mixed batch of the obstruction tests, with 1 + 3 zeta and 2 + 9 zeta
    zeta, one = mu_generator(desc), desc.one()
    return [2, zeta, -1, (1, 1), 4, zeta * zeta, 3, one + zeta * 3, one + one + zeta * 9]


def zeta8_batch(desc):
    zeta = root_of_unity(desc, 8)
    return [zeta, zeta + 1, 2]


MIXED_DEGREES = [None, 3, None, 3, None, 3, None, 9, 27]


@pytest.mark.parametrize("make, key, batch, degrees, windows", [
    (gm_f2, (40, 6), mixed_batch, MIXED_DEGREES, (4, 8, 9, 10, 20, 27, 28)),
    (lt_h1_f2, (40, 6), mixed_batch, MIXED_DEGREES, (4, 8, 9, 10, 20, 27, 28)),
    (honda_f2, (60, 6), zeta8_batch, [27, 27, None], (12, 20, 27, 28)),
], ids=["gm_f2", "lt_h1_f2", "honda_f2"])
def test_narrowed_obstructions_equal_fresh_solve(make, key, batch, degrees, windows):
    # a window ending at or below the obstruction degree finds none, one
    # past it finds it there; the dense honda series of u = (0, 1, 1)
    # obstructs zeta_8 and zeta_8 + 1 at 27
    g = make()
    wide = g.module(*key)
    scalars = batch(wide.desc_w)
    assert [obs for _, obs in wide.solve_batch(scalars)] == degrees
    cases = set()
    for D in windows:
        for N in (4, 6):
            got = g.multiplications(scalars, D, N)
            want = fresh_records(make, D, N, scalars)
            assert got == want
            for rec, rec0 in zip(got, want):
                assert_same_record(rec, rec0)
            for (ser, obs), k in zip(got, degrees):
                if k is not None:
                    assert (obs, ser is None) == ((k, True) if k < D else (None, False))
                    cases.add("below" if k < D else "at or above")
    assert cases == {"below", "at or above"}


def test_narrowed_structure_solves_new_scalars_in_its_source(monkeypatch):
    g = lt_h2()
    wide = g.module(80, 6)
    wide.solve_batch([2])
    calls = count_chunks(monkeypatch)
    scalars = [2, 5, (1, 1)]
    got = g.multiplications(scalars, 40, 5)
    # 2 was solved already; 5 and 1 + zeta' are solved once, in the wide one
    assert calls == [2]
    assert {wide._coerce_scalar(a) for a in scalars} <= set(wide._cache)
    assert got == fresh_records(lt_h2, 40, 5, scalars)
    # every window it covers is served by the wide structure itself
    assert g.module(40, 5) is wide and g.module(20, 4) is wide
    # a ring element at the working precision of (40, 5), below the wide
    # structure's, is read at that precision, as a fresh structure reads it
    fresh = ModuleStructure(lt_h2(), 40, 5)
    low = fresh.desc_w.from_coeffs((4, 7))
    assert low.desc.N < wide.desc_w.N
    got, want = g.multiplications([low], 40, 5), fresh.solve_batch([low])
    assert got == want
    assert_same_record(got[0], want[0])
    lower = fresh.desc_w.at_precision(low.desc.N - 1).from_coeffs((4, 7))
    for solve in (lambda: g.multiplications([lower], 40, 5), lambda: fresh.solve_batch([lower])):
        with pytest.raises(ValueError, match="at least the working precision"):
            solve()


def test_narrowed_records_in_any_request_order():
    # the records of one wide structure narrowed at four windows, scalars
    # and windows in four rotations: every record must equal a fresh solve's
    g = lt_h2()
    scalars = scalars_for(g.module(80, 6), 12, seed=11)
    windows = [(40, 5), (20, 4), (60, 6), (30, 4)]
    want = {w: fresh_records(lt_h2, *w, scalars) for w in windows}
    for t in range(4):
        for w in windows[t:] + windows[:t]:
            assert g.multiplications(scalars[t:] + scalars[:t], *w) == want[w][t:] + want[w][:t]


def test_narrowed_structure_keeps_no_cycle():
    # narrowed records refer to nothing: the group and its structure go by
    # reference counting
    g = lt_h2()
    g.module(40, 6).solve_batch([2])
    g.multiplications([2, 3], 20, 4)
    gone = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert gone() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- eval_at_z

def random_series(desc, D, seed):
    rng = random.Random(seed)
    s = TruncSeries1.zero(desc, D)
    for k in range(D):
        for j in range(desc.f):
            s.data[k, j] = rng.randrange(desc.pN)
    return s


@pytest.mark.parametrize("make, level, N, extra", [
    (lambda: gm(3), 1, 6, 0),
    (lambda: gm(3), 2, 5, 3),
    (lambda: lt_h1(5), 1, 5, 0),
    (lambda: lt_h2(), 1, 5, 2),
    (lambda: honda((1,)), 2, 4, 1),
])
def test_eval_at_z_matches_horner(make, level, N, extra):
    # eval_at_z takes graded series, X^r times a series in X^d, r = 1 mod d
    model = TorsionFieldModel(make(), level, N)
    full = full_model(model)
    D = N * model.e + extra
    off = np.arange(D) % model.d != model.r
    for seed in range(3):
        s = random_series(model.desc, D, seed)
        if off.any():
            with pytest.raises(ValueError, match="degree other than"):
                model.eval_at_z(s)
            s.data[off] = 0
        got, want = scatter(model, model.eval_at_z(s)), oracle_eval_at_z(full, s)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_eval_at_z_on_module_series_matches_horner():
    g = lt_h1(3, N=16)
    model = TorsionFieldModel(g, 2, 4)
    full = full_model(model)
    for a in (2, -1, 4, 7):
        ser = g.multiplication_by(a, 4 * model.e, 4)
        assert np.array_equal(scatter(model, model.eval_at_z(ser)), oracle_eval_at_z(full, ser))


def test_eval_at_z_contraction_switches_to_object():
    # the model's own budget 2 e f^2 p (m - 1)^2 holds at N = 18, but the
    # z^k contraction sums N e = 36 products, so it runs on object data
    model = TorsionFieldModel(gm(3, N=20), 1, 18)
    assert model.dtype is np.int64
    assert model._w_powers(model.window).dtype == object
    low = TorsionFieldModel(gm(3, N=20), 1, 17)
    assert low._w_powers(low.window).dtype == np.int64
    s = random_series(model.desc, model.N * model.e, seed=1)
    got, want = model.eval_at_z(s), oracle_eval_at_z(model, s)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    # one digit more and the model itself runs on object data
    model = TorsionFieldModel(gm(3, N=20), 1, 19)
    assert model.dtype is object and model._w_powers(model.window).dtype == object
    s = random_series(model.desc, model.N * model.e + 1, seed=2)
    got, want = model.eval_at_z(s), oracle_eval_at_z(model, s)
    assert got.dtype == want.dtype == object
    assert np.array_equal(got, want)


# ---------------------------------------------------------- nonzero_degrees

@pytest.mark.parametrize("kind", ["int64", "object", "fraction"])
def test_nonzero_degrees_exact(kind):
    desc = RingDescriptor(3, 2, 40 if kind == "object" else 6)
    domain = "scaled" if kind == "fraction" else "integral"
    big = 3**39
    vals = {1: (big if kind == "object" else 5, 0), 4: (0, 1), 7: (2, 2)}
    coeffs = [[Fraction(v, 7) if kind == "fraction" else v for v in vals.get(k, (0, 0))]
              for k in range(9)]
    if kind == "fraction":
        coeffs[2][0] = Fraction(0, 5)
    s = TruncSeries1.from_coeffs(desc, coeffs, 9, domain)
    assert s.data.dtype == (np.int64 if kind == "int64" else object)
    scan = [k for k in range(s.D) if any(v != 0 for v in s.data[k])]
    assert s.nonzero_degrees() == scan == [1, 4, 7]
    assert all(type(k) is int for k in s.nonzero_degrees())
