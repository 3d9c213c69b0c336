"""The graded law solve and the two-variable product by homogeneous parts.

solve_equivariant_group_law solves F(f(X), f(Y)) = f(F(X, Y)) one total
degree k = 1 mod d at a time, d = gcd{j - 1 : f_j != 0}, from the defect
f(F) - F(f(X), f(Y)).  The solver it replaced kept the right side up to
date by rank-one updates, one per new coefficient, against a table of the
powers of f, and visited every degree; it lives on here as an oracle
(rank_one_law_solve), with the helpers that only it used.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fglab import groups
from fglab.corpus import CORPUS_SPECS, make_group
from fglab.groups import (
    ObstructionError,
    honda_group,
    lubin_tate_group,
    solve_equivariant_group_law,
)
from fglab.padic import RingDescriptor, contraction_dtype, ring_mul
from fglab.precision import cushion, law_window
from fglab.series import TruncSeries1, TruncSeries2, substitute2_into2


# ------------------------------------------------------------------ oracle

def inject_x(s: TruncSeries1) -> TruncSeries2:
    """s(X) as a two-variable series."""
    grid = TruncSeries2.zero(s.desc, s.D, s.domain).grid()
    grid[:, 0, :] = s.data
    return TruncSeries2.from_grid(s.desc, s.D, s.domain, grid, s.den)


def inject_y(s: TruncSeries1) -> TruncSeries2:
    """s(Y) as a two-variable series."""
    grid = TruncSeries2.zero(s.desc, s.D, s.domain).grid()
    grid[0, :, :] = s.data
    return TruncSeries2.from_grid(s.desc, s.D, s.domain, grid, s.den)


def _line_outer(xs: TruncSeries1, ys: TruncSeries1) -> TruncSeries2:
    """Product of a series in X alone and a series in Y alone."""
    desc, D = xs.desc, xs.D
    m = desc.pN if xs.domain == "integral" else None
    out = ring_mul(xs.data, ys.data, desc, m, np.multiply.outer)
    return TruncSeries2.from_grid(desc, D, xs.domain, out)  # drops i + j >= D


def rank_one_law_solve(f_ser: TruncSeries1, D2: int, N: int) -> TruncSeries2:
    """The replaced solver: every degree k < D2, A = F(f(X), f(Y)) kept up
    to date by one rank-one update f^i h f^j per new coefficient h X^i Y^j,
    B = f(F) recomposed after a degree that changed F."""
    desc = f_ser.desc
    p, m = desc.p, desc.pN
    f2 = f_ser.lift(D2) if f_ser.D < D2 else f_ser.truncate(D2)
    fpow = [TruncSeries1.zero(desc, D2), f2]
    fpow[0].data[0, 0] = 1
    for i in range(2, D2):
        fpow.append(fpow[-1] * f2)
    F = TruncSeries2.from_triples(desc, [(1, 0, 1), (0, 1, 1)], D2)
    A = inject_x(f2) + inject_y(f2)
    B = f2.compose(F)
    dirty = False
    for k in range(2, D2):
        if dirty:
            B = f2.compose(F)
            dirty = False
        w1 = pow(p, k - 1, m)
        inv = pow((w1 - 1) % m, -1, m)
        changed = []
        a, b, grid = A.grid(), B.grid(), F.grid()
        for i in range(k + 1):
            j = k - i
            d = (b[i, j] - a[i, j]) % m
            if not d.any():
                continue
            if any(int(v) % p for v in d):
                raise ObstructionError(k, f"group law solve obstructed at degree {k}")
            h = tuple(int(v) // p * inv % m for v in d)
            grid[i, j] = h
            changed.append((i, j, h))
        F = TruncSeries2.from_grid(desc, D2, "integral", grid)
        for i, j, h in changed:
            A = A + _line_outer(fpow[i].scalar_mul(h), fpow[j])
            dirty = True
    B = f2.compose(F)
    if ((A.grid() - B.grid()) % p**N).any():
        raise ArithmeticError("equivariance failed")
    return F


def full_window_law_solve(f_ser: TruncSeries1, D2: int, N: int) -> TruncSeries2:
    """The graded solve with every defect evaluated on the full window D2,
    of which each degree reads one row."""
    desc = f_ser.desc
    p, m = desc.p, desc.pN
    f2 = f_ser.lift(D2) if f_ser.D < D2 else f_ser.truncate(D2)
    d = f2.grading()
    F = TruncSeries2.from_triples(desc, [(1, 0, 1), (0, 1, 1)], D2)

    def defect():
        return (f2.compose(F) - substitute2_into2(F, f2, f2)).data

    for k in range(1 + d, D2, d) if d else ():
        part = defect()[k]
        if (part % p).any():
            raise ObstructionError(k, f"group law solve obstructed at degree {k}")
        F.data[k] = part // p * pow((pow(p, k - 1, m) - 1) % m, -1, m) % m
    if (defect() % p**N).any():
        raise ArithmeticError("equivariance failed")
    return F


# ------------------------------------------------ the new solve against it

LAW_GROUPS = {
    "lt-h1": lambda: lubin_tate_group(RingDescriptor(3, 1, 14), [0, 3, 0, 1]),
    "lt-h2": lambda: lubin_tate_group(RingDescriptor(3, 2, 14), [0, 3, 0, 0, 0, 0, 0, 0, 0, 1]),
    "honda-01": lambda: honda_group(RingDescriptor(3, 1, 14), (0, 1)),
    "honda-1": lambda: honda_group(RingDescriptor(3, 1, 14), (1,)),
}


def grading(f_ser):
    """d = gcd{j - 1 : f_j != 0}; 0 when f = pX."""
    return math.gcd(*(j - 1 for j in f_ser.nonzero_degrees()))


def solved_degrees(f_ser, D2):
    d = grading(f_ser)
    return list(range(1 + d, D2, d)) if d else []


@pytest.fixture
def solves(monkeypatch):
    """Every law solve of fglab.groups, run by both solvers: a list of
    (f_ser, new, oracle)."""
    out = []

    def both(f_ser, D2, N):
        new = solve_equivariant_group_law(f_ser, D2, N)
        out.append((f_ser, new, rank_one_law_solve(f_ser, D2, N)))
        return new

    monkeypatch.setattr(groups, "solve_equivariant_group_law", both)
    return out


@pytest.mark.parametrize("name", [name for name, spec in CORPUS_SPECS
                                  if spec["source"] != "multiplicative"])
def test_corpus_law_equals_oracle(name, solves):
    group = make_group(N=6, nmax=1, label=name, **dict(CORPUS_SPECS)[name])
    D2 = 2 * group.q + 2
    group.group_law2(D2, 4)
    assert len(solves) == 1
    f_ser, new, old = solves[0]
    assert grading(f_ser) == group.q - 1
    assert new == old


@pytest.mark.parametrize("name", [name for name, spec in CORPUS_SPECS
                                  if spec["source"] == "multiplicative"])
def test_gm_pi_series_law_equals_oracle(name):
    # the group takes its law in closed form, so solve from [p] directly
    group = make_group(N=6, nmax=1, label=name, **dict(CORPUS_SPECS)[name])
    D2, N = 12, 4
    f_ser = group.pi_series(D2, N + cushion(D2, group.q_eff))
    assert grading(f_ser) == 1
    got = solve_equivariant_group_law(f_ser, D2, N)
    assert got == rank_one_law_solve(f_ser, D2, N)
    assert got == group.group_law2(D2, f_ser.desc.N)  # X + Y + XY


@pytest.mark.parametrize("name", [name for name, _ in CORPUS_SPECS])
def test_growing_window_solve_equals_full_window_solve(name):
    # each degree k is solved from the defect on the window k + 1; the
    # full-window loop it replaced must give the same law
    group = make_group(N=6, nmax=1, label=name, **dict(CORPUS_SPECS)[name])
    D2, N = 4 * group.q + 2, 4
    f_ser = group.pi_series(D2, N + cushion(D2, group.q_eff))
    got = solve_equivariant_group_law(f_ser, D2, N)
    assert got.data.dtype == full_window_law_solve(f_ser, D2, N).data.dtype
    assert got == full_window_law_solve(f_ser, D2, N)


@pytest.mark.parametrize("name", list(LAW_GROUPS))
def test_law_groups_equal_oracle(name, solves):
    D2 = 22 if name == "honda-1" else 14
    LAW_GROUPS[name]().group_law2(D2, 5)
    ((f_ser, new, old),) = solves
    if name == "honda-1":
        # the dense honda [p]-series: every odd degree, d = 2
        assert grading(f_ser) == 2 and len(f_ser.nonzero_degrees()) > 10
    assert new == old


# groups over W(F_{p^f}), f > 1, and the law windows they are checked on
RING_LAWS = {
    "lt-h2-f2": (LAW_GROUPS["lt-h2"], 20),
    "lt-h2-f4": (lambda: LAW_GROUPS["lt-h2"]().base_change(4), 20),
    "honda-01-f2": (lambda: honda_group(RingDescriptor(3, 2, 14), (0, 1)), 20),
    "honda-1-f2": (lambda: honda_group(RingDescriptor(3, 2, 14), (1,)), 14),
}


@pytest.mark.parametrize("name", list(RING_LAWS))
def test_law_solved_over_zp_equals_solve_in_the_ring(name):
    # [p] has Z_p coefficients, so the law solved over Z_p is the one
    # solved in the f-component ring
    make, D2 = RING_LAWS[name]
    group, N = make(), 5
    W = law_window(D2, group.q)
    f_ring = group.pi_series(W, N + cushion(W, group.q_eff))
    assert f_ring.desc.f == group.desc.f > 1
    want = groups._narrow(solve_equivariant_group_law(f_ring, W, N), D2, N)
    assert group.group_law2(D2, N) == want


def test_law_of_px_is_x_plus_y():
    # f = pX: d = 0, no degree to solve
    d = RingDescriptor(3, 2, 8)
    f_ser = TruncSeries1.from_coeffs(d, [0, 3], D=10)
    got = solve_equivariant_group_law(f_ser, 10, 6)
    assert got == rank_one_law_solve(f_ser, 10, 6)
    assert got == TruncSeries2.from_triples(d, [(1, 0, 1), (0, 1, 1)], 10)


@pytest.mark.parametrize("solve", [solve_equivariant_group_law, rank_one_law_solve,
                                   full_window_law_solve])
def test_law_solve_obstruction(solve):
    # 3X + X^2 + X^3: the degree-2 defect 2XY is not divisible by 3
    f_ser = TruncSeries1.from_coeffs(RingDescriptor(3, 1, 8), [0, 3, 1, 1], D=10)
    with pytest.raises(ObstructionError) as err:
        solve(f_ser, 10, 6)
    assert err.value.degree == 2


# -------------------------------------------------- timing-free work guards

def parts(x):
    """Total degrees t with a nonzero anti-diagonal x[i, t - i] of a grid x."""
    D = x.shape[0]
    return [t for t in range(D) if any(x[i, t - i].any() for i in range(t + 1))]


def test_graded_product_convolves_nonzero_parts_only(monkeypatch):
    spec = dict(CORPUS_SPECS)["lt-h2-p3"]
    F = make_group(N=6, nmax=1, **spec).group_law2(36)
    D, f = F.D, F.desc.f
    grid = F.grid()
    assert set(parts(grid)) == {1, 9, 17, 25, 33}
    expected = 0
    for a in range(f):
        for b in range(f):
            ta, tb = parts(grid[..., a]), parts(grid[..., b])
            expected += sum(t1 + t2 < D for t1 in ta for t2 in tb)
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda *args: calls.append(1) or convolve(*args))
    square = F * F
    assert len(calls) == expected
    assert set(parts(square.grid())) <= {2, 10, 18, 26, 34}


@pytest.mark.parametrize("name", list(LAW_GROUPS) + ["px"])
def test_law_solve_evaluates_the_defect_once_per_degree(name, monkeypatch):
    if name == "px":
        f_ser, D2 = TruncSeries1.from_coeffs(RingDescriptor(3, 1, 8), [0, 3], D=12), 12
    else:
        group, D2 = LAW_GROUPS[name](), 22
        f_ser = group.pi_series(D2, 5 + cushion(D2, group.q_eff))
    substitutions, compositions = [], []
    substitute, compose = groups.substitute2_into2, TruncSeries1.compose
    monkeypatch.setattr(groups, "substitute2_into2",
                        lambda *args: substitutions.append(args[0].D) or substitute(*args))
    monkeypatch.setattr(TruncSeries1, "compose", lambda self, g: (
        compositions.append(g.D) if isinstance(g, TruncSeries2) else None) or compose(self, g))
    solve_equivariant_group_law(f_ser, D2, 5)
    evaluations = len(solved_degrees(f_ser, D2)) + 1
    assert len(substitutions) == len(compositions) == evaluations
    # degree k is solved on the window k + 1; the final check on the full one
    windows = [k + 1 for k in solved_degrees(f_ser, D2)] + [D2]
    assert substitutions == compositions == windows


# ------------------------------------------------ the total-degree layout

def assert_layout(s):
    """data[t, i] holds X^i Y^(t - i): nothing above the diagonal i = t,
    grid() and from_grid invert each other, and grid() over den agrees
    with coeff_triples()."""
    upper = np.triu_indices(s.D, 1)
    assert not s.data[upper].any()
    grid = s.grid()
    assert TruncSeries2.from_grid(s.desc, s.D, s.domain, grid, s.den) == s
    i, j = np.indices((s.D, s.D))
    assert not grid[i + j >= s.D].any()
    triples = {(i, j): vec for i, j, vec in s.coeff_triples()}
    assert triples == {(i, j): tuple(Fraction(int(v), s.den) for v in grid[i, j])
                       for i, j in np.argwhere(grid.any(axis=-1)).tolist()}


@pytest.mark.parametrize("name", [name for name, _ in CORPUS_SPECS])
def test_total_degree_layout_on_the_corpus_laws(name, monkeypatch):
    group = make_group(N=6, nmax=1, label=name, **dict(CORPUS_SPECS)[name])
    builds = []
    build = type(group)._build_group_law2
    monkeypatch.setattr(type(group), "_build_group_law2",
                        lambda self, D2, N: builds.append(D2) or build(self, D2, N))
    wide = group.group_law2(20, 4)
    narrow = group.group_law2(12, 4)  # served from the wide law by _narrow
    assert builds == [20]
    for F in (wide, narrow):
        f = group.pi_series(F.D, 4)
        half = TruncSeries2.from_grid(F.desc, F.D, "scaled", F.grid().astype(object), 2)
        for s in (F, F * F, F + F, F - F.scalar_mul(2), f.compose(F), substitute2_into2(F, f, f),
                  half, half * half, half + half):
            assert_layout(s)


# ------------------------------------------------------- the int64 budget

@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 1)])
def test_product_at_the_int64_edge(p, f):
    # every entry m - 1: unreduced sums of one homogeneous part would pass
    # the int64 range long before the window ends
    D = 24
    N = max(N for N in range(1, 40) if contraction_dtype(D, RingDescriptor(p, f, N)) is np.int64)
    desc = RingDescriptor(p, f, N)
    grid = TruncSeries2.zero(desc, D).grid()
    assert grid.dtype == np.int64
    grid[np.add.outer(np.arange(D), np.arange(D)) < D] = desc.pN - 1
    S = TruncSeries2.from_grid(desc, D, "integral", grid)
    wide = TruncSeries2(desc, D, "integral", S.data.astype(object))
    got, want = S * S, wide * wide
    assert got.data.dtype == np.int64 and want.data.dtype == object
    assert np.array_equal(got.data, want.data)
    # (m - 1)^2 = 1: X^i Y^j of the square counts the ways to split it
    if f == 1:
        i, j = np.indices((D, D))
        ways = np.where(i + j < D, (i + 1) * (j + 1), 0) % desc.pN
        assert np.array_equal(got.grid()[..., 0], ways)
