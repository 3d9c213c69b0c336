"""The fixed cost of each hot kernel call, and the routes it replaced.

padic.ring_mul at f = 1 is one prod call on the single slices;
TruncSeries1.compose contracts the power stack with one np.matmul;
cli.build_parser declares the shared flags once on a parent parser;
matrices._rank_unit_pivots eliminates on Python int rows; padic.convolve
is the one convolution, broadcasting over stacks; padic.unit_inverse
inverts a stack of units in one Newton iteration; TruncSeries1.derivative
is one multiply by the degrees.  Each replaced route is kept here as an
oracle the new one must equal, and each saving is guarded by a count, not
a timing.
"""

import argparse
import ast
import functools
import math
import random
from pathlib import Path

import numpy as np
import pytest

import fglab
from fglab import cli
from fglab.matrices import _rank_unit_pivots, build_phi_zeta
from fglab.padic import RingDescriptor, UnramifiedRingElem, convolve, ring_mul, unit_inverse
from fglab.precision import newton_steps
from fglab.series import TruncSeries1, TruncSeries2, _common, _one, _powers
from numpy.lib.stride_tricks import sliding_window_view
from test_series_kernel import COMPOSE_DOMAINS, random_pointed


# ------------------------------------------------------------------ ring_mul

def loop_ring_mul(A, B, desc, m, prod):
    """The general slice loop of ring_mul, taken at every f: partial
    products gathered by the power they carry, reduced, then folded back
    with the structure table."""
    f = desc.f
    xs = [(a, A[..., a]) for a in range(f) if f == 1 or A[..., a].any()]
    ys = [(b, B[..., b]) for b in range(f) if f == 1 or B[..., b].any()]
    cross = [None] * (2 * f - 1)
    for a, x in xs:
        for b, y in ys:
            c = prod(x, y)
            if cross[a + b] is not None:
                c = c + cross[a + b]
            cross[a + b] = c if m is None else c % m
    if not (xs and ys):
        cross[0] = prod(A[..., 0], B[..., 0])
    if f == 1:
        out = cross[0][..., None]
    else:
        zero = np.zeros_like(next(c for c in cross if c is not None))
        C = np.stack([zero if c is None else c for c in cross], axis=-1)
        T = desc.structure_table()
        R = [T[0][k] if k < f else T[f - 1][k - f + 1] for k in range(2 * f - 1)]
        if m is not None:
            R = [[v % m for v in row] for row in R]
        out = C @ np.array(R, dtype=C.dtype)
    return out if m is None or f == 1 else out % m


# (p, N, m is the modulus, dtype): int64 residues, object residues past a
# machine word, and exact numerators with m = None
RING_DATA = [(3, 8, True, np.int64), (5, 40, True, object), (3, 4, False, object)]

PRODS = {
    "convolve": lambda x, y: np.convolve(x, y)[:6],
    "matmul": np.matmul,
    "outer": np.multiply.outer,
    "transpose": lambda x, y: x.T @ y,
}


def _draw(shape, desc, modular, dtype, rng):
    """Residues mod p^N, or signed numerators past a machine word."""
    lo, hi = (0, desc.pN) if modular else (-10**30, 10**30)
    values = np.zeros(shape, dtype=object)
    for idx in np.ndindex(*shape):
        values[idx] = rng.randrange(lo, hi)
    return values.astype(dtype)


@pytest.mark.parametrize("p,N,modular,dtype", RING_DATA)
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("name", list(PRODS))
def test_ring_mul_equals_the_slice_loop(p, N, modular, dtype, f, name):
    rng = random.Random(f"{p}-{N}-{modular}-{f}-{name}")
    desc = RingDescriptor(p, f, N)
    m = desc.pN if modular else None
    shapes = {"convolve": ((6,), (6,)), "matmul": ((3, 4), (4, 5)),
              "outer": ((4,), (3,)), "transpose": ((4, 3), (4, 2))}[name]
    A, B = (_draw(s + (f,), desc, modular, dtype, rng) for s in shapes)
    for a, b in ((A, B), (A * 0, B), (A, B * 0)):
        got = ring_mul(a, b, desc, m, PRODS[name])
        want = loop_ring_mul(a, b, desc, m, PRODS[name])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()


@pytest.mark.parametrize("p,N,modular,dtype", RING_DATA)
def test_ring_mul_at_f1_calls_prod_once(p, N, modular, dtype):
    rng = random.Random(p * N)
    desc = RingDescriptor(p, 1, N)
    m = desc.pN if modular else None
    A, B = (_draw((6, 1), desc, modular, dtype, rng) for _ in range(2))
    for a, b in ((A, B), (A * 0, B)):
        calls = []
        ring_mul(a, b, desc, m, lambda x, y: calls.append(1) or np.convolve(x, y))
        assert len(calls) == 1


# ------------------------------------------------------------------- compose

def tensordot_compose(outer, g):
    """outer(g) by the two routes of TruncSeries1.compose, the sparse one
    with its powers by repeated products, each contraction an np.tensordot
    over the unflattened power stack."""
    kind, desc, D, domain = type(g), outer.desc, outer.D, outer.domain
    m = outer._modulo()
    nz = outer.nonzero_degrees()
    if not nz:
        return kind.zero(desc, D, domain)

    def sums(rows, stack, den):
        out = ring_mul(rows, stack, desc, m, functools.partial(np.tensordot, axes=1))
        return [kind(desc, D, domain, part, den) for part in out]

    if len(nz) <= 10:
        powers = {0: _one(g), 1: g}
        for k in range(2, nz[-1] + 1):
            powers[k] = powers[k - 1] * g
        return sums(outer.data[nz][None], *_common([powers[k] for k in nz]))[0]._divided(outer.den)
    n = nz[-1] + 1
    s = math.isqrt(n - 1) + 1
    blocks = -(-n // s)
    baby, den = _powers(g, s + 1)
    coeffs = np.zeros((blocks * s, desc.f), dtype=outer.data.dtype)
    coeffs[:n] = outer.data[:n]
    parts = sums(coeffs.reshape(blocks, s, desc.f), baby[:s], den)
    giant = g._new(baby[s], den)
    acc = parts[-1]
    for part in parts[-2::-1]:
        acc = acc * giant + part
    return acc._divided(outer.den)


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("kind", [TruncSeries1, TruncSeries2])
@pytest.mark.parametrize("support", ["sparse", "dense"])
def test_matmul_compose_equals_tensordot_compose(p, N, domain, dtype, f, kind, support):
    rng = random.Random(f"matmul-{p}-{N}-{domain}-{f}-{kind.__name__}-{support}")
    d, D = RingDescriptor(p, f, N), 12
    degrees = {1, 4, 7, 11} if support == "sparse" else set(range(D))
    outer = random_pointed(TruncSeries1, d, D, domain, rng, degrees=degrees)
    # the addition chain for the sparse outer series, the block sums for the dense
    assert (len(outer.nonzero_degrees()) <= 10) == (support == "sparse")
    g = random_pointed(kind, d, D, domain, rng)
    got, want = outer.compose(g), tensordot_compose(outer, g)
    assert type(got) is kind and got.data.dtype == want.data.dtype == dtype
    assert got == want


def test_no_tensordot_in_src():
    # the series contraction keeps one form: np.matmul on a flattened stack
    src = Path(fglab.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr == "tensordot")
             or (isinstance(node, ast.Name) and node.id == "tensordot")
             or (isinstance(node, ast.alias) and node.name == "tensordot")]
    assert found == []


# -------------------------------------------------------------------- parser

def test_parser_declares_the_shared_flags_once(monkeypatch):
    # one -h per parser (the top one and five subcommands), --config and
    # the KEYS flags once on the parent: 6 + 1 + 12
    calls = []
    add = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    cli.build_parser()
    assert len(cli.KEYS) == 12
    assert len(calls) == 19
    assert calls.count(("-h", "--help")) == 6


# ---------------------------------------------------------------------- rank

def numpy_rank_unit_pivots(M, mod):
    """Unit-pivot elimination over Z/mod by scalar indexing of an int64
    array."""
    M = np.array(M, dtype=np.int64) % mod
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if math.gcd(int(M[i, c]), mod) == 1:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, mod)) % mod
        for i in range(rows):
            if i != r and M[i, c]:
                M[i] = (M[i] - M[i, c] * M[r]) % mod
        r += 1
        if r == rows:
            break
    return r


@pytest.mark.parametrize("mod", [3, 9, 25, 27])
def test_int_row_rank_equals_numpy_rank_on_random_matrices(mod):
    rng = np.random.default_rng(mod)
    p = 5 if mod == 25 else 3
    ranks = set()
    for _ in range(60):
        rows, cols = rng.integers(1, 9, size=2)
        M = rng.integers(-mod, mod, size=(rows, cols))
        # many non-units, and some rank deficiency, so every branch is taken
        M[rng.random(M.shape) < 0.5] *= p
        if rows > 1 and rng.random() < 0.3:
            M[-1] = M[0] * 2
        got = _rank_unit_pivots(M, mod)
        assert got == numpy_rank_unit_pivots(M, mod)
        ranks.add(got)
    assert len(ranks) > 3
    assert _rank_unit_pivots(np.zeros((0, 4), dtype=np.int64), mod) == 0


@pytest.mark.parametrize("p", [3, 5])
def test_int_row_rank_equals_numpy_rank_on_the_commutant_grid(p):
    for m in range(1, 4):
        for n in range(1, 4):
            Phi = build_phi_zeta(m, n).matrix
            eye = np.eye(m * n, dtype=np.int64)
            M = np.kron(Phi.T, eye) - np.kron(eye, Phi)
            for mod in (p, p * p):
                assert _rank_unit_pivots(M, mod) == numpy_rank_unit_pivots(M, mod)


# ---------------------------------------------------------------- convolve

def window_convolve(x, y):
    """The full convolution along the last axis, the leading axes
    broadcast, as one contraction of x reversed with the windows of y
    padded by len(x) - 1 zeros on each side."""
    n, k = x.shape[-1], y.shape[-1]
    padded = np.zeros(y.shape[:-1] + (2 * n + k - 2,), dtype=y.dtype)
    padded[..., n - 1:n - 1 + k] = y
    win = sliding_window_view(padded, n + k - 1, axis=-1)
    return np.einsum("...i,...it->...t", x[..., ::-1], win)


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("shapes", [((12,), (12,)), ((10, 12), (10, 12)), ((10, 12), (12,)),
                                    ((5,), (3, 7)), ((3, 1, 5), (1, 4, 7)), ((2, 40), (2, 9))])
def test_convolve_equals_the_windowed_contraction(dtype, shapes):
    rng = np.random.default_rng(len(shapes[0]) * 100 + shapes[1][-1])
    x, y = (rng.integers(-3**12, 3**12, size=s).astype(dtype) for s in shapes)
    full = window_convolve(x, y)
    for n in (None, 1, min(x.shape[-1], y.shape[-1]), x.shape[-1] + y.shape[-1] - 1):
        got = convolve(x, y, n)
        assert got.dtype == full.dtype
        assert (got == full[..., :n]).all() and got.shape == full[..., :n].shape


def test_convolve_and_windows_stay_in_the_one_kernel():
    # every polynomial product of src/ takes its slices through
    # padic.convolve: np.convolve and the window views appear nowhere else
    # (padic imports as_strided for the kernel)
    windows = {"sliding_window_view", "as_strided"}
    src = Path(fglab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        kernel = {id(n) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "convolve" and path.name == "padic.py"
                  for n in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if id(node) not in kernel and (
            (isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "np"
             and node.attr in windows | {"convolve"})
            or (isinstance(node, ast.Name) and node.id in windows)
            or (isinstance(node, ast.alias) and node.name in windows
                and not (path.name == "padic.py" and node.name == "as_strided")))]
    assert found == []


# ------------------------------------------------------------ unit inverse

def element_invert(a):
    """The inverse of a unit element: in the residue field the (q-2)-th
    power by element products, above it refined by Newton steps of element
    products."""
    desc = a.desc
    res = a.residue()
    x = res.desc.one()
    for _ in range(desc.q - 2):
        x = x * res
    x = UnramifiedRingElem(desc, x.coeffs)
    two = desc.from_int(2)
    for _ in range(newton_steps(desc.N)):
        x = x * (two - a * x)
    return x


@pytest.mark.parametrize("p,f,N", [(3, 1, 1), (3, 1, 6), (5, 1, 6), (3, 2, 8), (5, 3, 4),
                                   (7, 2, 1), (31, 1, 14), (3, 2, 40)])
def test_unit_inverse_equals_the_element_newton_route(p, f, N):
    rng = random.Random(f"inverse-{p}-{f}-{N}")
    desc = RingDescriptor(p, f, N)
    units = []
    while len(units) < 12:
        a = UnramifiedRingElem(desc, [rng.randrange(desc.pN) for _ in range(f)])
        if a.is_unit():
            units.append(a)
    want = [element_invert(a) for a in units]
    assert [a.invert() for a in units] == want
    stacked = unit_inverse(np.array([a.coeffs for a in units], dtype=object).reshape(3, 4, f), desc)
    assert stacked.shape == (3, 4, f)
    assert [UnramifiedRingElem(desc, row) for row in stacked.reshape(-1, f).tolist()] == want
    with pytest.raises(ZeroDivisionError):
        unit_inverse([[1] + [0] * (f - 1), [p] * f], desc)


# -------------------------------------------------------------- derivative

def loop_derivative(s):
    """The derivative of one series by a loop over its degrees."""
    data = np.zeros_like(s.data)
    for k in range(1, s.D):
        data[k - 1] = s.data[k] * k
    return s._reduced(data, s.den)


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
def test_derivative_equals_the_degree_loop(p, N, domain, dtype, f):
    rng = random.Random(f"derivative-{p}-{N}-{domain}-{f}")
    d = RingDescriptor(p, f, N)
    for D in (1, 2, 12, 20):
        for _ in range(5):
            s = random_pointed(TruncSeries1, d, D, domain, rng)
            got = s.derivative()
            assert got.data.dtype == dtype or D < 12
            assert got == loop_derivative(s)
