"""The standard test corpus and the group factory used by the CLI.

Six groups exercise every code path: the multiplicative group at p = 3 and
5, the canonical one-parameter groups pX + X^p at the same primes, a
height-2 group 3X + X^9 over the unramified quadratic extension, and a
height-2 recursion-built group over Z_3 whose multiplier ring only fills
out after base change.

Construction precision is chosen above the working precision: the solver
for module structures divides by p^k - p once per degree block, and scalar
certificates for ring-element multipliers lose digits to the derivative of
the integral family a -> [a].  precision.construction_precision adds those
cushions so that every downstream window the suites will open stays
computable.
"""

import math

from .groups import FormalGroupLaw, HondaSeries, honda_group, lubin_tate_group, multiplicative_group
from .padic import RingDescriptor
from .precision import construction_precision, height_index


def canonical_lt_coeffs(p: int, d: int):
    """pX + X^(p^d), the simplest series with linear term p and unit term
    at the height-d index."""
    coeffs = [0] * (p**d + 1)
    coeffs[1] = p
    coeffs[p**d] = 1
    return coeffs


def source_height(p: int, source: str, d: int = 1, u=(), coeffs=None):
    """Height determined by the group source alone, before construction."""
    if source == "multiplicative":
        return 1
    if source == "lubin-tate":
        if coeffs is not None:
            unit = [k for k, c in enumerate(coeffs) if k >= 2 and c % p]
            return height_index(unit[0], p) if unit else math.inf
        return d
    if source == "honda":
        return HondaSeries(p, u).h
    raise ValueError(f"unknown group source: {source}")


def make_group(p: int, f: int, N: int, source: str, d: int = 1, u=(),
               coeffs=None, nmax: int = 2, label=None) -> FormalGroupLaw:
    """Build a group for working precision N; the descriptor carries the
    construction cushion on top."""
    h = source_height(p, source, d, u, coeffs)
    Nc = construction_precision(p, h, N, nmax)
    desc = RingDescriptor(p, f, Nc)
    if source == "multiplicative":
        return multiplicative_group(desc, label)
    if source == "lubin-tate":
        return lubin_tate_group(desc, coeffs if coeffs is not None else canonical_lt_coeffs(p, d), label)
    base = honda_group(RingDescriptor(p, 1, Nc), u, label)
    return base if f == 1 else base.base_change(f)


CORPUS_SPECS = (
    ("mult-p3", dict(p=3, f=1, source="multiplicative")),
    ("mult-p5", dict(p=5, f=1, source="multiplicative")),
    ("lt-p3", dict(p=3, f=1, source="lubin-tate", d=1)),
    ("lt-p5", dict(p=5, f=1, source="lubin-tate", d=1)),
    ("lt-h2-p3", dict(p=3, f=2, source="lubin-tate", d=2)),
    ("honda-h2-p3", dict(p=3, f=1, source="honda", u=(0, 1))),
)


def corpus(N: int = 8, nmax: int = 2):
    """The standard six groups at working precision N, as (name, group)."""
    out = []
    for name, spec in CORPUS_SPECS:
        out.append((name, make_group(N=N, nmax=nmax, label=name, **spec)))
    return out
