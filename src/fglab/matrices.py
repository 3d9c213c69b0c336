"""Matrix model of the Teichmuller scalar action on torsion lattices.

A generator zeta of mu_{q-1} acts on the rank-h_r torsion lattice of a
full-height group semilinearly; in the right basis (pairs ordered reverse
dictionary, so the last index varies slowest) the matrix is block diagonal
with n copies of the m x m cyclic shift, where m is the degree of the
multiplier field over the base and n = h_r / m.  Everything here is small
exact integer linear algebra over that matrix: the circulant test for a
commuting block, the commutant dimension n^2 m, and the unit-filtration
quotient orders that the torsion degrees have to match.
"""

import math

import numpy as np


def _cyclic_shift(m: int):
    """The m x m permutation matrix with first row 0..0 1 and ones below
    the diagonal.  Its m-th power is the identity."""
    A = np.zeros((m, m), dtype=np.int64)
    A[0, m - 1] = 1
    for i in range(1, m):
        A[i, i - 1] = 1
    return A


class BlockMatrixSpec:
    """Block-diagonal model: n diagonal copies of the m x m cyclic shift."""

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("block sizes must be positive")
        self.m = m
        self.n = n
        self.size = m * n
        self.block = _cyclic_shift(m)
        self.matrix = np.kron(np.eye(n, dtype=np.int64), self.block)

    def __repr__(self):
        return f"BlockMatrixSpec(m={self.m}, n={self.n})"


def build_phi_zeta(m: int, n: int) -> BlockMatrixSpec:
    """Matrix of the zeta action: n diagonal blocks, each the m-cycle."""
    return BlockMatrixSpec(m, n)


def check_relations(Y):
    """Does the m x m block Y commute with the cyclic shift?

    Y is one matrix, with a bool verdict, or a stack (..., m, m), with a
    bool array of verdicts of shape (...).  Two independent tests: the
    matrix identity AY = YA, and the circulant pattern y[r][r+i] = y[0][i]
    for each wrapped offset i.  They are equivalent for any coefficient
    ring; disagreement is a bug, not a verdict.
    """
    Y = np.asarray(Y)
    if Y.ndim < 2 or Y.shape[-1] != Y.shape[-2]:
        raise ValueError("expected square matrices")
    m = Y.shape[-1]
    A = _cyclic_shift(m)
    commutes = (A @ Y == Y @ A).all(axis=(-2, -1))
    wrap = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    circulant = (Y == Y[..., 0, :][..., wrap]).all(axis=(-2, -1))
    if (commutes != circulant).any():
        raise AssertionError("circulant test disagrees with commutation")
    return commutes if commutes.ndim else bool(commutes)


def _rank_unit_pivots(M, mod: int) -> int:
    """Row reduce over Z/mod using unit pivots only; returns pivot count.

    For prime mod this is plain Gaussian elimination.  The rows are Python
    int lists, which these small matrices eliminate faster than numpy
    scalar indexing does."""
    M = (np.array(M, dtype=np.int64) % mod).tolist()
    r = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, len(M)) if math.gcd(M[i][c], mod) == 1), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, mod)
        top = M[r] = [v * inv % mod for v in M[r]]
        for i, row in enumerate(M):
            if i != r and row[c]:
                k = row[c]
                M[i] = [(v - k * t) % mod for v, t in zip(row, top)]
        r += 1
        if r == len(M):
            break
    return r


def commutant_dimension(spec: BlockMatrixSpec, p: int = 3) -> int:
    """Dimension over F_p of the space of matrices commuting with spec.

    Solves X phi = phi X as a Sylvester-style system on the h_r^2 matrix
    entries and returns the kernel dimension, which equals n^2 m for these
    block-cyclic matrices: each of the n^2 blocks of a commuting matrix is
    free to be any polynomial in the m-cycle.  The system has integer
    entries and unit pivots, so the residue rank equals the generic rank;
    that equality is asserted by recomputing with unit pivots mod p^2.
    """
    Phi = spec.matrix
    h = spec.size
    eye = np.eye(h, dtype=np.int64)
    M = np.kron(Phi.T, eye) - np.kron(eye, Phi)
    r = _rank_unit_pivots(M, p)
    r2 = _rank_unit_pivots(M, p * p)
    if r != r2:
        raise AssertionError("residue rank differs from rank mod p^2")
    return h * h - r


def unit_quotient_order(q_h: int, n: int) -> int:
    """Order of the quotient of principal units U_0 / U_n in the field with
    residue size q_h: (q_h - 1) q_h^(n-1).  Matches the certified degree of
    the level-n torsion field of a full-height group."""
    if n < 1:
        raise ValueError("level must be positive")
    return (q_h - 1) * q_h ** (n - 1)
