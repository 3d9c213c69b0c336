"""Block-cyclic matrix model: construction, circulant test, commutant."""

import itertools

import numpy as np
import pytest

from fglab.groups import lubin_tate_group
from fglab.padic import RingDescriptor
from fglab.matrices import (
    BlockMatrixSpec,
    build_phi_zeta,
    check_relations,
    commutant_dimension,
    unit_quotient_order,
)
from fglab.torsion import certify_torsion_degree


class TestBuild:
    def test_trivial(self):
        spec = build_phi_zeta(1, 1)
        assert spec.matrix.tolist() == [[1]]

    def test_two_cycle(self):
        spec = build_phi_zeta(2, 1)
        assert spec.block.tolist() == [[0, 1], [1, 0]]

    def test_block_diagonal(self):
        spec = build_phi_zeta(3, 2)
        M = spec.matrix
        assert M.shape == (6, 6)
        assert np.array_equal(M[:3, :3], spec.block)
        assert np.array_equal(M[3:, 3:], spec.block)
        assert not M[:3, 3:].any()
        assert not M[3:, :3].any()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_cycle_order(self, m):
        A = build_phi_zeta(m, 1).block
        assert np.array_equal(np.linalg.matrix_power(A, m), np.eye(m, dtype=np.int64))
        for k in range(1, m):
            assert not np.array_equal(np.linalg.matrix_power(A, k), np.eye(m, dtype=np.int64))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockMatrixSpec(0, 1)


class TestRelations:
    def test_identity(self):
        assert check_relations([[1, 0], [0, 1]])

    def test_circulant(self):
        assert check_relations([[1, 2], [2, 1]])

    def test_non_circulant(self):
        assert not check_relations([[1, 2], [3, 4]])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exhaustive_mod_three(self, m):
        # every m x m matrix over F_3: the circulant pattern and commutation
        # must agree entry by entry
        A = build_phi_zeta(m, 1).block
        single = []
        for entries in itertools.product(range(3), repeat=m * m):
            Y = np.array(entries, dtype=np.int64).reshape(m, m)
            commutes = np.array_equal((A @ Y) % 3, (Y @ A) % 3)
            # verdict over Z differs from F_3 only through entry reduction,
            # so feed the reduced matrix
            single.append(check_relations(Y % 3))
            assert single[-1] == commutes
        # the whole stack at once: one verdict per matrix, the same ones
        stack = np.array(list(itertools.product(range(3), repeat=m * m))).reshape(-1, m, m)
        verdicts = check_relations(stack)
        assert verdicts.shape == (3 ** (m * m),)
        assert verdicts.tolist() == single

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            check_relations([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            check_relations(np.zeros((4, 2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            check_relations([1, 2, 3])


class TestCommutant:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dimension_grid(self, m, n):
        assert commutant_dimension(build_phi_zeta(m, n)) == n * n * m

    def test_known_values(self):
        assert commutant_dimension(build_phi_zeta(2, 2)) == 8
        assert commutant_dimension(build_phi_zeta(3, 1)) == 3
        for k in (1, 2, 3):
            assert commutant_dimension(build_phi_zeta(1, k)) == k * k

    def test_other_characteristic(self):
        assert commutant_dimension(build_phi_zeta(2, 2), p=5) == 8
        assert commutant_dimension(build_phi_zeta(3, 2), p=5) == 12


class TestUnitQuotient:
    def test_values(self):
        assert unit_quotient_order(9, 2) == 72
        assert unit_quotient_order(3, 1) == 2
        assert unit_quotient_order(25, 3) == 15000

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            unit_quotient_order(9, 0)

    def test_matches_torsion_degrees(self):
        # degree/order consistency across modules
        lt = lubin_tate_group(RingDescriptor(3, 1, 8), [0, 3, 0, 1])
        for n in (1, 2):
            cert = certify_torsion_degree(lt, n)
            assert unit_quotient_order(3, n) == cert["certified_degree"]
        h2 = lubin_tate_group(RingDescriptor(3, 2, 8), [0, 3] + [0] * 7 + [1])
        cert = certify_torsion_degree(h2, 1)
        assert unit_quotient_order(9, 1) == cert["certified_degree"]
