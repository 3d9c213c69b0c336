import random

import numpy as np
import pytest

import fglab.series
from fglab import (
    RingDescriptor,
    TruncSeries1,
    lubin_tate_group,
    honda_group,
    multiplicative_group,
)
from fglab.corpus import corpus
from fglab.padic import valuations
from fglab.torsion import torsion_count
from fglab.weier import (
    WeierstrassData,
    digit_split_step,
    division_polynomial,
    phi_basis_decompose,
    phi_reconstruct,
    weierstrass_divide,
    weierstrass_prep,
)


def ser(desc, coeffs, D):
    return TruncSeries1.from_coeffs(desc, coeffs, D)


def flat(s):
    return [int(v[0]) for v in s.data]


def lt_pi(p, N, D):
    g = lubin_tate_group(RingDescriptor(p, 1, N), [0, p] + [0] * (p - 2) + [1])
    return g, g.pi_series(D, N)


def oracle_prep(f, perturb=None):
    """The digit loop weierstrass_prep replaced: each p-digit divides the
    error digit by the unit residue over the whole window and splits the
    quotient at X^d, three window-D products a digit."""
    desc, D = f.desc, f.D
    p, N, m = desc.p, desc.N, desc.pN
    d = f.first_unit_index()
    if d == 0:
        return WeierstrassData(desc, 0, TruncSeries1.from_coeffs(desc, [1]), f)
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
        assert not (err.data % pm).any()
        Ebar = TruncSeries1(desc1, D, "integral", (err.data // pm % p).astype(err.data.dtype))
        t = Ebar * ubar_inv
        rho = t.data[:d] % p
        t_high = TruncSeries1.zero(desc1, D)
        t_high.data[: D - d] = t.data[d:]
        mu = (t_high * ubar).data % p
        P = TruncSeries1(desc, d + 1, "integral",
                         (P.data + pm * np.vstack([rho, np.zeros((1, desc.f), dtype=P.data.dtype)])) % m)
        U = TruncSeries1(desc, D, "integral", (U.data + pm * mu) % m)
    return WeierstrassData(desc, d, P, U)


def oracle_divide(f, prep):
    """The division loop weierstrass_divide replaced: M = X^d - P is held
    on the window D and each pass multiplies it by S at full window."""
    desc, D = f.desc, f.D
    d = prep.d
    if d == 0:
        return f, TruncSeries1.zero(desc, max(d, 1))
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
    assert cur.is_zero()
    return Q, R


def assert_bit_identical(got, want):
    for s, s0 in zip(got, want):
        assert s == s0 and s.data.dtype == s0.data.dtype


def prep_input(desc, d, D, rng):
    """A random series of window D with its first unit coefficient at d."""
    f = desc.f
    coeffs = [[rng.randrange(desc.pN) for _ in range(f)] for _ in range(D)]
    for k in range(d + 1):
        coeffs[k] = [c * desc.p for c in coeffs[k]]
    coeffs[d][rng.randrange(f)] += rng.randrange(1, desc.p)
    return ser(desc, coeffs, D)


class TestOracle:
    """weierstrass_prep against the window-D digit loop it replaced, oracle_prep."""

    @pytest.mark.parametrize("N", [4, 8])
    def test_corpus_division_polynomials_are_bit_identical(self, N):
        for name, group in corpus(N=N, nmax=3):
            for n in range(1, 5 - group.height):
                phi = division_polynomial(group, n, N=N).phi
                w, o = weierstrass_prep(phi), oracle_prep(phi)
                assert (w.d, w.P, w.U) == (o.d, o.P, o.U), (name, n)

    def test_random_inputs_agree_with_oracle(self):
        rng = random.Random(2022)
        for _ in range(120):
            # windows both below N*d and at or above it
            p, N, d = rng.choice((3, 5, 7)), rng.randrange(2, 7), rng.randrange(1, 7)
            desc, D = RingDescriptor(p, rng.choice((1, 2, 3)), N), rng.randrange(d + 2, N * d + 8)
            f = prep_input(desc, d, D, rng)
            perturb = None
            if rng.random() < 0.5:
                perturb = ser(desc, [[rng.randrange(desc.pN) for _ in range(desc.f)]
                                     for _ in range(D)], D)
            w, o = weierstrass_prep(f, perturb), oracle_prep(f, perturb)
            assert w.d == o.d == d
            assert ((w.P.data - o.P.data) % p**w.stable_digits == 0).all()
            if D >= N * d:
                assert w.P == o.P
            # f mod X^D pins U only up to the graded guard of
            # test_recovers_random_factorization, and its top d not at all
            for j in range(D - d):
                guard = p ** min(N, -(-(D - d - j) // d))
                assert ((w.U.data[j] - o.U.data[j]) % guard == 0).all()
            assert w.product() == f and o.product() == f

    @pytest.mark.parametrize("p,f,N,d,D", [(3, 1, 19, 2, 40), (3, 2, 19, 3, 60), (5, 1, 14, 4, 70)])
    def test_object_windows_agree_with_oracle(self, p, f, N, d, D):
        # p^N past the int64 budget at window D (at (3, 1, 19) not at d + 1)
        s = prep_input(RingDescriptor(p, f, N), d, D, random.Random(f"object-{p}-{f}-{N}"))
        assert s.data.dtype == object
        w, o = weierstrass_prep(s), oracle_prep(s)
        assert w.d == d and w.P == o.P and w.product() == s

    def test_each_product_has_a_short_factor(self, monkeypatch):
        # the gm-p3 level-4 model window: D = 648, d = 54, N = 12
        dp = division_polynomial(multiplicative_group(RingDescriptor(3, 1, 12)), 4)
        assert (dp.phi.D, dp.e, dp.phi.desc.N) == (648, 54, 12)
        rows = []
        ring_mul = fglab.series.ring_mul

        def counted(A, B, *args):
            rows.append(min(len(A), len(B)))
            return ring_mul(A, B, *args)

        monkeypatch.setattr(fglab.series, "ring_mul", counted)
        weierstrass_prep(dp.phi)
        assert rows and max(rows) <= dp.e + 1


class TestDivideOracle:
    """weierstrass_divide against the window-D loop it replaced, oracle_divide."""

    def test_random_inputs_are_bit_identical(self):
        # 3X + X^9 over f = 2 at N = 5, D = 243: the phi-basis window
        desc = RingDescriptor(3, 2, 5)
        pi = ser(desc, [0, 3] + [0] * 7 + [1], 243)
        prep = weierstrass_prep(pi)
        rng = random.Random(23)
        for _ in range(10):
            f = ser(desc, [[rng.randrange(desc.pN) for _ in range(2)] for _ in range(243)], 243)
            got = weierstrass_divide(f, prep)
            assert_bit_identical(got, oracle_divide(f, prep))
            Q, R = got
            assert Q * prep.P.lift(243) + R.lift(243) == f

    @pytest.mark.parametrize("p,f,N,d,D", [(3, 1, 6, 2, 20), (5, 2, 4, 4, 30), (3, 1, 19, 2, 40),
                                           (3, 2, 19, 3, 60)])
    def test_prepared_inputs_are_bit_identical(self, p, f, N, d, D):
        # the last two past the int64 budget at window D: object data
        desc = RingDescriptor(p, f, N)
        rng = random.Random(f"divide-{p}-{f}-{N}")
        prep = weierstrass_prep(prep_input(desc, d, D, rng))
        for _ in range(3):
            s = ser(desc, [[rng.randrange(desc.pN) for _ in range(f)] for _ in range(D)], D)
            assert_bit_identical(weierstrass_divide(s, prep), oracle_divide(s, prep))

    def test_each_product_has_a_short_factor(self, monkeypatch):
        desc = RingDescriptor(3, 2, 5)
        prep = weierstrass_prep(ser(desc, [0, 3] + [0] * 7 + [1], 243))
        f = ser(desc, [[k % 7, k % 5] for k in range(243)], 243)
        rows = []
        ring_mul = fglab.series.ring_mul

        def counted(A, B, *args):
            rows.append(min(len(A), len(B)))
            return ring_mul(A, B, *args)

        monkeypatch.setattr(fglab.series, "ring_mul", counted)
        weierstrass_divide(f, prep)
        assert rows and max(rows) <= prep.d


class TestPrep:
    def test_lubin_tate_series_is_its_own_distinguished_part(self):
        desc = RingDescriptor(3, 1, 8)
        f = ser(desc, [0, 3, 0, 1], 20)
        w = weierstrass_prep(f)
        assert w.d == 3
        assert flat(w.P) == [0, 3, 0, 1]
        assert w.U == ser(desc, [1], 20)

    def test_split_eisenstein_times_unit(self):
        desc = RingDescriptor(5, 1, 9)
        f = ser(desc, [5, 0, 1], 24) * ser(desc, [1, 1], 24)
        w = weierstrass_prep(f)
        assert w.d == 2
        assert flat(w.P) == [5, 0, 1]
        assert w.U == ser(desc, [1, 1], 24)

    def test_unit_input_gives_trivial_factor(self):
        desc = RingDescriptor(3, 1, 6)
        f = ser(desc, [1, 7, 4], 12)
        w = weierstrass_prep(f)
        assert w.d == 0
        assert w.U == f

    def test_no_unit_coefficient_raises(self):
        desc = RingDescriptor(3, 1, 6)
        f = ser(desc, [0, 3, 3], 30)
        with pytest.raises(ValueError, match="Weierstrass degree exceeds truncation"):
            weierstrass_prep(f)

    def test_uniqueness_under_perturbed_start(self):
        desc = RingDescriptor(3, 1, 7)
        rng = random.Random(11)
        D = 18
        for _ in range(5):
            coeffs = [0, 3 * rng.randrange(1, 3)]
            coeffs += [rng.randrange(desc.pN) * 3 for _ in range(3)]
            coeffs += [1 + 3 * rng.randrange(3)]
            coeffs += [rng.randrange(desc.pN) for _ in range(4)]
            f = ser(desc, coeffs, D)
            w1 = weierstrass_prep(f)
            pert = ser(desc, [rng.randrange(desc.pN) for _ in range(D)], D)
            w2 = weierstrass_prep(f, perturb=pert)
            # window D pins the distinguished factor down to stable_digits
            guard = 3**w1.stable_digits
            assert w1.stable_digits >= 2
            assert ((w1.P.data - w2.P.data) % guard == 0).all()

    def test_full_precision_agreement_at_wide_window(self):
        desc = RingDescriptor(3, 1, 5)
        rng = random.Random(13)
        D = 40  # >= N*d for d=5, so every digit of P is stable
        for _ in range(3):
            coeffs = [0, 3, 9, 6, 3, 1 + 3 * rng.randrange(3)]
            coeffs += [rng.randrange(desc.pN) for _ in range(D - 6)]
            f = ser(desc, coeffs, D)
            w1 = weierstrass_prep(f)
            pert = ser(desc, [rng.randrange(desc.pN) for _ in range(D)], D)
            w2 = weierstrass_prep(f, perturb=pert)
            assert w1.stable_digits == desc.N
            assert w1.P == w2.P

    def test_recovers_random_factorization(self):
        desc = RingDescriptor(3, 2, 6)
        rng = random.Random(5)
        D = 28  # >= N*d keeps the planted factor fully stable
        d = 4
        Pc = [[3 * rng.randrange(3), 3 * rng.randrange(3)] for _ in range(d)] + [[1, 0]]
        P = ser(desc, Pc, D)
        Uc = [[1 + 3 * rng.randrange(3), rng.randrange(9)]]
        Uc += [[rng.randrange(desc.pN), rng.randrange(desc.pN)] for _ in range(D - 1)]
        U = ser(desc, Uc, D)
        w = weierstrass_prep(P * U)
        assert w.d == d
        assert [list(r) for r in w.P.data] == Pc
        for j in range(D - d):
            guard = 3 ** min(desc.N, -(-(D - d - j) // d))
            assert ((w.U.data[j] - U.data[j]) % guard == 0).all()

    def test_divide_identity(self):
        desc = RingDescriptor(3, 1, 6)
        rng = random.Random(3)
        D = 20
        f = ser(desc, [rng.randrange(desc.pN) for _ in range(D)], D)
        pi = ser(desc, [0, 3, 0, 1], D)
        w = weierstrass_prep(pi)
        Q, R = weierstrass_divide(f, w)
        assert R.D == w.d
        assert Q * w.P.lift(D) + R.lift(D) == f


class TestDigitSplit:
    def test_x_to_the_q(self):
        g, pi = lt_pi(3, 6, 20)
        f = ser(pi.desc, [0, 0, 0, 1], 20)
        st = digit_split_step(f, pi)
        assert all(a.is_zero() for a in st.a)
        assert st.g == ser(pi.desc, [1], 20)
        # f1 = -X, represented mod p^(N-1) after the division by p
        assert flat(st.f1) == [0, 3 ** (pi.desc.N - 1) - 1, 0]

    def test_pi_series_itself(self):
        g, pi = lt_pi(3, 6, 20)
        st = digit_split_step(pi, pi)
        assert all(a.is_zero() for a in st.a)
        assert st.g == ser(pi.desc, [1], 20)
        assert st.f1.is_zero()

    def test_low_degree_passthrough(self):
        g, pi = lt_pi(3, 6, 20)
        f = ser(pi.desc, [0, 0, 1], 20)
        st = digit_split_step(f, pi)
        assert [a.coeffs[0] for a in st.a] == [0, 0, 1]
        assert st.g.is_zero()
        assert st.f1.is_zero()

    def test_random_identity_and_teichmuller_digits(self):
        g, pi = lt_pi(3, 7, 24)
        desc = pi.desc
        rng = random.Random(19)
        for _ in range(6):
            f = ser(desc, [rng.randrange(desc.pN) for _ in range(24)], 24)
            st = digit_split_step(f, pi)
            back = pi * st.g + st.f1.lift(24).scalar_mul(3)
            for i, ai in enumerate(st.a):
                back.data[i] = (back.data[i] + np.array(ai.coeffs, dtype=back.data.dtype)) % desc.pN
            assert back == f
            for ai in st.a:
                aq = ai
                for _ in range(desc.f):
                    aq = aq * aq * aq  # a^(p^f)
                assert aq == ai  # digits lie in mu_{q-1} or are 0


class TestPhiBasis:
    def test_pi_series_has_component_x(self):
        g, pi = lt_pi(3, 6, 27)
        dec = phi_basis_decompose(pi, pi)
        assert flat(dec.components[0])[:2] == [0, 1]
        assert all(c.is_zero() for c in dec.components[1:])
        assert dec.components[0].nonzero_degrees() == [1]

    def test_monomial_component(self):
        g, pi = lt_pi(3, 6, 27)
        f = ser(pi.desc, [0, 0, 1], 27)
        dec = phi_basis_decompose(f, pi)
        assert dec.components[2].nonzero_degrees() == [0]
        assert int(dec.components[2].data[0, 0]) == 1
        assert dec.components[0].is_zero() and dec.components[1].is_zero()

    def test_zero_decomposes_to_zero(self):
        g, pi = lt_pi(3, 4, 27)
        dec = phi_basis_decompose(TruncSeries1.zero(pi.desc, 27), pi)
        assert all(c.is_zero() for c in dec.components)
        assert dec.remainder.is_zero()

    def test_random_reconstruction_with_remainder_is_exact(self):
        g, pi = lt_pi(3, 4, 27)
        desc = pi.desc
        rng = random.Random(101)
        for _ in range(8):
            f = ser(desc, [rng.randrange(desc.pN) for _ in range(27)], 27)
            dec = phi_basis_decompose(f, pi)
            recon = phi_reconstruct(dec, pi)
            assert recon == f

    def test_graded_window_without_remainder(self):
        g, pi = lt_pi(3, 4, 27)
        desc = pi.desc
        rng = random.Random(55)
        for _ in range(4):
            f = ser(desc, [rng.randrange(desc.pN) for _ in range(27)], 27)
            dec = phi_basis_decompose(f, pi)
            recon = phi_reconstruct(dec, pi, include_remainder=False)
            diff = (recon - f).data
            for t in range(27):
                guard = 3 ** min(4, -(-(27 - t) // 2))
                assert (diff[t] % guard == 0).all()

    def test_round_trip_on_sparse_components(self):
        g, pi = lt_pi(3, 5, 36)
        desc = pi.desc
        rng = random.Random(77)
        comps = []
        f = TruncSeries1.zero(desc, 36)
        for i in range(3):
            c = [rng.randrange(desc.pN) for _ in range(3)]
            comps.append(c)
            f = f + ser(desc, c, 36).compose(pi).shift(i)
        dec = phi_basis_decompose(f, pi)
        for i in range(3):
            assert flat(dec.components[i])[:3] == [v % desc.pN for v in comps[i]]

    def test_height_two_coefficient_ring(self):
        g = lubin_tate_group(RingDescriptor(3, 2, 5), [0, 3, 0, 0, 0, 0, 0, 0, 0, 1])
        pi = g.pi_series(81, 5)
        desc = pi.desc
        rng = random.Random(9)
        f = ser(desc, [[rng.randrange(desc.pN), rng.randrange(desc.pN)] for _ in range(81)], 81)
        dec = phi_basis_decompose(f, pi)
        assert dec.D_prime == 9
        assert phi_reconstruct(dec, pi) == f


class TestDivisionPolynomial:
    def test_lubin_tate_level_one(self):
        g, _ = lt_pi(3, 8, 12)
        dp = division_polynomial(g, 1)
        assert dp.e == 2
        assert flat(dp.P) == [3, 0, 1]
        assert torsion_count(g, 1)["weierstrass_degree"] == 3

    def test_lubin_tate_level_two_relative_series(self):
        g, pi = lt_pi(3, 8, 92)
        dp = division_polynomial(g, 2)
        assert dp.e == 6
        assert dp.P.data.shape[0] == 7
        # relative series for pX + X^p: p + ([p](X))^(p-1)
        expect = pi.truncate(dp.phi.D) * pi.truncate(dp.phi.D)
        expect.data[0] = (expect.data[0] + 3) % pi.desc.pN
        assert dp.phi == expect

    def test_multiplicative_level_one(self):
        g = multiplicative_group(RingDescriptor(3, 1, 8))
        dp = division_polynomial(g, 1)
        assert flat(dp.P) == [3, 3, 1]

    def test_telescoping_degrees(self):
        g, _ = lt_pi(3, 8, 12)
        degs = [division_polynomial(g, n).e for n in (1, 2)]
        assert 1 + sum(degs) == 9
        assert torsion_count(g, 2)["weierstrass_degree"] == 9

    def test_height_two_level_one(self):
        g = lubin_tate_group(RingDescriptor(3, 2, 8), [0, 3, 0, 0, 0, 0, 0, 0, 0, 1])
        dp = division_polynomial(g, 1)
        assert dp.e == 8
        c0 = dp.P.coefficient(0)
        assert valuations(np.array(c0.coeffs, dtype=object), 3, c0.desc.N).min() == 1

    def test_honda_level_one(self):
        g = honda_group(RingDescriptor(3, 1, 6), (0, 1))
        dp = division_polynomial(g, 1)
        assert dp.e == 8
        assert torsion_count(g, 1)["weierstrass_degree"] == 9
