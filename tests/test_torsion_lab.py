import random
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from fglab.corpus import CORPUS_SPECS, corpus, make_group
from fglab.padic import INF, RingDescriptor, ring_mul
from fglab.groups import (FormalGroupLaw, ObstructionError, honda_group, lubin_tate_group,
                          multiplicative_group, series_of)
from fglab.series import TruncSeries1, TruncSeries2, _mul_data
from fglab import torsion
from fglab.torsion import (
    NewtonPolygon,
    ResidueRootError,
    TorsionFieldModel,
    _direct_break_check,
    assumption_check,
    certify_torsion_degree,
    digit_sums,
    mu_p_membership,
    newton_polygon,
    ramification_breaks,
    torsion_count,
)


class Ungraded(FormalGroupLaw):
    """A group read with grading 1: its torsion model is the full ring
    O_K[z]/P_n on all e rows, the oracle of the graded model."""
    grading = 1


def full_model(model):
    """The full model of a model's group, level and precision."""
    g = Ungraded.__new__(Ungraded)
    g.__dict__.update(model.group.__dict__)  # the same artifacts and caches
    return TorsionFieldModel(g, model.level, model.N)


def scatter(model, G):
    """The full-model elements z^r G(z^d) of a stack of points of a model."""
    x = np.zeros(G.shape[:-2] + (model.e, G.shape[-1]), dtype=G.dtype)
    x[..., model.r::model.d, :] = G
    return x


def gm(p=3, N=8):
    return multiplicative_group(RingDescriptor(p, 1, N))


def lt3(N=10):
    return lubin_tate_group(RingDescriptor(3, 1, N), [0, 3, 0, 1])


def lt5(N=8):
    return lubin_tate_group(RingDescriptor(5, 1, N), [0, 5, 0, 0, 0, 1])


def h2lt(N=12):
    return lubin_tate_group(RingDescriptor(3, 2, N), [0, 3, 0, 0, 0, 0, 0, 0, 0, 1])


def honda1(N=8):
    return honda_group(RingDescriptor(3, 1, N), (0, 1))


def poly(desc, vals):
    D = len(vals)
    data = np.zeros((D, desc.f), dtype=object)
    for i, v in enumerate(vals):
        data[i, 0] = v % desc.pN
    return TruncSeries1(desc, D, "integral", data)


def two_pass_hull(points):
    """The lower hull built in two passes: pop the middle vertex on a
    strictly downward turn, then drop the collinear interior vertices."""
    verts = []
    for pt in points:
        while len(verts) >= 2:
            (x1, y1), (x2, y2) = verts[-2], verts[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) < 0:
                verts.pop()
            else:
                break
        verts.append(pt)
    clean = [verts[0]]
    for pt in verts[1:]:
        while len(clean) >= 2:
            (x1, y1), (x2, y2) = clean[-2], clean[-1]
            if (x2 - x1) * (pt[1] - y1) == (y2 - y1) * (pt[0] - x1):
                clean.pop()
            else:
                break
        clean.append(pt)
    return clean


class TestNewtonPolygon:
    def test_one_pass_hull_matches_two_pass(self):
        # points on the broken line y = max(0, 20 - 2x), or at random above
        # it, so that hull segments carry collinear interior points
        rng = random.Random(5)
        collinear = 0
        for _ in range(200):
            xs = sorted(rng.sample(range(30), rng.randint(2, 16)))
            pts = [(x, max(0, 20 - 2 * x) + (rng.randint(0, 6) if rng.random() < 0.4 else 0))
                   for x in xs]
            hull = two_pass_hull(pts)
            assert NewtonPolygon(xs[-1], pts).vertices == hull
            on_hull = [pt for pt in pts if pt[1] == max(0, 20 - 2 * pt[0])]
            collinear += len(on_hull) > len(set(on_hull) & set(hull))
        assert collinear > 100

    def test_pure_eisenstein(self):
        desc = RingDescriptor(3, 1, 6)
        ng = newton_polygon(poly(desc, [3, 3, 1, 0]), 2)
        assert ng.vertices == [(0, 1), (2, 0)]
        assert ng.is_pure()
        assert ng.segments[0]["root_valuation"] == Fraction(1, 2)

    def test_two_segments(self):
        desc = RingDescriptor(3, 1, 6)
        ng = newton_polygon(poly(desc, [9, 3, 0, 1]), 3)
        assert not ng.is_pure()
        assert [s["slope"] for s in ng.segments] == [Fraction(-1), Fraction(-1, 2)]
        assert [s["length"] for s in ng.segments] == [1, 2]

    def test_collinear_interior_point_dropped(self):
        desc = RingDescriptor(3, 1, 6)
        ng = newton_polygon(poly(desc, [9, 3, 1, 0]), 2)
        assert ng.vertices == [(0, 2), (2, 0)]
        assert ng.is_pure()

    def test_constant_term_below_precision_raises(self):
        desc = RingDescriptor(3, 1, 3)
        with pytest.raises(ValueError, match="indistinguishable"):
            newton_polygon(poly(desc, [27, 3, 1, 0]), 2)

    def test_window_must_exceed_degree(self):
        desc = RingDescriptor(3, 1, 4)
        with pytest.raises(ValueError, match="window"):
            newton_polygon(poly(desc, [3, 1]), 2)


class TestModel:
    def test_element_valuations(self):
        m = TorsionFieldModel(gm(), 1, 4)
        assert m.valuation(m.w()) == 1
        assert m.valuation(m.scal(m.one(), 3)) == m.e
        three_z = m.scal(m.w(), 3)
        assert m.valuation(m.add(three_z, m.mul(m.w(), m.w()))) == 2
        assert m.valuation(m.zero()) is INF

    def test_ring_axioms_sampled(self):
        m = full_model(TorsionFieldModel(h2lt(), 2, 4))
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.integers(0, m.desc.pN, size=(m.k, m.desc.f)).astype(m.dtype)
            b = rng.integers(0, m.desc.pN, size=(m.k, m.desc.f)).astype(m.dtype)
            c = rng.integers(0, m.desc.pN, size=(m.k, m.desc.f)).astype(m.dtype)
            assert m.equal(m.mul(a, b), m.mul(b, a))
            assert m.equal(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c)))
            assert m.equal(m.mul(a, m.add(b, c)),
                           m.add(m.mul(a, b), m.mul(a, c)))

    def test_invert_roundtrip(self):
        m = TorsionFieldModel(gm(), 2, 4)
        x = m.add(m.one(), m.w())
        assert m.equal(m.mul(x, m.invert(x)), m.one())
        with pytest.raises(ZeroDivisionError):
            m.invert(m.w())

    def test_exact_div_p(self):
        m = TorsionFieldModel(gm(), 1, 4)
        assert m.equal(m.exact_div_p(m.scal(m.w(), 3)), m.w())
        with pytest.raises(ValueError):
            m.exact_div_p(m.w())

    def test_pi_annihilates_z(self):
        m = TorsionFieldModel(gm(), 1, 4)
        assert m.equal(m.apply_pi(m.w()), m.zero())
        m2 = TorsionFieldModel(gm(), 2, 4)
        once = m2.apply_pi(m2.w())
        assert m2.valuation(once) == 3
        assert m2.equal(m2.apply_pi(once), m2.zero())

    def test_window_guard(self):
        m = TorsionFieldModel(gm(), 2, 4)
        short = m.group.pi_series(10, 4)
        with pytest.raises(ValueError, match="insufficient truncation"):
            m.eval_at_z(short)

    def test_additive_group_rejected(self):
        add = honda_group(RingDescriptor(3, 1, 6), ())
        with pytest.raises(ValueError, match="finite height"):
            TorsionFieldModel(add, 1, 4)

    def test_residue_and_from_ok(self):
        m = TorsionFieldModel(h2lt(), 1, 4)
        a = m.desc.from_int(5)
        assert m.residue(m.from_ok(a)).code() == a.residue().code()

    def test_from_ok_takes_a_rational_to_its_residue(self):
        m = TorsionFieldModel(gm(), 1, 4)
        half = m.from_ok(Fraction(1, 2))
        assert m.equal(half, m.from_ok(pow(2, -1, m.desc.pN)))
        assert m.equal(m.scal(half, 2), m.one())
        with pytest.raises(ValueError, match="not p-integral"):
            m.from_ok(Fraction(1, 3))


class TestCertify:
    @pytest.mark.parametrize("mk,n,e", [
        (gm, 1, 2), (gm, 2, 6),
        (lt3, 1, 2), (lt3, 2, 6),
        (lt5, 1, 4), (lt5, 2, 20),
        (h2lt, 1, 8), (honda1, 1, 8),
    ])
    def test_pure_slope(self, mk, n, e):
        rec = certify_torsion_degree(mk(), n)
        assert rec["pure"] and rec["totally_ramified"]
        assert rec["certified_degree"] == e
        assert rec["root_valuation"] == str(Fraction(1, e))

    def test_height_two_level_two(self):
        rec = certify_torsion_degree(h2lt(), 2)
        assert rec["certified_degree"] == 72
        assert rec["polygon"]["vertices"] == [[0, 1], [72, 0]]

    def test_degree_formula(self):
        for mk, h in ((gm, 1), (h2lt, 2)):
            g = mk()
            p = g.desc.p
            for n in (1, 2):
                rec = certify_torsion_degree(g, n)
                assert rec["certified_degree"] == (p**h - 1) * p ** (h * (n - 1))


class TestCount:
    def test_level_zero(self):
        assert torsion_count(gm(), 0)["weierstrass_degree"] == 1

    @pytest.mark.parametrize("mk,expect", [
        (gm, [3, 9]), (lt5, [5, 25]), (h2lt, [9, 81]), (honda1, [9, 81]),
    ])
    def test_counts(self, mk, expect):
        g = mk()
        for n, c in zip((1, 2), expect):
            rec = torsion_count(g, n)
            assert rec["match"] and rec["weierstrass_degree"] == c

    def test_additive_rejected(self):
        with pytest.raises(ValueError, match="finite height"):
            torsion_count(honda_group(RingDescriptor(3, 1, 6), ()), 1)


class TestAssumption:
    def test_multiplicative_level_one(self):
        rec = assumption_check(gm(), 1)
        assert rec["holds"] and rec["count"] == 3
        assert rec["valuations"] == {"inf": 1, "1": 2}

    def test_height_two_level_one(self):
        rec = assumption_check(h2lt(), 1)
        assert rec["holds"] and rec["count"] == 9
        assert rec["valuations"] == {"inf": 1, "1": 8}

    @pytest.mark.slow
    def test_height_two_level_two(self):
        rec = assumption_check(h2lt(), 2)
        assert rec["holds"] and rec["count"] == 81
        assert rec["valuations"] == {"inf": 1, "9": 8, "1": 72}

    def test_honda_over_prime_field_obstructed(self):
        rec = assumption_check(honda1(), 1)
        assert rec["holds"] is False
        assert rec["mode"] == "no-module-structure"

    def test_obstructed_module_reports_its_degree(self):
        # h = 2 divides f = 2, but the module solve is obstructed at degree 27
        g = make_group(p=3, f=2, N=4, source="honda", u=(0, 1, 1), nmax=1)
        assert assumption_check(g, 1) == {"level": 1, "holds": False, "mode": "obstructed",
                                          "obstruction": 27, "count": None, "expected": 9}
        with pytest.raises(ObstructionError, match="degree 27"):
            ramification_breaks(g, 1)
        # a measured record has no obstruction key
        assert "obstruction" not in assumption_check(gm(), 1)


class TestRamification:
    def test_multiplicative_two_levels(self):
        rec = ramification_breaks(gm(), 2)
        assert rec["all_match"]
        got = {(r["k"], r["i_sigma"]) for r in rec["breaks"]}
        assert got == {(0, "1"), (1, "3")}
        assert rec["identity_break"] == "inf"
        assert all(r["match"] for r in rec["direct_level_one"])

    def test_height_two_level_one(self):
        rec = ramification_breaks(h2lt(), 1)
        assert rec["all_match"] and len(rec["breaks"]) == 7
        assert {r["i_sigma"] for r in rec["breaks"]} == {"1"}
        assert all(r["match"] for r in rec["direct_level_one"])

    @pytest.mark.slow
    def test_height_two_level_two(self):
        rec = ramification_breaks(h2lt(), 2, N=5, cross_check=False)
        got = {(r["k"], r["i_sigma"]) for r in rec["breaks"]}
        assert rec["all_match"] and got == {(0, "1"), (1, "9")}

    def test_honda_over_prime_field_refused(self):
        with pytest.raises(ValueError, match="divide"):
            ramification_breaks(honda1(), 1)


class TestMuP:
    def test_multiplicative(self):
        for p in (3, 5):
            rec = mu_p_membership(gm(p=p), N=6)
            assert rec["found"] and rec["d"] == 1
            assert rec["attempts"][0]["witness_valuation"] == "inf"

    def test_height_two(self):
        rec = mu_p_membership(h2lt(), N=6)
        assert rec["found"] and rec["d"] <= 2

    def test_additive_rejected(self):
        with pytest.raises(ValueError, match="finite height"):
            mu_p_membership(honda_group(RingDescriptor(3, 1, 6), ()))

    def test_twisted_honda_over_f6_records_no_bare_exception(self, tmp_path):
        # d = 2 base-changes to f = 6, where the residue ring once had zero
        # divisors: a square with no square root made next() raise
        import json
        from fglab.cli import main
        out = tmp_path / "r.json"
        main(["torsion", "--group", "honda", "--p", "3", "--f", "3", "--u", "0,2",
              "--N", "4", "--nmax", "1", "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        assert [c for c in checks if "error" in c] == []

    def test_residue_without_root_is_a_named_error(self, monkeypatch):
        # over a field the power test is exact; a test that lies is caught.
        # For u = (2, 1) at p = 3 the level-1 residue is not a square
        g = honda_group(RingDescriptor(3, 1, 6), (2, 1))
        assert not mu_p_membership(g, d_max=1, N=4)["attempts"][0]["solvable"]
        monkeypatch.setattr(torsion, "residue_power_test", lambda r, n: True)
        with pytest.raises(ResidueRootError, match="no residue"):
            mu_p_membership(g, d_max=1, N=4)


# ----------------------------------------- per-element routes, as oracles
# The model once took one element at a time: products through the padded
# series product, valuations by a loop over entries, [p^n] point by point.

def oracle_mul(model, a, b):
    k, f, m = model.k, model.desc.f, model.desc.pN
    W = 2 * k - 1
    pa = np.zeros((W, f), dtype=model.dtype)
    pa[:k] = a
    pb = np.zeros((W, f), dtype=model.dtype)
    pb[:k] = b
    full = _mul_data(pa, pb, model.desc, W, m)
    low, high = full[:k], full[k:]
    if high.any():
        low = (low + ring_mul(high, model.red, model.desc, m, np.dot)) % m
    return low % m


def oracle_pow(model, a, k):
    out, base = model.one(), a
    while k:
        if k & 1:
            out = oracle_mul(model, out, base)
        base = oracle_mul(model, base, base)
        k >>= 1
    return out


def oracle_valuation(model, a):
    """v_L(a(w)) = d v_w(a) by a loop over entries."""
    best = INF
    p = model.desc.p
    for j in range(model.k):
        v = None
        for c in a[j]:
            c = int(c) % model.desc.pN
            if c == 0:
                continue
            w = 0
            while c % p == 0:
                c //= p
                w += 1
            v = w if v is None else min(v, w)
        if v is not None:
            best = min(best, model.k * v + j)
    return best if best is INF else model.d * best


def oracle_eval_at_z(model, s):
    """s(z) in the full model O_K[z]/P_n: the coefficients contracted with
    z^k, k < N e."""
    Z = model._w_powers(model.window)
    m = model.desc.pN
    data = (s.data[:len(Z)] % m).astype(Z.dtype)
    return ring_mul(data, Z, model.desc, m, np.matmul).astype(model.dtype)


def oracle_eval_series(model, s, x):
    m = model.desc.pN
    nz = s.nonzero_degrees()
    if not nz:
        return model.zero()
    if len(nz) <= 8:
        out = model.zero()
        for k in nz:
            out = (out + model.scal(oracle_pow(model, x, k), s.data[k])) % m
        return out
    acc = model.zero()
    for k in range(s.D - 1, -1, -1):
        acc = oracle_mul(model, acc, x)
        acc[0] = (acc[0] + s.data[k]) % m
    return acc % m


def oracle_eval_poly(model, c, x):
    """The model's polynomial evaluation before it kept one loop: a chain
    of powers over at most 8 nonzero terms, Horner's rule over every degree
    for more."""
    nz = np.flatnonzero((c != 0).any(axis=-1)).tolist()
    out = model.zero(x.shape[:-2])
    if not nz:
        return out
    m = model.desc.pN
    if len(nz) <= 8:
        power, deg = None, 0
        for k in nz:
            if not k:
                out[..., 0, :] = c[0] % m
                continue
            step = model.pow_int(x, k - deg)
            power = step if power is None else model.mul(power, step)
            deg = k
            out = model.add(out, model.scal(power, c[k]))
        return out
    out[..., 0, :] = c[nz[-1]] % m
    for k in range(nz[-1] - 1, -1, -1):
        out = model.mul(out, x)
        out[..., 0, :] = (out[..., 0, :] + c[k]) % m
    return out


def oracle_apply_pi(model, x, times=1):
    q, K = model.q, model.N * model.e
    val = oracle_valuation(model, x)
    v = max(1, val) if val is not INF else 1
    cur = x
    for _ in range(times):
        w = min(-(-K // v) + 1, K)
        cur = oracle_eval_series(model, model.group.pi_series(max(w, q + 1), model.N), cur)
        v = min(v * q, K)
    return cur


def oracle_eval2(model, F2, x, y):
    xp, yp = [model.one()], [model.one()]
    for _ in range(F2.D - 1):
        xp.append(oracle_mul(model, xp[-1], x))
        yp.append(oracle_mul(model, yp[-1], y))
    out = model.zero()
    for i, j, vec in F2.coeff_triples():
        term = model.scal(oracle_mul(model, xp[i], yp[j]), np.asarray(vec, dtype=model.dtype))
        out = model.add(out, term)
    return out


def oracle_assumption_check(group, n, N=4):
    if group.desc.f % group.height != 0:
        return {
            "level": n,
            "holds": False,
            "mode": "no-module-structure",
            "reason": "coefficient ring lacks mu_{q-1}: no O_F-scalars over this base",
            "count": None,
            "expected": group.q**n,
        }
    model = full_model(TorsionFieldModel(group, n, N))
    seen, annihilated, histogram = set(), True, {}
    for a in digit_sums(group, n):
        t = model.zero() if a.is_zero() else oracle_eval_at_z(
            model, group.multiplication_by(a, N * model.e, N))
        seen.add(tuple(int(v) for v in t.ravel()))
        val = oracle_valuation(model, t)
        histogram[str(val)] = histogram.get(str(val), 0) + 1
        if t.any() and oracle_apply_pi(model, t, times=n).any():
            annihilated = False
    distinct = len(seen) == group.q**n
    return {
        "level": n,
        "holds": bool(distinct and annihilated),
        "mode": "measured",
        "count": len(seen),
        "expected": group.q**n,
        "all_torsion": bool(annihilated),
        "valuations": histogram,
    }


def lt5_deep():
    """Object-dtype model: p^N with N = 19 is past the int64 budget."""
    return TorsionFieldModel(lubin_tate_group(RingDescriptor(5, 1, 19), [0, 5, 0, 0, 0, 1]), 1, 19)


def random_stack(model, count, seed):
    """count random elements, some with high valuation and one zero."""
    rng = random.Random(seed)
    p, m = model.desc.p, model.desc.pN
    shape = (count, model.k, model.desc.f)
    S = np.array([rng.randrange(m) for _ in range(np.prod(shape))], dtype=object).reshape(shape)
    for i in range(1, count, 3):
        S[i] = S[i] * p ** rng.randrange(1, model.N) % m
    S[0] = 0
    return S.astype(model.dtype)


# (model, description): int64 with f = 1 and 2, and object dtype
MODELS = {
    "gm-n2": lambda: TorsionFieldModel(gm(), 2, 4),
    "lt5-n2": lambda: TorsionFieldModel(lt5(), 2, 4),
    "h2lt-n1": lambda: TorsionFieldModel(h2lt(), 1, 4),
    "honda-u1": lambda: TorsionFieldModel(honda_group(RingDescriptor(3, 1, 10), (1,)), 2, 4),
    "lt5-N19-object": lt5_deep,
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


@pytest.fixture(scope="module")
def full(model):
    return full_model(model)


class TestStackedModel:
    # the ring tests run on a model and on the full model of its group
    def test_dtypes_covered(self):
        assert TorsionFieldModel(gm(), 2, 4).dtype is np.int64
        assert lt5_deep().dtype is object

    def test_mul_matches_per_element(self, model, full):
        for m in (model, full):
            A, B = random_stack(m, 7, 1), random_stack(m, 7, 2)
            got = m.mul(A, B)
            assert got.shape == A.shape
            for i in range(len(A)):
                assert np.array_equal(got[i], oracle_mul(m, A[i], B[i]))
                assert np.array_equal(m.mul(A[i], B[i]), got[i])

    def test_element_times_stack(self, model, full):
        for m in (model, full):
            S = random_stack(m, 5, 3)
            a = random_stack(m, 2, 4)[1]
            left, right = m.mul(a, S), m.mul(S, a)
            for i in range(len(S)):
                assert np.array_equal(left[i], oracle_mul(m, a, S[i]))
                assert np.array_equal(right[i], left[i])

    def test_all_zero_stack(self, model, full):
        for m in (model, full):
            Z = m.zero((4,))
            S = random_stack(m, 4, 5)
            assert not m.mul(Z, S).any() and m.mul(Z, S).shape == S.shape
            assert all(v is INF for v in m.valuations(Z))
            assert np.array_equal(m.pow_int(Z, 0), m.one((4,)))
            assert all(v is INF for v in m.valuations(Z, m.r))
            assert not m.apply_pi(Z).any()

    def test_pow_int_matches_per_element(self, model, full):
        for m in (model, full):
            S = random_stack(m, 4, 6)
            for k in (0, 1, 2, 5, 9):
                got = m.pow_int(S, k)
                for i in range(len(S)):
                    assert np.array_equal(got[i], oracle_pow(m, S[i], k))

    def test_valuations_match_loop(self, model, full):
        for m in (model, full):
            S = random_stack(m, 9, 7)
            vals = m.valuations(S)
            assert vals.shape == (9,)
            assert vals[0] is INF
            assert list(vals) == [oracle_valuation(m, x) for x in S]
            assert m.valuation(S[2]) == oracle_valuation(m, S[2])

    def test_eval_series_and_apply_pi_match_per_element(self, model, full):
        # points of positive valuation: z^r G(w), G = z times random
        # elements when d = 1, random elements of the ring when d >= 2
        G = model.mul(model.point_z(), random_stack(model, 5, 8))
        X = scatter(model, G)
        pi = model.group.pi_series(model.N * model.e + 1, model.N)
        got = scatter(model, model.apply_pi(G, val=1))
        once = scatter(model, model.apply_pi(G))
        twice = scatter(model, model.apply_pi(G, times=2))
        for i in range(len(X)):
            assert np.array_equal(got[i], oracle_eval_series(full, pi, X[i]))
            assert np.array_equal(once[i], oracle_apply_pi(full, X[i]))
            assert np.array_equal(twice[i], oracle_apply_pi(full, X[i], times=2))

    def test_both_eval_series_branches(self):
        sparse = lubin_tate_group(RingDescriptor(5, 1, 8), [0, 5, 0, 0, 0, 1])
        dense = honda_group(RingDescriptor(3, 1, 10), (1,))
        for g, is_sparse in ((sparse, True), (dense, False)):
            model = TorsionFieldModel(g, 2, 4)
            full = full_model(model)
            pi = g.pi_series(model.N * model.e + 1, model.N)
            # [p] = X u(X^d): the point route evaluates u
            assert (len(pi.nonzero_degrees()) <= 8) == is_sparse
            G = model.mul(model.point_z(), random_stack(model, 3, 9))
            X = scatter(model, G)
            got = scatter(model, model.apply_pi(G, val=1))
            for i in range(len(X)):
                assert np.array_equal(got[i], oracle_eval_series(full, pi, X[i]))

    def test_eval_at_z_stack_matches_single(self):
        g = h2lt()
        model = TorsionFieldModel(g, 1, 4)
        series = [g.multiplication_by(a, model.N * model.e, model.N) for a in digit_sums(g, 1)[1:4]]
        got = model.eval_at_z(series)
        assert got.shape == (3, model.k, model.desc.f)
        for t, s in zip(got, series):
            assert np.array_equal(t, model.eval_at_z(s))

    @pytest.mark.parametrize("mk", [gm, lt5, h2lt, honda1])
    def test_eval2_matches_product_route(self, mk):
        g = mk()
        model = full_model(TorsionFieldModel(g, 1, 4))
        F2 = g.group_law2(model.N * model.e + 2, model.N)
        rng = np.random.default_rng(3)
        x, y = (model.mul(model.w(), rng.integers(0, model.desc.pN, size=(model.k, model.desc.f))
                          .astype(model.dtype)) for _ in range(2))
        assert np.array_equal(model.eval2(F2, x, y), oracle_eval2(model, F2, x, y))


class TestStackedAssumption:
    @pytest.mark.parametrize("n", [1, 2])
    def test_records_match_per_point_loop(self, n):
        groups = corpus(N=4, nmax=2)
        assert any(g.desc.f % g.height for _name, g in groups)  # no-module-structure branch
        for _name, g in groups:
            assert assumption_check(g, n) == oracle_assumption_check(g, n)

    @pytest.mark.parametrize("spec,n", [
        (dict(p=5, f=1, source="lubin-tate", d=1), 3),
        (dict(p=3, f=2, source="lubin-tate", d=2), 2),
        (dict(p=3, f=1, source="multiplicative"), 4),
    ])
    def test_model_products_bounded_per_valuation_class(self, monkeypatch, spec, n):
        # [p^n] runs once per valuation class, not once per point
        calls = []
        mul = TorsionFieldModel.mul

        def counted(self, a, b):
            calls.append(1)
            return mul(self, a, b)

        monkeypatch.setattr(TorsionFieldModel, "mul", counted)
        rec = assumption_check(make_group(N=4, nmax=n, **spec), n, N=4)
        classes = sum(1 for k in rec["valuations"] if k != "inf")
        assert rec["holds"]
        assert len(calls) <= 12 * n * classes


# -------------------------------------------- points on the grading

# (group, levels): the six corpus groups, and a group-file polynomial whose
# [p]-series has every degree, so d = 1
GROUP_FILE_COEFFS = [0, 3, 30, 13, 36, 60, 3, 6, 78, 51]
GRADED_CASES = [(name, n) for name, _spec in CORPUS_SPECS for n in (1, 2)] + [("group-file", 2)]
# group files with d = 2: 5X + 5X^3 + X^5 (k = 2 at level 1), and
# 3X + 3X^3 + X^9 over W(F_9) (k = 4)
GRADED_FILES = {"file-p5": dict(p=5, f=1, coeffs=[0, 5, 0, 5, 0, 1]),
                "file-p3-f2": dict(p=3, f=2, coeffs=[0, 3, 0, 3, 0, 0, 0, 0, 0, 1])}


def graded_group(name):
    if name == "group-file":
        return make_group(p=3, f=1, N=4, source="lubin-tate", coeffs=GROUP_FILE_COEFFS, nmax=2)
    if name in GRADED_FILES:
        return make_group(N=4, source="lubin-tate", nmax=2, **GRADED_FILES[name])
    return make_group(N=4, nmax=2, **dict(CORPUS_SPECS)[name])


def sample_scalars(group, n):
    """A few integers and, where O_F acts (h | f), a few digit sums."""
    scalars = [1, -1, 2, group.desc.p + 1]
    if group.desc.f % group.height == 0:
        sums = [a for a in digit_sums(group, n) if not a.is_zero()]
        scalars += sums[:: max(1, len(sums) // 6)]
    return scalars


def random_graded_series2(model, D, seed):
    """A two-variable series on window D with random coefficients at the
    total degrees r mod d of a model, and none at the others."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, model.desc.pN, size=(D, D, model.desc.f))
    i = np.arange(D)
    grid[(i[:, None] + i) % model.d != model.r] = 0
    return TruncSeries2.from_grid(model.desc, D, "integral", grid)


class TestGradedPoints:
    @pytest.mark.parametrize("name,n", GRADED_CASES)
    def test_graded_route_equals_full_model(self, name, n):
        g = graded_group(name)
        model = TorsionFieldModel(g, n, 4)
        full = full_model(model)
        assert model.d == g.grading and model.k * model.d == model.e == full.k
        assert np.array_equal(scatter(model, model.point_z()), full.w())
        series = [g.multiplication_by(a, model.window, 4) for a in sample_scalars(g, n)]
        G = model.eval_at_z(series)
        X = scatter(model, G)
        assert G.shape == (len(series), model.k, model.desc.f)
        assert all(np.array_equal(x, oracle_eval_at_z(full, s)) for x, s in zip(X, series))
        vals = list(model.valuations(G, model.r))
        assert vals == list(full.valuations(X)) == [oracle_valuation(full, x) for x in X]
        classes = {}
        for i, v in enumerate(vals):
            classes.setdefault(v, []).append(i)
        for v, rows in classes.items():
            for times in sorted({1, n}):
                got = scatter(model, model.apply_pi(G[rows], times=times, val=v))
                for i, x in zip(rows, got):
                    assert np.array_equal(x, oracle_apply_pi(full, X[i], times=times))

    @pytest.mark.parametrize("name,n", GRADED_CASES + [(f, n) for f in GRADED_FILES for n in (1, 2)])
    def test_eval2_equals_full_model(self, name, n):
        # a series on the grading at two points, z^r G(w) kept as G, against
        # the full model; the law too at level 1, where the ramification
        # cross-check evaluates it (at level 2 its solve takes up to a minute)
        g = graded_group(name)
        model = TorsionFieldModel(g, n, 4)
        full = full_model(model)
        D2 = model.window + 2
        series = [random_graded_series2(model, D2, seed=n)]
        if n == 1:
            series.append(g.group_law2(D2, 4))
        G = model.eval_at_z([g.multiplication_by(a, model.window, 4) for a in sample_scalars(g, n)[:4]])
        X = scatter(model, G)
        for F2 in series:
            for i in range(len(G) - 1):
                got = model.eval2(F2, G[i], G[i + 1])
                assert np.array_equal(scatter(model, got), full.eval2(F2, X[i], X[i + 1]))

    def test_eval2_off_the_grading_raises(self):
        model = TorsionFieldModel(graded_group("lt-h2-p3"), 1, 4)
        # X + Y + XY: the term XY has total degree 2, not 1 mod 8
        F2 = TruncSeries2.from_triples(model.desc, [(1, 0, 1), (0, 1, 1), (1, 1, 1)],
                                       model.window + 2)
        G = model.point_z()
        with pytest.raises(ValueError, match="total degree other than 1 mod 8"):
            model.eval2(F2, G, G)

    def test_grading_divides_step(self):
        for _name, g in corpus(N=4, nmax=2):
            assert g.module(40, 4).step % g.grading == 0
        g = graded_group("group-file")
        assert g.grading == 1 and g.module(40, 4).step == 1

    def test_grading_is_the_group_not_the_window(self):
        # the [p]-series of u = (0, 1, 1) looks graded by 8 below degree 28
        g = honda_group(RingDescriptor(3, 1, 10), (0, 1, 1))
        assert g.grading == 2
        assert g.module(20, 4).step == 8 and g.module(40, 4).step == 2
        assert honda_group(RingDescriptor(3, 1, 6), ()).grading == 0

    def test_factor_off_the_grading_raises(self, monkeypatch):
        g = graded_group("lt-h2-p3")
        P = g.division_factor(1, 4)
        bad = TruncSeries1(P.desc, P.D, "integral", P.data.copy())
        bad.data[1, 0] = 3  # above the polygon: still monic, pure of slope 1/8
        monkeypatch.setattr(g, "division_factor", lambda n, N: bad)
        with pytest.raises(ValueError, match="not a polynomial in X\\^8"):
            TorsionFieldModel(g, 1, 4)

    @pytest.mark.parametrize("row,value", [(0, 9), (1, 1)])
    def test_factor_failing_eisenstein_raises(self, monkeypatch, row, value):
        # P_1 = X^2 + 3X + 3 of the multiplicative group, with v(c_0) = 2 or
        # a unit c_1: still monic of degree e, not pure of slope 1/2
        g = gm()
        P = g.division_factor(1, 4)
        assert P.data[:, 0].tolist() == [3, 3, 1]
        bad = TruncSeries1(P.desc, P.D, "integral", P.data.copy())
        bad.data[row, 0] = value
        monkeypatch.setattr(g, "division_factor", lambda n, N: bad)
        with pytest.raises(ValueError, match="not pure of slope 1/e"):
            TorsionFieldModel(g, 1, 4)
        bad.data[row, 0] = 6  # v = 1 at either row is Eisenstein again
        TorsionFieldModel(g, 1, 4)

    def test_eval_at_z_off_the_grading_raises(self):
        model = TorsionFieldModel(graded_group("lt-h2-p3"), 1, 4)
        s = TruncSeries1.from_coeffs(model.desc, [0, 1, 1], model.window)
        with pytest.raises(ValueError, match="degree other than 1 mod 8"):
            model.eval_at_z(s)

    @pytest.mark.parametrize("name,k", [("lt-h2-p3", 1), ("file-p3-f2", 4)])
    def test_crosscheck_and_mu_p_multiply_on_k_rows(self, monkeypatch, name, k):
        # level 1, d = 8 and 2: no product in either check has e rows
        shapes = []
        mul = TorsionFieldModel.mul

        def recorded(self, a, b):
            shapes.append((a.shape[-2], b.shape[-2]))
            return mul(self, a, b)

        monkeypatch.setattr(TorsionFieldModel, "mul", recorded)
        g = graded_group(name)
        assert all(r["match"] for r in _direct_break_check(g, 4))
        assert mu_p_membership(g, N=4)["found"]
        assert shapes and set(shapes) == {(k, k)}

    def test_gm_torsion_suite_mul_count(self, monkeypatch, tmp_path):
        # d = 1: the one ring is O_K[z]/P_n, with the products it always made
        from fglab.cli import main
        calls = []
        mul = TorsionFieldModel.mul

        def counted(self, a, b):
            calls.append(1)
            return mul(self, a, b)

        monkeypatch.setattr(TorsionFieldModel, "mul", counted)
        assert main(["torsion", "--group", "multiplicative", "--p", "3", "--N", "12", "--nmax", "4",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 163

    def test_scalar_action_multiplies_in_the_w_ring(self, monkeypatch):
        # lt-h2-p3 at level 2: e = 72, d = 8, so every product is of 9 rows
        shapes = []
        mul = TorsionFieldModel.mul

        def recorded(self, a, b):
            shapes.append((a.shape[-2], b.shape[-2]))
            return mul(self, a, b)

        monkeypatch.setattr(TorsionFieldModel, "mul", recorded)
        rec = assumption_check(graded_group("lt-h2-p3"), 2, N=4)
        assert rec["holds"] and shapes
        assert set(shapes) == {(9, 9)}


# -------------------------------------------- [p]-series window reuse

PI_GROUPS = {
    "gm": lambda: multiplicative_group(RingDescriptor(3, 1, 10)),
    "lt-h1": lambda: lubin_tate_group(RingDescriptor(3, 1, 10), [0, 3, 0, 1]),
    "lt-h2": lambda: h2lt(N=10),
    "honda-u1": lambda: honda_group(RingDescriptor(3, 1, 10), (1,)),
    "honda-u01": lambda: honda_group(RingDescriptor(3, 1, 10), (0, 1)),
    "honda-ext": lambda: honda_group(RingDescriptor(3, 1, 10), (0, 1)).base_change(2),
}


@pytest.mark.parametrize("name", sorted(PI_GROUPS))
def test_pi_series_truncation_equals_fresh_solve(name):
    wide = PI_GROUPS[name]()
    wide.pi_series(60, 10)
    served = wide.pi_series(25, 7)
    assert served == PI_GROUPS[name]().pi_series(25, 7)
    assert wide.pi_series(60, 10).truncate(25).reduce_precision(7) == served


def test_shrinking_windows_reuse_one_honda_solve(monkeypatch):
    from fglab import groups
    solves = []
    solve = groups._honda_pi_series

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(groups, "_honda_pi_series", counted)
    g = honda_group(RingDescriptor(3, 1, 10), (1,))
    for D, N in ((60, 10), (25, 7), (40, 10), (4, 4)):
        g.pi_series(D, N)
    assert len(solves) == 1


# -------------------------------------------- division factor reuse

@pytest.mark.parametrize("n", [1, 2])
def test_division_factor_reduced_equals_fresh(monkeypatch, n):
    from fglab import groups
    from fglab.weier import division_polynomial
    calls = []
    prepare = groups.division_polynomial

    def counted(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(groups, "division_polynomial", counted)
    for _name, g in corpus(N=6, nmax=2):
        for N in (6, 5, 4):
            assert g.division_factor(n, N) == division_polynomial(g, n, N=N).P
    # one preparation per group: N = 5 and N = 4 reduce the N = 6 factor
    assert len(calls) == 6


def test_torsion_run_prepares_each_level_once(monkeypatch, tmp_path):
    # the division-degree check fetches P_n at the models' precision and
    # certifies its reduction at N = 4, so no level is prepared twice
    from fglab import groups
    from fglab.cli import main
    calls = []
    prepare = groups.division_polynomial

    def counted(group, n, N):
        calls.append((n, N))
        return prepare(group, n, N=N)

    monkeypatch.setattr(groups, "division_polynomial", counted)
    assert main(["torsion", "--group", "lubin-tate", "--p", "3", "--f", "2", "--d", "2",
                 "--N", "8", "--nmax", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [(1, 8), (2, 8)]


def test_division_factor_in_any_request_order():
    # whichever precision is stored first, every read equals a fresh
    # preparation
    from fglab.weier import division_polynomial
    g = lt3(N=12)
    want = {N: division_polynomial(g, 2, N=N).P for N in (4, 5, 6)}
    for order in [(4, 5, 6), (6, 5, 4), (5, 4, 6), (6, 4, 5)]:
        g = lt3(N=12)
        assert all(g.division_factor(2, N) == want[N] for N in order)


def test_eval_at_z_stacks_the_graded_rows_only():
    # lt p = 5, f = 2, d = 2 at level 2: 624 [a]-series on the window
    # N e = 2400, graded by 24; the points need their 100 graded rows, so
    # eval_at_z must not stack the 2400-row windows (23 MB here)
    g = make_group(p=5, f=2, N=4, source="lubin-tate", d=2, nmax=2)
    model = TorsionFieldModel(g, 2, 4)
    scalars = [a for a in digit_sums(g, 2) if not a.is_zero()]
    series = series_of(g.multiplications(scalars, model.window, model.N))
    assert model.d == 24 and len(series) == 624
    full = sum(s.data[:model.window].nbytes for s in series)
    tracemalloc.start()
    try:
        points = model.eval_at_z(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (624, model.k, 2)
    assert peak < full / 4


def counting_muls(model, evaluate, c, x):
    """evaluate(model, c, x) and the TorsionFieldModel.mul calls it made."""
    calls = []
    mul = model.mul
    model.mul = lambda a, b: calls.append(1) or mul(a, b)
    try:
        return evaluate(model, c, x), len(calls)
    finally:
        del model.mul


def poly_coeffs(model, degrees, seed):
    """Random nonzero coefficients at the given degrees, shaped (n, f)."""
    rng = random.Random(seed)
    c = np.zeros((max(degrees, default=0) + 1, model.desc.f), dtype=model.dtype)
    for k in degrees:
        c[k] = [1 + rng.randrange(model.desc.pN - 1) for _ in range(model.desc.f)]
    return c


def assert_loop_matches_the_chain(model, c, seed):
    # one point and a stack of points; the loop takes no more products
    stack = random_stack(model, 5, seed)
    for x in (stack[3], stack):
        got, loop_muls = counting_muls(model, TorsionFieldModel._eval_poly, c, x)
        want, chain_muls = counting_muls(model, oracle_eval_poly, c, x)
        assert got.shape == want.shape == x.shape
        assert np.array_equal(got % model.desc.pN, want % model.desc.pN)
        assert loop_muls <= chain_muls


@pytest.mark.parametrize("name,n", [("mult-p3", 2), ("lt-h2-p3", 2)])
@pytest.mark.parametrize("degrees", [
    range(12),             # dense
    [1, 13], [0, 5, 40],   # gapped
    [0], [7], [],          # a constant, a monomial, zero
])
def test_eval_poly_loop_matches_the_chain(name, n, degrees):
    model = TorsionFieldModel(make_group(N=4, nmax=n, **dict(CORPUS_SPECS)[name]), n, 4)
    assert_loop_matches_the_chain(model, poly_coeffs(model, degrees, len(degrees)), n)


@pytest.mark.parametrize("name", [name for name, _ in CORPUS_SPECS])
def test_eval_poly_loop_matches_the_chain_on_the_pi_series(name):
    # the graded [p]-series apply_pi evaluates, at every corpus group
    model = TorsionFieldModel(make_group(N=4, nmax=1, **dict(CORPUS_SPECS)[name]), 1, 4)
    pi = model.group.pi_series(model.window + 1, model.N)
    assert_loop_matches_the_chain(model, torsion._graded(pi.data, model.d, 1), 5)
