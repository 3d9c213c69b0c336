import math
from fractions import Fraction

import pytest

from fglab import cli, endo, padic
from fglab.cli import RunConfig, RunPlan, build_group, collect_checks, endo_checks, matrix_checks
from fglab.padic import RingDescriptor, teichmuller_digits
from fglab.groups import honda_group, lubin_tate_group, multiplicative_group
from fglab.reports import run_checks
from fglab.series import TruncSeries1, TruncSeries2
from fglab.endo import (
    c_map,
    compute_endo_subfield,
    endo_window,
    multiplier_closure_sample,
    tau_infinity_check,
    try_endomorphism,
)


def gm(p=3, f=1, N=10):
    return multiplicative_group(RingDescriptor(p, f, N))


def h2lt(N=16):
    return lubin_tate_group(RingDescriptor(3, 2, N), [0, 3, 0, 0, 0, 0, 0, 0, 0, 1])


def honda1(N=12):
    return honda_group(RingDescriptor(3, 1, N), (0, 1))


def flat(s):
    return [int(v[0]) for v in s.data]


class TestTryEndomorphism:
    def test_duplication_on_multiplicative(self):
        rec = try_endomorphism(gm(), 2)
        assert rec["success"] and rec["commutes"]
        assert flat(rec["series"])[:4] == [0, 2, 1, 0]

    def test_negation_always_works(self):
        for g in (gm(), gm(5), h2lt(), honda1()):
            rec = try_endomorphism(g, -1)
            assert rec["success"]
            neg = g.negation_series(rec["window"], 6)
            assert rec["series"].reduce_precision(6) == neg

    def test_p_gives_pi_series(self):
        g = gm()
        rec = try_endomorphism(g, 3)
        assert rec["success"]
        assert rec["series"] == g.pi_series(rec["window"], rec["precision"])

    def test_linear_coefficient_echo(self):
        rec = try_endomorphism(gm(), 7)
        assert c_map(rec["series"]).coeffs[0] == 7

    def test_mu8_generator_fails_on_multiplicative(self):
        g = gm(f=2)
        zeta = teichmuller_digits(g.desc, 2)[2]
        rec = try_endomorphism(g, zeta)
        assert not rec["success"]
        assert rec["first_nonintegral_degree"] == 3

    def test_height_two_generator_succeeds(self):
        g = h2lt()
        zeta = teichmuller_digits(g.desc, 2)[2]
        rec = try_endomorphism(g, zeta)
        assert rec["success"] and rec["commutes"]

    def test_precision_guard(self):
        with pytest.raises(ValueError, match="higher precision"):
            try_endomorphism(gm(N=4), 2)

    def test_rational_multiplier_is_exact_not_truncated(self):
        g = multiplicative_group(RingDescriptor(3, 1, 12))
        # 0 first: 1/2 must not be served its certificate
        assert try_endomorphism(g, 0)["multiplier"] == (0,)
        rec = try_endomorphism(g, Fraction(1, 2))
        assert rec["multiplier"] == (pow(2, -1, 3**12),)
        assert rec["success"] and rec["commutes"] and rec["linear_coefficient_matches"]
        assert c_map(rec["series"]).coeffs == (pow(2, -1, 3 ** rec["precision"]),)

    def test_float_multiplier_is_refused(self):
        g = multiplicative_group(RingDescriptor(3, 1, 12))
        with pytest.raises(TypeError, match="unsupported scalar"):
            try_endomorphism(g, 2.7)
        assert not g._endo_cache


class TestEndoSubfield:
    def test_height_one_groups(self):
        for g in (gm(), gm(5), gm(f=2)):
            rep = compute_endo_subfield(g)
            assert rep["f_F"] == 1 and rep["full_height"]

    def test_height_two_full(self):
        rep = compute_endo_subfield(h2lt())
        assert rep["f_F"] == 2 and rep["full_height"]

    def test_honda_over_prime_field_not_full(self):
        rep = compute_endo_subfield(honda1())
        assert rep["f_F"] == 1 and not rep["full_height"]

    def test_honda_after_base_change_full(self):
        rep = compute_endo_subfield(honda1().base_change(2))
        assert rep["f_F"] == 2 and rep["full_height"]

    def test_baseline_candidates_succeed(self):
        rep = compute_endo_subfield(gm())
        assert all(rec["success"] for rec in rep["baseline"])

    def test_stability_under_larger_window(self):
        g = h2lt()
        assert compute_endo_subfield(g)["f_F"] == compute_endo_subfield(g, D=48)["f_F"]

    def test_additive_rejected(self):
        with pytest.raises(ValueError, match="finite height"):
            compute_endo_subfield(honda_group(RingDescriptor(3, 1, 8), ()))


class TestTauInfinity:
    def test_height_one_is_negation(self):
        rec = tau_infinity_check(gm())
        assert rec["order"] == 2 and rec["is_identity"]
        assert rec["linear_coefficient"] == rec["zeta"]

    def test_height_two(self):
        rec = tau_infinity_check(h2lt())
        assert rec["order"] == 8 and rec["is_identity"]
        assert rec["linear_coefficient"] == rec["zeta"]

    def test_honda_base_changed(self):
        rec = tau_infinity_check(honda1().base_change(2))
        assert rec["order"] == 8 and rec["is_identity"]

    def test_refuses_non_full_height(self):
        with pytest.raises(ValueError, match="full-height"):
            tau_infinity_check(honda1())

    def test_cycle_runs_once_per_window(self, monkeypatch):
        # q - 2 = 7 compositions of [zeta] per window, however often asked;
        # each call returns a fresh copy of the record
        g = h2lt()
        compute_endo_subfield(g)
        compute_endo_subfield(g, D=48)
        composed = []
        compose = TruncSeries1.compose

        def counted(self, other):
            composed.append(self.D)
            return compose(self, other)

        monkeypatch.setattr(TruncSeries1, "compose", counted)
        first = tau_infinity_check(g)
        first["is_identity"] = None
        again = tau_infinity_check(g)
        assert again["is_identity"] and again == tau_infinity_check(g)
        assert composed == [first["window"]] * 7
        assert tau_infinity_check(g, D=48)["is_identity"]
        assert composed == [first["window"]] * 7 + [48] * 7


class TestClosure:
    def test_sampled_pairs_on_height_two(self):
        g = h2lt()
        digits = teichmuller_digits(g.desc, 2)
        pairs = [(digits[2], digits[3]), (digits[2], g.desc.from_int(3)),
                 (digits[4], digits[5])]
        rep = multiplier_closure_sample(g, pairs)
        assert rep["all_ok"]


class TestCertificateCache:
    def multipliers(self, desc):
        three = desc.from_int(3)
        zeta = teichmuller_digits(desc, 2)[2]
        return [3, three, -1, desc.p**desc.N - 1, zeta, three + zeta,
                three * desc.from_int(-1)]

    def test_shared_records_equal_fresh_ones(self):
        g = gm(f=2)
        ms = self.multipliers(g.desc)
        for a in ms:
            try_endomorphism(g, a)
        for a in ms:
            shared, fresh = try_endomorphism(g, a), try_endomorphism(gm(f=2), a)
            assert shared.keys() == fresh.keys()
            for field in fresh:
                assert shared[field] == fresh[field], (a, field)
        # equal residues, different certificates: each keeps its own entry
        assert try_endomorphism(g, 3)["precision"] != try_endomorphism(g, ms[1])["precision"]
        assert try_endomorphism(g, -1)["series"] != try_endomorphism(g, ms[3])["series"]

    def test_caller_annotations_stay_out_of_the_cache(self):
        g = gm()
        compute_endo_subfield(g)
        assert "candidate" not in try_endomorphism(g, g.desc.p)

    def test_precision_guard_raises_on_every_call(self):
        g = gm(N=4)
        for _ in range(2):
            with pytest.raises(ValueError, match="higher precision"):
                try_endomorphism(g, 2)
        assert not g._endo_cache

    def test_suites_build_each_certificate_once(self):
        cfg = RunConfig({"group": "multiplicative", "p": 3, "N": 6, "nmax": 1})
        g = build_group(cfg)
        plan = RunPlan(cfg, "verify", g.height)
        records = run_checks(endo_checks(g, plan) + matrix_checks(g, plan))
        assert all(r["pass"] for r in records)
        # p, -1, the mu_2 generator, and the closure's sum p - 1 and product -p
        assert len(g._endo_cache) == 5
        assert list(g._exp_cache) == [(24, g.desc.N)]

    def test_verify_builds_each_artifact_once(self, monkeypatch):
        # every thunk asks for the subfield report; the certificates, the
        # mu generators and the exponential are each built once, by the
        # layer that caches them
        cfg = RunConfig({"group": "multiplicative", "p": 3, "N": 6, "nmax": 1})
        g = build_group(cfg)
        stored = []

        class Counted(dict):
            def __setitem__(self, key, value):
                stored.append(key)
                super().__setitem__(key, value)

        g._endo_cache = Counted()
        lifts, reversions = [], []
        root, reversion = padic.root_of_unity, TruncSeries1.reversion

        def counted_root(desc, m):
            lifts.append((desc, m))
            return root(desc, m)

        def counted_reversion(s):
            if s.data.ndim == 2:  # a single series: not a seeded suite's stack
                reversions.append(s.D)
            return reversion(s)

        monkeypatch.setattr(padic, "root_of_unity", counted_root)
        monkeypatch.setattr(TruncSeries1, "reversion", counted_reversion)
        teichmuller_digits.cache_clear()
        reports = []

        def counted_report(group, D=None):
            reports.append(group)
            return compute_endo_subfield(group, D)

        for module in (cli, endo):  # the thunks' calls and tau_infinity_check's
            monkeypatch.setattr(module, "compute_endo_subfield", counted_report)
        assert all(r["pass"] for r in run_checks(collect_checks("verify", g, cfg)))
        assert len(reports) == 6 and len(stored) == len(set(stored)) == len(g._endo_cache) == 5
        assert lifts and len(lifts) == len(set(lifts))
        # the seeded log-exp suite's window-12 pair is the truncation of the
        # endo window's: one reversion, at 24
        N = g.desc.N
        assert reversions == [24] and list(g._exp_cache) == [(24, N), (12, N)]
        for cache in (g._log_cache, g._exp_cache):
            assert cache[(12, N)] == cache[(24, N)].truncate(12)


@pytest.mark.parametrize("D", [24, 36])
def test_certificate_takes_sqrt_many_bivariate_products(D, monkeypatch):
    # [-1](X) = -X/(1 + X) on gm is dense, so the left side g(F(X, Y)) takes
    # the baby-step/giant-step route; the right side makes no bivariate
    # product, and the gm law is closed form
    g = gm()
    calls = []
    mul = TruncSeries2.__mul__

    def counted(self, other):
        calls.append(self.D)
        return mul(self, other)

    monkeypatch.setattr(TruncSeries2, "__mul__", counted)
    rec = try_endomorphism(g, -1, D)
    assert rec["success"] and rec["commutes"]
    assert len(rec["series"].nonzero_degrees()) == D - 1
    ceil_sqrt = math.isqrt(D - 1) + 1
    assert 0 < len(calls) <= 3 * ceil_sqrt + 2


def test_endo_window_is_shared():
    assert [endo_window(q) for q in (None, 3, 5, 9, 27)] == [24, 24, 24, 36, 108]
    g = gm()
    assert try_endomorphism(g, -1)["window"] == endo_window(g.q)
    # the dcap guard reads the same window
    cfg = RunConfig({"group": "honda", "u": "0,0,1", "p": 3, "N": 4, "nmax": 1, "dcap": 107})
    assert any("= 108 exceeds" in msg for msg in cfg.validate("endo"))
    assert not RunConfig(dict(cfg.values, dcap=108, u="0,0,1")).validate("endo")
