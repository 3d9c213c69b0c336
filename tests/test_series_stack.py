"""TruncSeries1 stacks: data shaped (..., D, f), one series per case.

Every operation on a stack must equal the same operation case by case, and
the seeded property suites of cli.roundtrip_checks, which run their ten
cases as one stack, must return exactly what the case-by-case loop they
replaced returns: that loop is kept here as the oracle.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from fglab import cli
from fglab.corpus import make_group
from fglab.padic import RingDescriptor, contraction_dtype
from fglab.series import TruncSeries1, TruncSeries2
from test_series_kernel import COMPOSE_DOMAINS, random_pointed

CASES = 4


def random_stack(d, D, domain, rng, unit=None, degrees=None):
    """CASES random series with zero constant term, stacked, and the cases;
    `unit` asks for a unit (a nonzero coefficient when scaled) at that
    degree of every case."""
    cases = []
    while len(cases) < CASES:
        s = random_pointed(TruncSeries1, d, D, domain, rng, degrees=degrees)
        if unit is None or (s.data[unit] % d.p if domain == "integral" else s.data[unit]).any():
            cases.append(s)
    return TruncSeries1.stack(cases), cases


def assert_cases(stack, want):
    assert stack.data.shape[:-2] == (len(want),)
    for i, w in enumerate(want):
        assert stack.case(i) == w
    assert stack.equal_cases(TruncSeries1.stack(want)).all()


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
def test_stack_arithmetic_equals_each_case(p, N, domain, dtype, f):
    rng = random.Random(f"stack-{p}-{N}-{domain}-{f}")
    d, D = RingDescriptor(p, f, N), 12
    A, a = random_stack(d, D, domain, rng)
    B, b = random_stack(d, D, domain, rng)
    assert A.data.dtype == dtype
    if domain == "integral":
        assert A.den == 1
    else:
        # one denominator per case, each case in lowest terms
        assert A.den.shape == (CASES,) and [A.case(i).den for i in range(CASES)] == [s.den for s in a]
    one = a[0]
    assert_cases(A + B, [x + y for x, y in zip(a, b)])
    assert_cases(A - B, [x - y for x, y in zip(a, b)])
    assert_cases(-A, [-x for x in a])
    assert_cases(A * B, [x * y for x, y in zip(a, b)])
    assert_cases(A * one, [x * one for x in a])
    assert_cases(one - A, [one - x for x in a])
    assert_cases(A.scalar_mul(d.from_int(7)), [x.scalar_mul(d.from_int(7)) for x in a])
    assert_cases(A.shift(3), [x.shift(3) for x in a])
    assert_cases(A.truncate(7).lift(D), [x.truncate(7).lift(D) for x in a])
    assert_cases(A.derivative(), [x.derivative() for x in a])
    assert A.nonzero_degrees() == sorted(set().union(*(x.nonzero_degrees() for x in a)))
    if domain == "integral":
        half = Fraction(1, 2)
        H = A.to_scaled().scalar_mul(half)
        assert_cases(H, [x.to_scaled().scalar_mul(half) for x in a])


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("support", ["sparse", "dense"])
def test_stack_compose_equals_each_case(p, N, domain, dtype, f, support):
    rng = random.Random(f"stack-compose-{p}-{N}-{domain}-{f}-{support}")
    d, D = RingDescriptor(p, f, N), 12
    degrees = {1, 4, 7, 11} if support == "sparse" else None
    A, a = random_stack(d, D, domain, rng, degrees=degrees)
    G, g = random_stack(d, D, domain, rng)
    # a dense outer stack takes the block sums, a sparse one the addition chain
    assert (len(A.nonzero_degrees()) <= 10) == (support == "sparse")
    assert_cases(A.compose(G), [x.compose(y) for x, y in zip(a, g)])
    assert_cases(A.compose(g[0]), [x.compose(g[0]) for x in a])
    assert_cases(a[0].compose(G), [a[0].compose(y) for y in g])


@pytest.mark.parametrize("p,N,domain,dtype", COMPOSE_DOMAINS)
@pytest.mark.parametrize("f", [1, 2])
def test_stack_inverses_equal_each_case(p, N, domain, dtype, f):
    rng = random.Random(f"stack-inverse-{p}-{N}-{domain}-{f}")
    d, D = RingDescriptor(p, f, N), 12
    S, s = random_stack(d, D, domain, rng, unit=1)
    R = S.reversion()
    assert_cases(R, [x.reversion() for x in s])
    x = TruncSeries1.x(d, D, domain)
    assert S.compose(R).equal_cases(x).all() and R.compose(S).equal_cases(x).all()
    U = S + TruncSeries1.from_coeffs(d, [1], D, domain)
    assert_cases(U.invert_unit(), [u.invert_unit() for u in (U.case(i) for i in range(CASES))])


def test_stack_refuses_what_does_not_stack():
    d = RingDescriptor(3, 1, 6)
    with pytest.raises(ValueError, match="only one-variable"):
        TruncSeries2(d, 4, "integral", np.zeros((2, 4, 4, 1), dtype=np.int64))
    S = TruncSeries1.stack([TruncSeries1.x(d, 6), TruncSeries1.x(d, 6).scalar_mul(3)])
    with pytest.raises(ZeroDivisionError):
        S.reversion()
    with pytest.raises(ValueError, match="zero constant term"):
        (S + TruncSeries1.from_coeffs(d, [1], 6)).reversion()


# --------------------------------------------- the seeded suites, as a loop

def loop_random_series(desc, D, rng, unit_linear=False):
    """The draw of one seeded case, read through TruncSeries1.from_coeffs."""
    rows = [[rng.randrange(desc.pN) for _ in range(desc.f)] for _ in range(D)]
    rows[0] = [0] * desc.f
    if unit_linear:
        rows[1] = [1 + desc.p * rng.randrange(desc.p ** (desc.N - 1))] + [0] * (desc.f - 1)
    return TruncSeries1.from_coeffs(desc, rows, D)


def loop_roundtrip(group, seed):
    """The three suites of cli.roundtrip_checks, one case at a time: the
    (id, passed, observed) of each."""
    cases, D, N = 10, 12, 6
    desc = RingDescriptor(group.desc.p, group.desc.f, N)
    x = TruncSeries1.x(desc, D)

    def reversion():
        rng = random.Random(seed)
        for i in range(cases):
            s = loop_random_series(desc, D, rng, unit_linear=True)
            r = s.reversion()
            if s.compose(r) != x or r.compose(s) != x:
                return False, {"case": i}
        return True, {"cases": cases}

    def logexp():
        log = group.logarithm(D)
        exp = group.exponential(D)
        xs = TruncSeries1.x(group.desc, D, domain="scaled")
        group_ok = exp.compose(log) == xs and log.compose(exp) == xs
        rng = random.Random(seed + 1)
        for i in range(cases):
            s = loop_random_series(desc, D, rng, unit_linear=True).to_scaled()
            r = s.reversion()
            if s.compose(r) != r.compose(s):
                return False, {"case": i}
        return group_ok, {"group_pair_exact": group_ok, "cases": cases}

    def assoc():
        rng = random.Random(seed + 2)
        for i in range(cases):
            a = loop_random_series(desc, D, rng)
            b = loop_random_series(desc, D, rng)
            c = loop_random_series(desc, D, rng)
            if a.compose(b).compose(c) != a.compose(b.compose(c)):
                return False, {"case": i}
        return True, {"cases": cases}

    return [("series.reversion-roundtrip", *reversion()),
            ("series.log-exp-roundtrip", *logexp()),
            ("series.compose-associativity", *assoc())]


def stacked_roundtrip(group, seed):
    return [(c.check_id, *c.thunk()) for c in cli.roundtrip_checks(group, seed)]


# (p, f, source, d): f = 1 and f = 2, and p = 31, where contraction_dtype
# picks object arrays at the suites' window 12 and precision 6
SUITE_GROUPS = [(3, 1, "multiplicative", 1), (5, 1, "lubin-tate", 1),
                (3, 2, "lubin-tate", 2), (31, 1, "multiplicative", 1)]


@pytest.fixture(scope="module", params=SUITE_GROUPS, ids=lambda g: f"p{g[0]}-f{g[1]}-{g[2]}")
def suite_group(request):
    p, f, source, d = request.param
    return make_group(p, f, 6, source, d=d)


def test_the_object_descriptor_is_covered():
    assert contraction_dtype(12, RingDescriptor(31, 1, 6)) is object
    assert contraction_dtype(12, RingDescriptor(5, 1, 6)) is np.int64


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_stacked_suites_equal_the_loop(suite_group, seed):
    assert stacked_roundtrip(suite_group, seed) == loop_roundtrip(suite_group, seed)


def _corrupting(method, targets):
    """method, with X^2 added to the result in each case whose receiver
    (and argument, when a second target is given) equals the targets: the
    same corruption whether a call carries one case or a stack."""

    def wrapped(self, *args):
        out = method(self, *args)
        if self.D != targets[0].D:  # a Newton step of a reversion
            return out
        hit = (self.data == targets[0].data).all(axis=(-2, -1))
        for arg, target in zip(args, targets[1:]):
            hit = hit & (arg.data == target.data).all(axis=(-2, -1))
        data = out.data.copy()
        data[..., 2, 0] += np.where(hit, 1, 0)
        return out._new(data, out.den)

    return wrapped


@pytest.mark.parametrize("suite", [0, 1, 2])
@pytest.mark.parametrize("bad", [0, 6])
def test_a_corrupted_case_is_reported_at_the_same_index(suite_group, suite, bad, monkeypatch):
    seed = 11
    desc = RingDescriptor(suite_group.desc.p, suite_group.desc.f, 6)
    rng = random.Random(seed + suite)
    per_case = 3 if suite == 2 else 1
    drawn = [[loop_random_series(desc, 12, rng, unit_linear=suite != 2) for _ in range(per_case)]
             for _ in range(bad + 1)][bad]
    if suite == 1:
        # s o r and r o s differ at X^2 by the corruption unless s'(0) = 1
        assert drawn[0].data[1, 0] != 1
        drawn = [drawn[0].to_scaled()]
    name = "compose" if suite == 2 else "reversion"
    monkeypatch.setattr(TruncSeries1, name, _corrupting(getattr(TruncSeries1, name), drawn[:2]))
    want = loop_roundtrip(suite_group, seed)[suite]
    assert want[1:] == (False, {"case": bad})
    assert stacked_roundtrip(suite_group, seed)[suite] == want


def test_each_suite_reverts_once_and_composes_a_few_times(monkeypatch):
    # the stack runs each suite's cases through one reversion (the log-exp
    # suite may add one for the group's own exponential) and a few
    # compositions: the Newton steps of the reversion and the checks
    group = make_group(5, 1, 6, "lubin-tate")
    calls = {"reversion": 0, "compose": 0}
    for name in calls:
        method = getattr(TruncSeries1, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(TruncSeries1, name, counted)
    newton_steps = 4  # windows 3, 5, 9, 12 from 2
    limits = {"series.reversion-roundtrip": (1, newton_steps + 2),
              "series.log-exp-roundtrip": (2, 2 * newton_steps + 4),
              "series.compose-associativity": (0, 4)}
    for check in cli.roundtrip_checks(group, 3):
        for name in calls:
            calls[name] = 0
        assert check.thunk()[0]
        assert calls["reversion"] <= limits[check.check_id][0]
        assert calls["compose"] <= limits[check.check_id][1]
