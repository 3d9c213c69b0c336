"""Tests of the benchmark's own machinery: span arithmetic, cache-hit
accounting, tracer installation and removal, the percentile rule, seed
normalisation of reports, and agreement with BENCHMARK.json.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import run
import timing
import workloads
from tracer import CACHES, PER_LAYER, REQUIRED, Tracer, TracerError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Series:
    def __init__(self, domain):
        self.domain = domain


# ------------------------------------------------------------ self time

def test_self_time_excludes_children_across_layers():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def kernel():
        clock.now += 2.0

    kernel_t = tr.span("series.kernel", kernel)

    def solve():
        clock.now += 1.0
        kernel_t()
        clock.now += 0.5

    tr.span("groups.solve", solve)()
    m = tr.metrics(overhead_ratio=1.0)
    assert m["groups.self_s"] == pytest.approx(1.5)
    assert m["series.self_s"] == pytest.approx(2.0)
    assert (m["groups.calls"], m["series.calls"]) == (1, 1)


def test_nested_spans_of_one_layer_count_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def mul(s):
        clock.now += 2.0

    mul_t = tr.span("series.TruncSeries1.__mul__", mul)

    def compose(s):
        clock.now += 1.0
        mul_t(s)
        mul_t(s)
        clock.now += 0.25

    tr.span("series.TruncSeries1.compose", compose)(Series("integral"))
    m = tr.metrics(overhead_ratio=1.0)
    assert tr.stats["series.TruncSeries1.compose"].self_s == pytest.approx(1.25)
    assert tr.stats["series.TruncSeries1.__mul__"].self_s == pytest.approx(4.0)
    # the layer's self time is the wall time of the outer span, not the
    # outer span plus its children again
    assert m["series.self_s"] == pytest.approx(5.25)
    assert m["series.calls"] == 3
    assert m["series.mul.calls"] == 2
    assert m["series.compose.calls"] == 1


def test_recursive_total_counts_the_outermost_call_only():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def law(depth):
        clock.now += 1.0
        if depth:
            law_t(depth - 1)

    law_t = tr.span("groups.honda_law", law)
    law_t(2)
    rec = tr.stats["groups.honda_law"]
    assert (rec.calls, rec.self_s, rec.total_s) == (3, pytest.approx(3.0), pytest.approx(3.0))


def test_series_domain_comes_from_receiver_or_caller():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def helper(data):
        clock.now += 1.0

    helper_t = tr.span("series._mul_data", helper)

    def method(s):
        clock.now += 0.5
        helper_t([0])

    method_t = tr.span("series.TruncSeries1.__mul__", method)
    method_t(Series("scaled"))
    method_t(Series("integral"))
    helper_t([0])          # called from outside series: the default domain
    m = tr.metrics(overhead_ratio=1.0)
    assert m["series.scaled.self_s"] == pytest.approx(1.5)
    assert m["series.integral.self_s"] == pytest.approx(2.5)
    assert m["series.scaled.self_s"] + m["series.integral.self_s"] == pytest.approx(m["series.self_s"])


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def bad():
        clock.now += 1.0
        raise ValueError("window too small")

    bad_t = tr.span("weier.division_polynomial", bad)

    def caller():
        with pytest.raises(ValueError):
            bad_t()
        clock.now += 2.0

    tr.span("torsion.certify_torsion_degree", caller)()
    m = tr.metrics(overhead_ratio=1.0)
    assert m["weier.division_polynomial.calls"] == 1
    assert m["weier.self_s"] == pytest.approx(1.0)
    assert m["torsion.self_s"] == pytest.approx(2.0)


# ------------------------------------------------------------- hit ratio

class Group:
    def __init__(self):
        self._pi_cache = {}


def test_hit_ratio_counts_calls_that_do_not_grow_the_cache():
    tr = Tracer(clock=FakeClock())

    def pi_series(group, D):
        if D not in group._pi_cache:
            group._pi_cache[D] = object()
        return group._pi_cache[D]

    traced = tr.span("groups.FormalGroupLaw.pi_series", pi_series)
    g, h = Group(), Group()
    for group, D in ((g, 8), (g, 8), (g, 9), (h, 8), (g, 8), (h, 8)):
        traced(group, D)
    m = tr.metrics(overhead_ratio=1.0)
    assert m["groups.pi_series.hit_ratio"] == pytest.approx(3 / 6)
    assert m["groups.group_law2.hit_ratio"] == 0.0     # no calls


def test_module_solves_are_try_multiplication_misses():
    tr = Tracer(clock=FakeClock())

    class Module:
        def __init__(self):
            self._cache = {}

    def try_multiplication(mod, a):
        mod._cache.setdefault(a, (a, None))
        return mod._cache[a]

    traced = tr.span("groups.ModuleStructure.try_multiplication", try_multiplication)
    mod = Module()
    for a in (2, -1, 2, 2, 5):
        traced(mod, a)
    assert tr.metrics(overhead_ratio=1.0)["groups.module.solves"] == 3


def test_a_missing_cache_is_an_error_not_a_miss():
    tr = Tracer(clock=FakeClock())
    traced = tr.span("groups.FormalGroupLaw.logarithm", lambda group, D: D)
    assert traced(object(), 12) == 12
    with pytest.raises(TracerError, match="_log_cache"):
        tr.raise_errors()


def test_success_ratio():
    tr = Tracer(clock=FakeClock())
    traced = tr.span("endo.try_endomorphism", lambda ok: {"success": ok})
    for ok in (True, False, True, True):
        traced(ok)
    assert tr.metrics(overhead_ratio=1.0)["endo.success_ratio"] == pytest.approx(0.75)


# ---------------------------------------------------- install and restore

def test_install_wraps_every_binding_and_uninstall_restores_them(capsys):
    import fglab
    import fglab.cli as cli
    import fglab.endo as endo
    import fglab.series as series

    original = endo.try_endomorphism
    original_mul = vars(series.TruncSeries1)["__mul__"]
    tr = Tracer()
    before = tr.snapshot()
    with tr:
        # cli and the package namespace bind the function by name
        assert endo.try_endomorphism is not original
        assert cli.try_endomorphism is endo.try_endomorphism
        assert fglab.try_endomorphism is endo.try_endomorphism
        assert vars(series.TruncSeries1)["__mul__"] is not original_mul
        assert tr.snapshot() != before
        assert cli.main(["construct", "--group", "multiplicative", "--p", "3", "--N", "4"]) == 0
    assert tr.snapshot() == before
    assert endo.try_endomorphism is original
    assert cli.try_endomorphism is original
    assert fglab.try_endomorphism is original
    assert vars(series.TruncSeries1)["__mul__"] is original_mul
    m = tr.metrics(overhead_ratio=1.0)
    assert tr.stats["cli.main"].calls == 1
    assert tr.stats["corpus.make_group"].calls == 1
    assert m["corpus.calls"] >= 1 and m["groups.calls"] >= 1


def test_a_vanished_function_fails_loudly_and_patches_nothing(monkeypatch):
    import fglab.endo as endo

    monkeypatch.delattr(endo, "compute_endo_subfield")
    tr = Tracer()
    before = tr.snapshot()
    with pytest.raises(TracerError, match="endo.compute_endo_subfield"):
        tr.install()
    assert tr.snapshot() == before


def test_required_functions_and_caches_exist_in_the_program():
    import fglab.cli  # noqa: F401  imports every layer
    tr = Tracer()
    assert all(tr._resolves(q) for q in REQUIRED)
    assert set(CACHES) <= set(REQUIRED)


# ------------------------------------------------------- percentile rule

def test_percentile_rule():
    xs = list(range(1, 101))
    s = timing.percentile_summary(reversed(xs))
    assert s == {"n": 100, "median": 50.5, "p90": 90}
    assert timing.percentile_summary(range(1, 1001))["p99"] == 990
    assert timing.percentile_summary(range(1, 201))["p95"] == 190
    assert timing.percentile_summary(range(20)) == {"n": 20, "median": 9.5, "p50": 9}
    assert timing.percentile_summary(range(19)) == {"n": 19, "median": 9}
    # the reported percentile always leaves at least ten samples beyond it
    for n in range(20, 400, 7):
        s = timing.percentile_summary(range(n))
        (key,) = [k for k in s if k.startswith("p")]
        assert sum(1 for x in range(n) if x > s[key]) >= 10
    with pytest.raises(ValueError):
        timing.percentile_summary([])


# ----------------------------------------------------- reports and goldens

def _report(seed):
    return {
        "config": {"seed": seed, "p": 3},
        "checks": [
            {"id": "torsion.count.n1", "inputs": {"level": 1}, "pass": True},
            {"id": "series.log-exp-roundtrip", "inputs": {"seed": seed + 1}, "pass": True},
        ],
    }


def test_seed_free_reports_agree_across_seeds_only_when_verdicts_do():
    a = workloads.canonical(workloads.seed_free(_report(0), 0))
    b = workloads.canonical(workloads.seed_free(_report(17), 17))
    assert a == b
    failing = _report(17)
    failing["checks"][1]["pass"] = False
    assert workloads.canonical(workloads.seed_free(failing, 17)) != a


def test_every_workload_config_has_a_golden():
    for name, configs in workloads.WORKLOADS.items():
        for config, argv in configs:
            path = workloads.golden_path(name, config)
            assert path.exists(), path
            doc = json.loads(path.read_text())
            assert doc["config"]["command"] == argv[0]
            assert doc["config"]["seed"] is None
            assert doc["summary"]["all_pass"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
