"""The window and precision rules, pinned on the corpus, and kept in one
module."""

import ast
import bisect
import math
import re
from pathlib import Path

import pytest

import fglab
from fglab import cli
from fglab.cli import RunConfig, RunPlan, build_group
from fglab.corpus import CORPUS_SPECS, make_group
from fglab.endo import endo_window, try_endomorphism
from fglab.groups import FormalGroupLaw, lubin_tate_group
from fglab.padic import RingDescriptor, teichmuller_digits
from fglab.precision import (crosscheck_precision, cushion, law_window, model_window,
                             multiplier_precision, ramification_precision)
from fglab.torsion import ramification_breaks

# (spec, N, nmax): (construction precision, default law precision at the
# endo window, certificate precision of -1 and of the Teichmuller
# generator, (window, precision) of the law in the level-1 ramification
# cross-check or None where it does not run, and for each window W that
# validate checks: (W, problems at dcap W - 1, problems at dcap W)).
# Computed before the rules moved into fglab.precision.
PINNED = {
    ("mult-p3", 6, 1): (14, 10, 14, 10, (10, 4), ((10, 3, 2), (12, 2, 1), (24, 1, 0))),
    ("mult-p3", 6, 2): (15, 11, 15, 11, (10, 4), ((10, 4, 3), (12, 3, 2), (24, 2, 1), (36, 1, 0))),
    ("mult-p3", 8, 1): (16, 12, 16, 12, (10, 4), ((10, 3, 2), (16, 2, 1), (24, 1, 0))),
    ("mult-p3", 8, 2): (17, 13, 17, 13, (10, 4), ((10, 4, 3), (16, 3, 2), (24, 2, 1), (48, 1, 0))),
    ("mult-p5", 6, 1): (11, 8, 11, 9, (18, 4), ((18, 3, 2), (24, 2, 0))),
    ("mult-p5", 6, 2): (12, 9, 12, 10, (18, 4), ((18, 4, 3), (24, 3, 1), (120, 1, 0))),
    ("mult-p5", 8, 1): (14, 11, 14, 12, (18, 4), ((18, 3, 2), (24, 2, 1), (32, 1, 0))),
    ("mult-p5", 8, 2): (15, 12, 15, 13, (18, 4), ((18, 4, 3), (24, 3, 2), (32, 2, 1), (160, 1, 0))),
    ("lt-p3", 6, 1): (14, 10, 10, 10, (10, 4), ((10, 3, 2), (12, 2, 1), (24, 1, 0))),
    ("lt-p3", 6, 2): (15, 11, 11, 11, (10, 4), ((10, 4, 3), (12, 3, 2), (24, 2, 1), (36, 1, 0))),
    ("lt-p3", 8, 1): (16, 12, 12, 12, (10, 4), ((10, 3, 2), (16, 2, 1), (24, 1, 0))),
    ("lt-p3", 8, 2): (17, 13, 13, 13, (10, 4), ((10, 4, 3), (16, 3, 2), (24, 2, 1), (48, 1, 0))),
    ("lt-p5", 6, 1): (11, 8, 8, 8, (18, 4), ((18, 3, 2), (24, 2, 0))),
    ("lt-p5", 6, 2): (12, 9, 9, 9, (18, 4), ((18, 4, 3), (24, 3, 1), (120, 1, 0))),
    ("lt-p5", 8, 1): (14, 11, 11, 11, (18, 4), ((18, 3, 2), (24, 2, 1), (32, 1, 0))),
    ("lt-p5", 8, 2): (15, 12, 12, 12, (18, 4), ((18, 4, 3), (24, 3, 2), (32, 2, 1), (160, 1, 0))),
    ("lt-h2-p3", 6, 1): (15, 12, 12, 9, (34, 4), ((34, 3, 2), (36, 2, 1), (48, 1, 0))),
    ("lt-h2-p3", 6, 2): (16, 13, 13, 10, (34, 4), ((34, 4, 3), (36, 3, 2), (48, 2, 1), (432, 1, 0))),
    ("lt-h2-p3", 8, 1): (17, 14, 14, 11, (34, 4), ((34, 3, 2), (36, 2, 1), (64, 1, 0))),
    ("lt-h2-p3", 8, 2): (18, 15, 15, 12, (34, 4), ((34, 4, 3), (36, 3, 2), (64, 2, 1), (576, 1, 0))),
    ("honda-h2-p3", 6, 1): (15, 12, 15, 9, None, ((36, 2, 1), (48, 1, 0))),
    ("honda-h2-p3", 6, 2): (16, 13, 16, 10, None, ((36, 3, 2), (48, 2, 1), (432, 1, 0))),
    ("honda-h2-p3", 8, 1): (17, 14, 17, 11, None, ((36, 2, 1), (64, 1, 0))),
    ("honda-h2-p3", 8, 2): (18, 15, 18, 12, None, ((36, 3, 2), (64, 2, 1), (576, 1, 0))),
}


def measured(name, N, nmax):
    spec = dict(CORPUS_SPECS)[name]
    g = make_group(N=N, nmax=nmax, label=name, **spec)
    D = endo_window(g.q)
    digits = teichmuller_digits(g.desc, math.gcd(g.desc.f, g.height))
    gen = digits[2] if len(digits) > 2 else digits[1]
    # the certificates first: the law at the endo window is then a cache hit
    neg = try_endomorphism(g, -1)["precision"]
    teich = try_endomorphism(g, gen)["precision"]
    law_N = g.group_law2(D).desc.N
    asked = []
    law = g.group_law2
    g.group_law2 = lambda D2, N2=None: asked.append((D2, N2)) or law(D2, N2)
    cross = None
    if g.desc.f % g.height == 0:
        ramification_breaks(g, 1, N=min(N, 5))
        cross = asked[-1]
    cfg = dict(p=spec["p"], f=spec["f"], group=spec["source"], d=spec.get("d", 1),
               u=",".join(map(str, spec.get("u", ()))), N=N, nmax=nmax)
    q = g.q
    windows = sorted({N * (q - 1) * q ** (n - 1) for n in range(1, nmax + 1)}
                     | {D} | ({cross[0]} if cross else set()))
    verdicts = tuple((W, len(RunConfig(dict(cfg, dcap=W - 1)).validate("verify")),
                      len(RunConfig(dict(cfg, dcap=W)).validate("verify"))) for W in windows)
    return g.desc.N, law_N, neg, teich, cross, verdicts


@pytest.mark.parametrize("name,N,nmax", sorted(PINNED))
def test_precisions_pinned_on_the_corpus(name, N, nmax):
    assert measured(name, N, nmax) == PINNED[name, N, nmax]


# Rules that belong to fglab.precision alone; the unit-quotient order of
# matrices is kept apart on purpose, as an independent count that the
# certified torsion degree is checked against.
RULES = ("floor_log(", "math.log(", "math.log2(", "q ** (n - 1)", "q ** (level - 1)",
         "(q - 1) * q **", "max(4 * q", "cushion(")


# Windows that cli.py opens through its run plan alone, so that the windows
# validate holds against dcap are the ones the checks open.
PLAN_RULES = ("model_window(", "count_window(", "crosscheck_window(", "endo_window(")


def test_window_and_precision_rules_live_in_one_module():
    src = Path(fglab.__file__).parent
    plan = next(node for node in ast.parse((src / "cli.py").read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == "RunPlan")
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "precision.py":
            continue
        text = path.read_text()
        if path.name == "matrices.py":
            text = re.sub(r"def unit_quotient_order\(.*?(?=\ndef |\Z)", "", text, flags=re.S)
        for lineno, line in enumerate(text.splitlines(), start=1):
            found += [f"{path.name}:{lineno}: {rule}" for rule in RULES if rule in line]
            if path.name == "cli.py" and not plan.lineno <= lineno <= plan.end_lineno:
                found += [f"cli.py:{lineno}: {rule}" for rule in PLAN_RULES if rule in line]
    assert found == []


def test_guards_raise_instead_of_asserting():
    # an assert statement vanishes under python -O; raise AssertionError stays
    src = Path(fglab.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_valuation_loop_outside_the_kernel():
    # a `while ... % ... == 0` loop counts factors of p by hand; every v_p
    # goes through padic.valuations, and padic keeps only its own loops
    def divisibility(test):
        return any(isinstance(c, ast.Compare) and isinstance(c.left, ast.BinOp)
                   and isinstance(c.left.op, ast.Mod)
                   and any(isinstance(op, ast.Eq) for op in c.ops)
                   and any(isinstance(k, ast.Constant) and k.value == 0 for k in c.comparators)
                   for c in ast.walk(test))

    src = Path(fglab.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py")) if path.name != "padic.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.While) and divisibility(node.test)]
    assert found == []


def test_scalars_are_read_only_by_padic():
    # padic.components reads every ring scalar and padic.residues reduces
    # it; an isinstance ladder of its own in another module reads scalars
    # its own way (reports.py serialises plain values, not scalars)
    banned = {"int", "float", "Fraction", "list", "tuple"}

    def names(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "numbers":
                yield f"numbers.{n.attr}"

    src = Path(fglab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("padic.py", "reports.py"):
            continue
        tree = ast.parse(path.read_text())
        from_numbers = {a.asname or a.name for n in ast.walk(tree)
                        if isinstance(n, ast.ImportFrom) and n.module == "numbers" for a in n.names}
        found += [f"{path.name}:{node.lineno}: {name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  for arg in node.args[1:] for name in names(arg)
                  if name in banned or name in from_numbers or name.startswith("numbers.")]
    assert found == []


def test_no_module_imports_a_concurrency_library():
    # the checks run one at a time in one process, so no cache is written
    # for another thread or process
    banned = ("threading", "concurrent", "multiprocessing")

    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [node.module]
        return []

    src = Path(fglab.__file__).parent
    found = [f"{path.name}:{node.lineno}: {name}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             for name in imported(node) if name.split(".")[0] in banned]
    assert found == []


# ---------------------------------------------------------------- run plan

def corpus_config(name, N, nmax, dcap=None):
    spec = dict(CORPUS_SPECS)[name]
    return RunConfig(dict(p=spec["p"], f=spec["f"], group=spec["source"], d=spec.get("d", 1),
                          u=",".join(map(str, spec.get("u", ()))), N=N, nmax=nmax, dcap=dcap))


@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_run_plan_windows_come_from_the_precision_rules(name):
    # every config of the group at N <= 9, nmax <= 3 that validate accepts:
    # the plan's windows are the precision functions', and its module
    # structure passes the construction-precision guard, so a config that
    # runs never fails because of the plan; the [p]-series covers the top
    # level and the module structure's working precision
    accepted = 0
    for N in range(4, 10):
        for nmax in (1, 2, 3):
            cfg = corpus_config(name, N, nmax)
            if cfg.validate("verify"):
                continue
            accepted += 1
            g = build_group(cfg)
            q = g.q
            plan = RunPlan(cfg, "verify", g.height)
            pi = (model_window(q, nmax, N), N)
            if g.desc.f % g.height:
                assert plan.pi(g) == pi
                assert (plan.modules(), plan.module(), plan.law(g)) == ([], None, None)
                continue
            N_r = ramification_precision(N)
            N_x = crosscheck_precision(N_r)
            assert plan.modules() == ([(model_window(q, n, 4), 4) for n in range(1, nmax + 1)]
                                    + [(model_window(q, n, N_r), N_r)
                                       for n in range(1, min(nmax, 2) + 1)]
                                    + [(model_window(q, 1, N_x), N_x)])
            D, N_m = plan.module()
            assert (D, N_m) == (max(w for w, _ in plan.modules()), max(n for _, n in plan.modules()))
            N_w = N_m + cushion(D, g.q_eff)
            assert N_w <= g.desc.N
            assert plan.pi(g) == (max(pi[0], D), max(N, N_w))
            D_e = endo_window(q)
            assert plan.law(g) == (D_e, multiplier_precision(True, g.kind, g.desc.N, D_e, g.desc.p, g.q_eff))
    assert accepted >= 6


def test_plan_keeps_the_config_pi_series_below_the_module_precision():
    # a group constructed at the config's N holds no module structure's
    # working precision: the plan opens the [p]-series at the config's key,
    # and the module structure's precision error is left to its check
    cfg = corpus_config("lt-p3", 6, 2)
    g = lubin_tate_group(RingDescriptor(3, 1, 6), [0, 3, 0, 1])
    plan = RunPlan(cfg, "torsion", g.height)
    D, N_m = plan.module()
    assert N_m + cushion(D, g.q) > g.desc.N
    assert plan.pi(g) == (model_window(g.q, 2, 6), 6)
    g.pi_series(*plan.pi(g))
    with pytest.raises(ValueError, match="higher precision"):
        plan.open_modules(g)


# the corpus groups with h | f, which open module structures
@pytest.mark.parametrize("name", ["mult-p3", "mult-p5", "lt-p3", "lt-p5", "lt-h2-p3"])
def test_torsion_checks_open_the_plan_windows(name, monkeypatch, tmp_path):
    # the module structures the checks ask for are the plan's windows, and
    # the first one opened is the widest
    cfg = corpus_config(name, 6, 2)
    plan = RunPlan(cfg, "torsion", build_group(cfg).height)
    asked = []
    module = FormalGroupLaw.module
    monkeypatch.setattr(FormalGroupLaw, "module",
                        lambda self, D, N: asked.append((D, N)) or module(self, D, N))
    argv = ["torsion", "--p", str(cfg.p), "--f", str(cfg.f), "--group", cfg.group,
            "--d", str(cfg.d), "--N", "6", "--nmax", "2", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert asked[0] == plan.module()
    assert set(asked[1:]) == set(plan.modules())


@pytest.mark.parametrize("command", ["torsion", "endo", "matrices", "verify"])
@pytest.mark.parametrize("name", [name for name, _spec in CORPUS_SPECS])
def test_no_run_opens_a_window_past_dcap(name, command, monkeypatch, tmp_path):
    # at the smallest dcap that validate accepts, no [p]-series, law (on the
    # window it is solved on) or module structure is opened wider, and the
    # widest one opened is that dcap: validate holds only the windows the
    # command opens
    opened = []
    pi, law, module = FormalGroupLaw.pi_series, FormalGroupLaw.group_law2, FormalGroupLaw.module
    monkeypatch.setattr(FormalGroupLaw, "pi_series",
                        lambda self, D, N=None: opened.append(D) or pi(self, D, N))
    monkeypatch.setattr(FormalGroupLaw, "group_law2",
                        lambda self, D, N=None: opened.append(law_window(D, self.q)) or law(self, D, N))
    monkeypatch.setattr(FormalGroupLaw, "module",
                        lambda self, D, N: opened.append(D) or module(self, D, N))
    for N, nmax in ((4, 1), (6, 2)):
        cfg = corpus_config(name, N, nmax)
        assert not cfg.validate(command)
        dcap = 1 + bisect.bisect(range(1, 800), False,
                                 key=lambda c: not corpus_config(name, N, nmax, c).validate(command))
        argv = [command, "--p", str(cfg.p), "--f", str(cfg.f), "--group", cfg.group,
                "--d", str(cfg.d), "--u", ",".join(map(str, cfg.u)), "--N", str(N),
                "--nmax", str(nmax), "--dcap", str(dcap), "--out", str(tmp_path / "r.json")]
        opened.clear()
        assert cli.main(argv) == 0
        assert max(opened) == dcap
