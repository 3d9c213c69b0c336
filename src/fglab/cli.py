"""Command-line driver: configure one group, run verification suites, emit
a machine-readable report.

Subcommands select the suite: construct echoes the group law, torsion runs
the division-polynomial and torsion-field checks, endo the multiplier-ring
checks, matrices the block-model linear algebra, verify everything plus the
seeded series round-trip properties.  Configuration comes from defaults, an
optional flat key=value file, and flags, in that order of precedence; every
file key has a flag of the same name.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the
configuration was invalid or a requested window is infeasible.  A failing
check never aborts the run.
"""

import argparse
import json
import math
import os
import random
import sys
import time

import numpy as np

from .corpus import make_group, source_height
from .endo import (compute_endo_subfield, multiplier_closure_sample, tau_infinity_check,
                   try_endomorphism)
from .matrices import build_phi_zeta, check_relations, commutant_dimension, unit_quotient_order
from .padic import INF, RingDescriptor, is_prime
from .precision import (count_window, crosscheck_precision, crosscheck_window, division_window,
                        endo_window, law_precision, level_degree, model_window,
                        multiplier_precision, ramification_precision, solve_precision)
from .reports import Check, build_report, exit_code, render_summary, run_checks
from .series import TruncSeries1
from .torsion import (
    TorsionFieldModel,
    assumption_check,
    break_rows,
    certify_torsion_degree,
    crosscheck_scalars,
    digit_sums,
    mu_p_membership,
    ramification_breaks,
    torsion_count,
)

GROUP_SOURCES = ("multiplicative", "lubin-tate", "honda")

# (key, default, type, help) of every config key, in flag order: the flag
# --key (underscores as dashes), the file key and the default in one place.
# A key of type None is kept as text.
KEYS = (
    ("p", 3, int, "residue characteristic (odd prime)"),
    ("f", 1, int, "residue degree of the base ring"),
    ("N", 6, int, "working precision (digits of p)"),
    ("group", "lubin-tate", None, "group source"),
    ("d", 1, int, "height of the lubin-tate source"),
    ("u", "", None, "comma-separated u list for the honda source"),
    ("group_file", "", None, "file of integer series coefficients for a custom lubin-tate source"),
    ("nmax", 2, int, "largest torsion level"),
    ("dcap", 800, int, "hard cap on evaluation windows"),
    ("jobs", 1, int, "accepts only 1: the checks run in order"),
    ("seed", 0, int, "seed for the property suites"),
    ("out", "", None, "write the JSON report here"),
)

DEFAULTS = {key: default for key, default, _, _ in KEYS}


def parse_u(text):
    if not text:
        return ()
    return tuple(int(t) for t in str(text).replace(" ", "").split(",") if t != "")


def load_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = val
    return out


class RunConfig:
    """Validated run parameters; construction happens only after validate."""

    def __init__(self, values: dict):
        merged = dict(DEFAULTS)
        merged.update({k: v for k, v in values.items() if v is not None})
        for key, _, kind, _ in KEYS:
            if kind is not None:
                merged[key] = kind(merged[key])
        merged["u"] = parse_u(merged["u"])
        self.values = merged

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

    def to_dict(self) -> dict:
        out = dict(self.values)
        out["u"] = list(out["u"])
        return out

    def load_coeffs(self):
        """Integer coefficients from the group file, low degree first."""
        with open(self.group_file) as fh:
            toks = fh.read().split()
        return [int(t) for t in toks]

    def validate(self, command: str) -> list:
        """Returns a list of problems; empty means the config can run command."""
        problems = []
        v = self.values
        if v["p"] < 3:
            problems.append("p must be an odd prime")
        if v["f"] < 1:
            problems.append("f must be >= 1")
        if v["N"] < 4:
            problems.append("N must be >= 4")
        if v["d"] < 1:
            problems.append("d must be >= 1")
        if v["nmax"] < 1:
            problems.append("nmax must be >= 1")
        if v["dcap"] < 1:
            problems.append("dcap must be >= 1")
        if v["jobs"] != 1:
            problems.append("jobs must be 1: the checks run one at a time")
        if v["group"] not in GROUP_SOURCES:
            problems.append(f"group must be one of {', '.join(GROUP_SOURCES)}")
        if v["group"] == "honda" and not v["u"]:
            problems.append("honda source needs a nonempty u list, e.g. --u 0,1")
        coeffs = None
        if v["group_file"]:
            if v["group"] != "lubin-tate":
                problems.append("group_file applies to the lubin-tate source")
            else:
                try:
                    coeffs = self.load_coeffs()
                except (OSError, ValueError) as exc:
                    problems.append(f"group_file: {exc}")
        # refuse an unwritable report path now, not after every check has run
        out = v["out"]
        if out and os.path.isdir(out):
            problems.append(f"out: {out} is a directory")
        elif out and not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK):
            problems.append(f"out: the directory of {out} is missing or not writable")
        if problems:
            return problems
        try:
            h = source_height(v["p"], v["group"], v["d"], v["u"], coeffs)
        except ValueError as exc:
            return [f"the group could not be constructed: {exc}"]
        if h == math.inf and command != "construct":
            return ["group has no finite height; the suites need finite torsion"]
        problems = [f"{what} {D} exceeds the cap {v['dcap']}; {fix}"
                    for what, D, fix in RunPlan(self, command, h).windows() if D > v["dcap"]]
        if problems:
            return problems
        try:
            return [] if is_prime(v["p"]) else ["p must be an odd prime"]
        except ValueError as exc:
            return [str(exc)]


def build_group(cfg: RunConfig):
    coeffs = cfg.load_coeffs() if cfg.group_file else None
    return make_group(cfg.p, cfg.f, cfg.N, cfg.group, d=cfg.d, u=cfg.u,
                      coeffs=coeffs, nmax=cfg.nmax)


# ------------------------------------------------------------- suites

class RunPlan:
    """Every (D, N) a command opens, from the precision functions and the
    height, so validate refuses a window past dcap before the group exists.
    Each artifact opens at its widest key and serves every narrower one: the
    top level's [p]-series, widened to the module structure's working key
    where the group's precision holds it; where h | f, the module structure
    covering the scalar-action, ramification and cross-check keys; in
    verify, an integer-multiplier certificate's law if it covers the
    cross-check's.  The first check that needs one opens it, so a failure
    is recorded there."""

    def __init__(self, cfg: RunConfig, command: str, h):
        self.command, self.N, self.dcap = command, cfg.N, cfg.dcap
        self.q = q = None if h == math.inf else cfg.p**h
        self.capable = q is not None and cfg.f % h == 0  # the full scalar action
        self.levels = range(1, cfg.nmax + 1)
        self.low_levels = range(1, min(cfg.nmax, 2) + 1)  # ramification, unit quotients
        self.N_r = ramification_precision(cfg.N)
        self.mu_N = min(cfg.N, 6)
        self.echo = (4, None if q is None else q + 2)  # the law's window, the [p]-series'
        self.endo = endo_window(q)
        self._solved = False
        if q is not None:  # the cross-check's law
            N_x = crosscheck_precision(self.N_r)
            self.crosscheck = (crosscheck_window(q, N_x), N_x)

    def level(self, n: int) -> dict:
        """The (D, N) keys of the level-n checks."""
        q, N, N_r = self.q, self.N, self.N_r
        return {"division": (count_window(q, n), 4), "count": (count_window(q, n), 3),
                "model": (model_window(q, n, N), N), "scalars": (model_window(q, n, 4), 4),
                "breaks": (model_window(q, n, N_r), N_r)}

    def windows(self):
        """(what, D, remedy) of each window validate holds against dcap: the
        windows the command opens.  In verify, the level-n model windows
        hold the endo suite's level-1 window and the matrices suite's
        division windows, as N >= 4."""
        if self.command == "construct":
            if self.q is not None:
                yield "construct window q + 2 =", self.echo[1], "raise dcap"
            return
        q, N, nmax, fix = self.q, self.N, self.levels[-1], "lower N or nmax, or raise dcap"
        if self.command in ("torsion", "verify"):
            for n in self.levels:
                D = model_window(q, n, N)
                yield f"level {n}: window N*e = {N}*{level_degree(q, n)} =", D, fix
                if D > self.dcap and n + 1 < nmax:  # the windows grow with n: one line for the rest
                    yield f"levels {n + 1} to {nmax}: window N*e >=", model_window(q, n + 1, N), fix
                    break
            if self.capable:
                yield "law window min(N, 4)*(q-1) + 2 =", self.crosscheck[0], "raise dcap"
        if self.command == "endo":  # the predicate-agreement check's level-1 model
            yield "level 1: window 4*e =", self.level(1)["scalars"][0], "raise dcap"
        if self.command == "matrices":
            for n in self.low_levels:
                yield (f"level {n}: division window max(q^{n} + q, 4*e) =", division_window(q, n, 4),
                       "lower nmax, or raise dcap" if n > 1 else "raise dcap")
        if self.command in ("endo", "matrices", "verify"):
            yield "endo window max(4q, 24) =", self.endo, "raise dcap"

    def modules(self) -> list:
        """The module keys of the checks that read [a]-series, where h | f."""
        if not self.capable:
            return []
        N_x = self.crosscheck[1]
        return ([self.level(n)["scalars"] for n in self.levels]
                + [self.level(n)["breaks"] for n in self.low_levels]
                + [(model_window(self.q, 1, N_x), N_x)])

    def module(self):  # the one module structure's key: the modules' componentwise maximum
        return tuple(map(max, zip(*self.modules()))) if self.capable else None

    def pi(self, group) -> tuple:
        D, N = self.level(self.levels[-1])["model"]
        if self.capable:
            D_m, N_m = self.module()
            N_w = solve_precision(N_m, D_m, self.q)  # the [p]-series the structure solves over
            if N_w <= group.desc.N:
                D, N = max(D, D_m), max(N, N_w)
        return D, N

    def law(self, group):
        if self.command != "verify" or not self.capable:
            return None
        try:
            N_e = multiplier_precision(True, group.kind, group.desc.N, self.endo, group.desc.p, self.q)
        except ValueError:  # the certificates refuse the group; the endo suite says so
            return None
        D_x, N_x = self.crosscheck
        return (self.endo, N_e) if self.endo >= D_x and N_e >= N_x else None

    def open_modules(self, group):
        """Solve the checks' scalars in one batch: nmax's digit sums hold every lower level's."""
        if self._solved or not self.capable:
            return
        scalars = [a for a in digit_sums(group, self.levels[-1]) if not a.is_zero()]
        scalars += [a for _, _, a in break_rows(group, self.low_levels[-1])]
        group.module(*self.module()).solve_batch(scalars + crosscheck_scalars(group))
        self._solved = True


def torsion_checks(group, plan: RunPlan):
    q = group.q
    checks = []
    for n in plan.levels:
        e_n = level_degree(q, n)
        keys = plan.level(n)

        def degree_thunk(n=n, e_n=e_n, keys=keys):
            group.pi_series(*plan.pi(group))
            # prepare P_n once, at the models' precision; the check reads its reduction
            group.division_factor(n, keys["model"][1])
            cert = certify_torsion_degree(group, n, N=keys["division"][1])
            ok = cert["pure"] and cert["certified_degree"] == e_n
            return ok, {"degree": cert["degree"], "pure": cert["pure"],
                        "root_valuation": cert["root_valuation"],
                        "polygon": cert["polygon"]}

        checks.append(Check(
            f"torsion.division-degree.n{n}",
            {"group": group.label, "level": n},
            f"relative division polynomial is pure of slope 1/{e_n} and degree {e_n}",
            degree_thunk, dict(zip("DN", keys["division"]))))

        def count_thunk(n=n, keys=keys):
            rec = torsion_count(group, n, N=keys["count"][1])
            return rec["match"], {"weierstrass_degree": rec["weierstrass_degree"],
                                  "expected": rec["expected"]}

        checks.append(Check(
            f"torsion.count.n{n}",
            {"group": group.label, "level": n},
            f"[p^{n}] has Weierstrass degree q^{n} = {q**n}",
            count_thunk, dict(zip("DN", keys["count"]))))

        def annihilation_thunk(n=n, keys=keys):
            model = TorsionFieldModel(group, n, keys["model"][1])
            val = model.valuation(model.apply_pi(model.point_z(), times=n), model.r)
            return val is INF, {"valuation": str(val)}

        checks.append(Check(
            f"torsion.annihilation.n{n}",
            {"group": group.label, "level": n},
            f"[p^{n}](z) = 0 in the level-{n} field model",
            annihilation_thunk, dict(zip("DN", keys["model"]))))

        def scalars_thunk(n=n, keys=keys):
            plan.open_modules(group)
            rec = assumption_check(group, n, N=keys["scalars"][1])
            if plan.capable:
                ok = rec["holds"] or rec["mode"] == "obstructed"
            else:
                ok = (not rec["holds"]) and rec["mode"] == "no-module-structure"
            obs = {k: rec.get(k) for k in ("holds", "mode", "count", "expected")}
            obs.update((k, rec[k]) for k in ("valuations", "obstruction") if k in rec)
            return ok, obs

        checks.append(Check(
            f"torsion.scalar-action.n{n}",
            {"group": group.label, "level": n, "full_scalars": plan.capable},
            "digit sums hit the torsion bijectively, or the obstruction is reported",
            scalars_thunk, dict(zip("DN", keys["scalars"]))))

    if plan.capable:
        for n in plan.low_levels:
            key = plan.level(n)["breaks"]

            def breaks_thunk(n=n, key=key):
                plan.open_modules(group)
                if n == 1 and (law := plan.law(group)):
                    group.group_law2(*law)
                rec = ramification_breaks(group, n, N=key[1], cross_check=(n == 1))
                ok = rec["all_match"]
                if n == 1:
                    ok = ok and all(r["match"] for r in rec["direct_level_one"])
                return ok, {"breaks": [(r["k"], r["i_sigma"]) for r in rec["breaks"]],
                            "identity_break": rec["identity_break"]}

            checks.append(Check(
                f"torsion.ramification.n{n}",
                {"group": group.label, "level": n},
                "unit scalars break at i(sigma) = q^k exactly",
                breaks_thunk, dict(zip("DN", key))))

    def mu_thunk():
        rec = mu_p_membership(group, N=plan.mu_N)
        return rec["found"], {"d": rec["d"], "attempts": rec["attempts"]}

    checks.append(Check(
        "torsion.mu-p",
        {"group": group.label, "d_max": group.height},
        "the level-1 field reaches the p-th roots of unity within degree h",
        mu_thunk, {"N": plan.mu_N}))
    return checks


def _matches_construction(rec, construction) -> bool:
    """Whether a certificate's series equals construction(window, M), the
    series the group builds, at M = min(4, the certificate's precision);
    False for a failed certificate."""
    if not rec["success"]:
        return False
    M = min(4, rec["precision"])
    return rec["series"].reduce_precision(M) == construction(rec["window"], M)


def endo_checks(group, plan: RunPlan):
    p = group.desc.p
    checks = []

    def negation_thunk():
        rec = try_endomorphism(group, -1)
        same = _matches_construction(rec, group.negation_series)
        return same, {
            "success": rec["success"],
            "matches_group_inverse": same,
            "first_coeffs": [list(map(int, rec["series"].coeff_vec(k))) for k in range(4)]
            if rec["success"] else None,
        }

    checks.append(Check(
        "endo.negation", {"group": group.label, "multiplier": -1},
        "[-1] is an endomorphism and equals the group inverse",
        negation_thunk))

    def mult_p_thunk():
        rec = try_endomorphism(group, p)
        same = _matches_construction(rec, group.pi_series)
        return same, {"success": rec["success"], "matches_pi": same}

    checks.append(Check(
        "endo.multiplication-by-p", {"group": group.label, "multiplier": p},
        "[p] recovered from the logarithm equals the construction series",
        mult_p_thunk))

    def subfield_thunk():
        rep = compute_endo_subfield(group)
        consistent = rep["full_height"] == (rep["f_F"] == group.height)
        divides = math.gcd(group.desc.f, group.height) % rep["f_F"] == 0
        return consistent and divides, {
            "f_F": rep["f_F"], "full_height": rep["full_height"],
            "candidates": [(c["candidate"], c["success"]) for c in rep["candidates"]],
        }

    checks.append(Check(
        "endo.subfield", {"group": group.label, "f": group.desc.f, "h": group.height},
        "multiplier subfield degree divides gcd(f, h) and fullness is consistent",
        subfield_thunk))

    def tau_thunk():
        rep = compute_endo_subfield(group)
        if rep["full_height"]:
            rec = tau_infinity_check(group)
            return rec["is_identity"], {
                "order": rec["order"], "is_identity": rec["is_identity"],
                "precision": rec["precision"],
            }
        try:
            tau_infinity_check(group)
        except ValueError as exc:
            return True, {"refused": str(exc)}
        return False, {"refused": None}

    checks.append(Check(
        "endo.tau-power", {"group": group.label, "order": (group.q or 2) - 1},
        "the Teichmuller scalar composes to the identity, or the check refuses",
        tau_thunk))

    def closure_thunk():
        rec = multiplier_closure_sample(group, [(p, -1)])
        return rec["all_ok"], {"results": rec["results"]}

    checks.append(Check(
        "endo.closure", {"group": group.label, "pairs": [[p, -1]]},
        "sums and products of multipliers stay multipliers",
        closure_thunk))

    def agreement_thunk():
        a1 = assumption_check(group, 1, N=plan.level(1)["scalars"][1])["holds"]
        full = compute_endo_subfield(group)["full_height"]
        tau_ok = full and tau_infinity_check(group)["is_identity"]
        return (a1 == full == tau_ok), {
            "scalar_bijection": a1, "full_height": full, "tau_identity": tau_ok,
        }

    checks.append(Check(
        "endo.predicate-agreement", {"group": group.label, "level": 1},
        "scalar bijection, full height, and tau identity agree",
        agreement_thunk))
    return checks


def matrix_checks(group, plan: RunPlan):
    p = group.desc.p
    q = group.q
    checks = []

    def grid_thunk():
        dims = {}
        ok = True
        for m in range(1, 4):
            for n in range(1, 4):
                dim = commutant_dimension(build_phi_zeta(m, n), p=p)
                dims[f"{m}x{n}"] = dim
                ok = ok and dim == n * n * m
        return ok, {"dimensions": dims}

    checks.append(Check(
        "matrices.commutant-grid", {"p": p, "range": "m,n <= 3"},
        "commutant of the block-cyclic matrix has dimension n^2 m",
        grid_thunk))

    def circulant_thunk():
        import itertools as it
        tested = 0
        for m in (1, 2, 3):
            A = build_phi_zeta(m, 1).block
            rest = np.array(list(it.product(range(3), repeat=m * (m - 1))),
                            dtype=np.int64).reshape(3 ** (m * m - m), m - 1, m)
            # one stack per first row, at most 729 matrices, keeps peak memory low
            for first in it.product(range(3), repeat=m):
                Y = np.concatenate([np.broadcast_to(first, (len(rest), 1, m)), rest], axis=1)
                brute = ((A @ Y) % 3 == (Y @ A) % 3).all(axis=(-2, -1))
                bad = np.flatnonzero(check_relations(Y) != brute)
                if bad.size:
                    return False, {"counterexample": Y[bad[0]].tolist()}
                tested += len(Y)
        return True, {"matrices_tested": tested}

    checks.append(Check(
        "matrices.circulant-agreement", {"field": "F_3", "range": "m <= 3"},
        "circulant pattern is equivalent to commutation, exhaustively",
        circulant_thunk))

    for n in plan.low_levels:
        def order_thunk(n=n):
            cert = certify_torsion_degree(group, n, N=plan.level(n)["division"][1])
            order = unit_quotient_order(q, n)
            return cert["certified_degree"] == order, {
                "unit_quotient_order": order,
                "certified_degree": cert["certified_degree"],
            }

        checks.append(Check(
            f"matrices.unit-quotient-degree.n{n}",
            {"group": group.label, "level": n},
            "unit-filtration quotient order equals the torsion-field degree",
            order_thunk))

    def shape_thunk():
        rep = compute_endo_subfield(group)
        m = rep["f_F"]
        n = group.height // m
        dim = commutant_dimension(build_phi_zeta(m, n), p=p)
        return dim == n * n * m, {"m": m, "n": n, "commutant_dimension": dim}

    checks.append(Check(
        "matrices.block-shape", {"group": group.label},
        "the group's own (m, n) block model has commutant dimension n^2 m",
        shape_thunk))
    return checks


# ------------------------------------------------- seeded series properties

def _random_series(desc, D, rng, unit_linear=False):
    """A seeded random series with zero constant term."""
    rows = [[rng.randrange(desc.pN) for _ in range(desc.f)] for _ in range(D)]
    rows[0] = [0] * desc.f
    if unit_linear:
        rows[1] = [1 + desc.p * rng.randrange(desc.p ** (desc.N - 1))] + [0] * (desc.f - 1)
    s = TruncSeries1.zero(desc, D)
    s.data[:] = rows  # residues mod p^N already
    return s


def _cases_verdict(ok):
    """The verdict of a suite from its per-case boolean array: the first
    failing case, as the case-by-case loop would report it."""
    bad = np.flatnonzero(~ok)
    return (False, {"case": int(bad[0])}) if bad.size else (True, {"cases": ok.size})


def roundtrip_checks(group, seed: int):
    """Seeded property suites on 10 random series at window 12, precision 6:
    reversion round-trip, the logarithm pair as inverses, associativity.
    Each suite draws its cases in order, one at a time, and runs them as one
    TruncSeries1 stack: one reversion and one or two compositions."""
    cases, D, N = 10, 12, 6
    desc = RingDescriptor(group.desc.p, group.desc.f, N)
    x = TruncSeries1.x(desc, D)
    checks = []

    def draws(rng, per_case, **kwargs):
        """per_case stacks of `cases` seeded series, drawn case by case."""
        drawn = [[_random_series(desc, D, rng, **kwargs) for _ in range(per_case)]
                 for _ in range(cases)]
        return [TruncSeries1.stack(column) for column in zip(*drawn)]

    def reversion_thunk():
        [s] = draws(random.Random(seed), 1, unit_linear=True)
        r = s.reversion()
        return _cases_verdict(s.compose(r).equal_cases(x) & r.compose(s).equal_cases(x))

    checks.append(Check(
        "series.reversion-roundtrip", {"seed": seed, "cases": cases},
        "compositional inverse inverts on both sides",
        reversion_thunk, {"D": D, "N": N}))

    def logexp_thunk():
        log = group.logarithm(D)
        exp = group.exponential(D)
        xs = TruncSeries1.x(group.desc, D, domain="scaled")
        group_ok = exp.compose(log) == xs and log.compose(exp) == xs
        [s] = draws(random.Random(seed + 1), 1, unit_linear=True)
        s = s.to_scaled()
        r = s.reversion()
        ok, observed = _cases_verdict(s.compose(r).equal_cases(r.compose(s)))
        if not ok:
            return ok, observed
        return group_ok, {"group_pair_exact": group_ok, "cases": cases}

    checks.append(Check(
        "series.log-exp-roundtrip", {"group": group.label, "seed": seed + 1, "cases": cases},
        "exponential and logarithm are exact functional inverses",
        logexp_thunk, {"D": D, "N": N}))

    def assoc_thunk():
        a, b, c = draws(random.Random(seed + 2), 3)
        return _cases_verdict(a.compose(b).compose(c).equal_cases(a.compose(b.compose(c))))

    checks.append(Check(
        "series.compose-associativity", {"seed": seed + 2, "cases": cases},
        "composition of truncated series is associative",
        assoc_thunk, {"D": D, "N": N}))
    return checks


# ------------------------------------------------------------- commands

def serialize_group(group, cfg: RunConfig) -> dict:
    D_law, D_pi = RunPlan(cfg, "construct", group.height).echo
    N_echo = min(cfg.N, law_precision(group.kind, group.desc.N, D_law, group.q_eff))
    F2 = group.group_law2(D_law, N_echo)
    law = {f"{i},{j}": [int(v) for v in vec] for i, j, vec in F2.coeff_triples()}
    pi = group.pi_series(D_pi, N_echo) if D_pi else None
    return {
        "label": group.label,
        "kind": group.kind,
        "p": group.desc.p,
        "f": group.desc.f,
        "working_precision": cfg.N,
        "construction_precision": group.desc.N,
        "height": "inf" if group.height is INF else group.height,
        "q": group.q,
        "group_law": law,
        "pi_series": [[int(v) for v in pi.data[k]] for k in range(D_pi)] if pi else None,
    }


def collect_checks(command: str, group, cfg: RunConfig):
    checks = []
    plan = RunPlan(cfg, command, group.height)
    if command in ("torsion", "verify"):
        checks += torsion_checks(group, plan)
    if command in ("endo", "verify"):
        checks += endo_checks(group, plan)
    if command in ("matrices", "verify"):
        checks += matrix_checks(group, plan)
    if command == "verify":
        checks += roundtrip_checks(group, cfg.seed)
    return checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fglab",
        description="exact-arithmetic laboratory for one-dimensional formal groups",
    )
    # the flags every subcommand shares, declared once on a parent parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    for key, _, kind, help_text in KEYS:
        common.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text,
                            choices=GROUP_SOURCES if key == "group" else None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("construct", "build the configured group and echo its law"),
        ("torsion", "division polynomials, torsion fields, ramification"),
        ("endo", "multiplier-ring certificates"),
        ("matrices", "block-model linear algebra"),
        ("verify", "every suite plus seeded series properties"),
    ):
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    values = {}
    if args.config:
        try:
            values.update(load_config_file(args.config))
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        cfg = RunConfig(values)
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    problems = cfg.validate(args.command)
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    try:
        group = build_group(cfg)
    except (ValueError, ArithmeticError) as exc:
        print(f"config error: the group could not be constructed: {exc}", file=sys.stderr)
        return 2

    if args.command == "construct":
        doc = {"schema_version": 1, "config": cfg.to_dict(), "group": serialize_group(group, cfg)}
        what, code = "group", 0
    else:
        t0 = time.perf_counter()
        records = run_checks(collect_checks(args.command, group, cfg))
        doc = build_report(dict(cfg.to_dict(), command=args.command), records,
                           time.perf_counter() - t0)
        what, code = "report", exit_code(doc)
        print(render_summary(doc))
    text = json.dumps(doc, indent=2, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
        print(f"{what} written to {cfg.out}")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
