"""CLI driver: config handling, exit codes, report format, determinism."""

import argparse
import json
import re
import time
from pathlib import Path

import pytest

from fglab import cli
from fglab.cli import main, parse_u, load_config_file, RunConfig
from fglab.reports import Check, build_report, exit_code, run_checks, strip_timings


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def subcommand_flags():
    """{subcommand: its long options}, without --help."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [o for a in sp._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"]
            for name, sp in sub.choices.items()}


class TestConfig:
    def test_parse_u(self):
        assert parse_u("") == ()
        assert parse_u("0,1") == (0, 1)
        assert parse_u(" 0, 1 ") == (0, 1)

    def test_defaults_fill_in(self):
        cfg = RunConfig({"p": 5})
        assert cfg.p == 5 and cfg.f == 1 and cfg.dcap == 800

    def test_validation_catches_bad_values(self):
        assert RunConfig({"p": 4}).validate("verify")
        assert RunConfig({"N": 3}).validate("verify")
        assert RunConfig({"group": "honda"}).validate("verify")
        assert not RunConfig({}).validate("verify")

    def test_feasibility_cap(self):
        cfg = RunConfig({"f": 2, "group": "lubin-tate", "d": 2, "N": 12})
        problems = cfg.validate("verify")
        assert any("exceeds the cap" in s for s in problems)
        assert RunConfig({"f": 2, "group": "lubin-tate", "d": 2, "N": 8}).validate("verify") == []

    def test_infinite_height_refused(self):
        problems = RunConfig({"group": "honda", "u": "0,0"}).validate("verify")
        assert any("finite height" in s for s in problems)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\np = 5\nnmax = 1\n")
        assert load_config_file(str(path)) == {"p": "5", "nmax": "1"}

    def test_each_config_key_has_one_home(self, tmp_path):
        # the defaults, the flags and the file keys are all read from cli.KEYS
        keys = [key for key, _, _, _ in cli.KEYS]
        assert len(set(keys)) == len(keys)
        assert set(cli.DEFAULTS) == set(keys)
        for flags in subcommand_flags().values():
            assert flags[0] == "--config"
            assert flags[1:] == ["--" + key.replace("_", "-") for key in keys]
        parsed = vars(cli.build_parser().parse_args(["verify"]))
        assert set(parsed) - {"command", "config"} == set(keys)
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = 1\n" for key in keys))
        assert set(load_config_file(str(path))) == set(keys)

    def test_readme_lists_the_parser_flags(self):
        readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
        listed = re.search(r"Flags: `([^`]*)`", readme).group(1).split()
        for flags in subcommand_flags().values():
            assert sorted(listed) == sorted(flags)

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("prime = 5\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(str(path))


class TestExitCodes:
    def test_feasibility_exit_two(self, capsys):
        code = main(["verify", "--p", "3", "--f", "2", "--group", "lubin-tate",
                     "--d", "2", "--N", "12"])
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_bad_prime_exit_two(self, capsys):
        assert main(["torsion", "--p", "9"]) == 2
        assert "p must be an odd prime" in capsys.readouterr().err

    def test_huge_prime_fails_the_windows_before_primality(self, capsys, monkeypatch):
        # q = p fails every window, and validate reports those before primality
        def is_prime(n):
            raise AssertionError("primality was tested")

        monkeypatch.setattr(cli, "is_prime", is_prime)
        assert main(["verify", "--p", "1000000000000000003"]) == 2
        err = capsys.readouterr().err
        assert "law window min(N, 4)*(q-1) + 2 = 4000000000000000010 exceeds the cap 800" in err
        assert "endo window max(4q, 24) = 4000000000000000012 exceeds the cap 800" in err

    def test_huge_prime_constructs_in_seconds(self, capsys):
        # Miller-Rabin certifies p ~ 10^18, where trial division took minutes
        t0 = time.perf_counter()
        assert main(["construct", "--group", "honda", "--u", "0", "--p", "1000000000000000003"]) == 0
        assert time.perf_counter() - t0 < 10
        assert '"p": 1000000000000000003' in capsys.readouterr().out

    def test_prime_past_the_certified_bound_exit_two(self, capsys):
        assert main(["construct", "--group", "honda", "--u", "0",
                     "--p", "318665857834031151167483"]) == 2
        assert "p is too large to certify as prime" in capsys.readouterr().err

    def test_jobs_other_than_one_exit_two(self, capsys):
        for jobs in ("2", "0"):
            assert main(["torsion", "--p", "3", "--jobs", jobs]) == 2
            assert "config error: jobs must be 1" in capsys.readouterr().err

    def test_config_file_with_one_job_runs(self, tmp_path):
        path, out = tmp_path / "run.cfg", tmp_path / "r.json"
        path.write_text("p = 3\nN = 4\nnmax = 1\njobs = 1\n")
        assert main(["torsion", "--config", str(path), "--out", str(out)]) == 0
        assert read_json(out)["config"]["jobs"] == 1

    def test_bad_group_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("0 1 1\n")
        assert main(["torsion", "--group-file", str(path)]) == 2
        assert "could not be constructed" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, capsys):
        assert main(["torsion", "--config", "/nonexistent/run.cfg"]) == 2

    def test_unwritable_out_exit_two_before_the_group_is_built(self, tmp_path,
                                                               monkeypatch, capsys):
        def build_group(cfg):
            raise AssertionError("the group was built")

        monkeypatch.setattr(cli, "build_group", build_group)
        for out in (tmp_path / "missing" / "r.json", tmp_path):
            for command in ("matrices", "construct"):
                assert main([command, "--p", "3", "--out", str(out)]) == 2
                assert "config error: out:" in capsys.readouterr().err
        assert RunConfig({"out": str(tmp_path / "r.json")}).validate("verify") == []

    def test_endo_window_past_cap_exit_two(self, capsys):
        # torsion needs only N*e = 12 here, the certificates need 24
        assert RunConfig({"N": 6, "nmax": 1, "dcap": 20}).validate("torsion") == []
        for command in ("endo", "matrices", "verify"):
            assert main([command, "--p", "3", "--N", "6", "--nmax", "1", "--dcap", "20"]) == 2
            assert "endo window max(4q, 24) = 24 exceeds the cap 20" in capsys.readouterr().err

    def test_construct_window_past_cap_exit_two(self, capsys):
        # the echo opens the [p]-series at q + 2 = 3^7 + 2
        assert main(["construct", "--group", "lubin-tate", "--p", "3", "--d", "7"]) == 2
        assert "construct window q + 2 = 2189 exceeds the cap 800" in capsys.readouterr().err
        assert RunConfig({"d": 6, "dcap": 731}).validate("construct") == []
        assert RunConfig({"d": 6, "dcap": 730}).validate("construct")
        # infinite height: no [p]-series, no window to refuse
        assert main(["construct", "--group", "honda", "--p", "3", "--u", "0"]) == 0

    def test_large_nmax_exit_two_with_one_line_for_the_higher_levels(self, capsys):
        # the level windows grow with n: the first level past the cap keeps
        # its line, and the levels above it share one
        assert main(["torsion", "--nmax", "10000"]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "level" in line]
        assert lines == [
            "config error: level 5: window N*e = 6*162 = 972 exceeds the cap 800; "
            "lower N or nmax, or raise dcap",
            "config error: levels 6 to 10000: window N*e >= 2916 exceeds the cap 800; "
            "lower N or nmax, or raise dcap"]

    def test_law_window_past_cap_exit_two(self, capsys):
        # the torsion window N*e = 8 fits, the level-1 law window 4*2 + 2 = 10 does not
        argv = ["--group", "multiplicative", "--p", "3", "--N", "4", "--nmax", "1"]
        for command in ("torsion", "verify"):
            assert main([command] + argv + ["--dcap", "8"]) == 2
            err = capsys.readouterr().err
            assert "law window min(N, 4)*(q-1) + 2 = 10 exceeds the cap 8" in err
        assert RunConfig({"group": "multiplicative", "N": 4, "nmax": 1,
                          "dcap": 10}).validate("torsion") == []
        # h = 2 does not divide f = 1: no ramification suite, no law window
        assert RunConfig({"group": "lubin-tate", "d": 2, "N": 4, "nmax": 1,
                          "dcap": 32}).validate("torsion") == []


class TestConstruct:
    def test_multiplicative_law_echo(self, tmp_path, capsys):
        out = tmp_path / "group.json"
        assert main(["construct", "--group", "multiplicative", "--p", "3",
                     "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["group"]["group_law"] == {"0,1": [1], "1,0": [1], "1,1": [1]}
        assert doc["group"]["height"] == 1

    @pytest.mark.parametrize("argv", [
        ("--p", "5", "--d", "1"),            # the corpus lt-p5, q = 5
        ("--p", "3", "--d", "2"),            # q = 9
        ("--p", "3", "--f", "2", "--d", "2"),
        ("--p", "7", "--d", "1"),
    ])
    def test_lubin_tate_past_q_three_constructs(self, argv, tmp_path, capsys):
        # the law on window 4 is solved on a window past the height index q;
        # below degree q it is X + Y
        from fglab.cli import build_group

        out = tmp_path / "group.json"
        assert main(["construct", "--group", "lubin-tate", *argv, "--out", str(out)]) == 0
        doc = read_json(out)
        cfg = RunConfig(doc["config"])
        group = build_group(cfg)
        wide = group.group_law2(group.q + 8, cfg.N)
        law = {f"{i},{j}": [int(v) for v in vec]
               for i, j, vec in wide.coeff_triples() if i + j < 4}
        assert doc["group"]["group_law"] == law == {"0,1": [1] + [0] * (cfg.f - 1),
                                                   "1,0": [1] + [0] * (cfg.f - 1)}
        assert len(doc["group"]["pi_series"]) == group.q + 2

    def test_base_changed_honda_echoes_its_kind(self, tmp_path):
        # a honda group over W(F_9) is the honda kind, not a second one
        out = tmp_path / "group.json"
        assert main(["construct", "--group", "honda", "--p", "3", "--u", "0,1", "--f", "2",
                     "--out", str(out)]) == 0
        doc = read_json(out)["group"]
        assert (doc["kind"], doc["f"], doc["height"]) == ("honda", 2, 2)

    def test_additive_constructs(self, capsys):
        # infinite height is fine for construct, only the suites refuse it
        assert main(["construct", "--group", "honda", "--u", "0,0", "--p", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["group"]["height"] == "inf"
        assert doc["group"]["pi_series"] is None


class TestSuites:
    def test_obstructed_module_is_reported(self, tmp_path, capsys):
        # h = 2 divides f = 2, but [zeta] is obstructed at degree 27
        out = tmp_path / "rep.json"
        assert main(["verify", "--group", "honda", "--p", "3", "--u", "0,1,1", "--f", "2",
                     "--N", "4", "--nmax", "1", "--out", str(out)]) == 1
        recs = {r["id"]: r for r in read_json(out)["checks"]}
        scalars = recs["torsion.scalar-action.n1"]
        assert scalars["pass"] and "error" not in scalars
        assert scalars["observed"] == {"holds": False, "mode": "obstructed", "obstruction": 27,
                                       "count": None, "expected": 9}
        agreement = recs["endo.predicate-agreement"]
        assert agreement["pass"] and agreement["observed"] == {
            "scalar_bijection": False, "full_height": False, "tau_identity": False}
        # the ramification check still fails loudly, and nothing else fails
        assert recs["torsion.ramification.n1"]["error"].startswith("ObstructionError")
        assert [i for i, r in recs.items() if not r["pass"]] == ["torsion.ramification.n1"]

    def test_torsion_small_all_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["torsion", "--p", "3", "--group", "lubin-tate",
                     "--nmax", "1", "--N", "4", "--out", str(out)])
        assert code == 0
        rep = read_json(out)
        assert rep["summary"]["all_pass"]
        ids = [r["id"] for r in rep["checks"]]
        assert "torsion.division-degree.n1" in ids
        assert "torsion.mu-p" in ids
        assert "PASS" in capsys.readouterr().out

    def test_verify_all_pass(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["verify", "--p", "3", "--group", "lubin-tate",
                     "--nmax", "1", "--N", "4", "--out", str(out)])
        assert code == 0
        rep = read_json(out)
        assert rep["summary"]["all_pass"]
        prefixes = {r["id"].split(".")[0] for r in rep["checks"]}
        assert prefixes == {"torsion", "endo", "matrices", "series"}

    @pytest.mark.parametrize("argv", [
        ("--group", "honda", "--p", "3", "--u", "0,0,1"),                # height 3
        ("--group", "lubin-tate", "--p", "5", "--f", "2", "--d", "2"),  # p = 5, height 2
    ])
    def test_verify_graded_laws_all_pass(self, argv, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", *argv, "--N", "6", "--nmax", "1", "--out", str(out)]) == 0
        rep = read_json(out)
        assert rep["summary"]["all_pass"]
        assert all(r["pass"] for r in rep["checks"])

    def test_obstructed_group_reports_and_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["endo", "--p", "3", "--group", "honda", "--u", "0,1",
                     "--N", "5", "--nmax", "1", "--out", str(out)])
        assert code == 0
        rep = read_json(out)
        rec = {r["id"]: r for r in rep["checks"]}
        assert rec["endo.subfield"]["observed"]["f_F"] == 1
        assert rec["endo.tau-power"]["observed"]["refused"]
        agree = rec["endo.predicate-agreement"]["observed"]
        assert not agree["scalar_bijection"] and not agree["full_height"]

    def test_custom_group_file(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("0 3 3 1\n")
        out = tmp_path / "rep.json"
        code = main(["torsion", "--group-file", str(path), "--nmax", "1",
                     "--N", "4", "--out", str(out)])
        assert code == 0
        assert read_json(out)["summary"]["all_pass"]

    def test_group_file_polynomial_longer_than_window(self, tmp_path):
        # degree 9 > q = 3: windows at or below the degree see a truncation
        path = tmp_path / "series.txt"
        path.write_text("0 3 30 13 36 60 3 6 78 51\n")
        out = tmp_path / "rep.json"
        code = main(["torsion", "--group-file", str(path), "--p", "3", "--nmax", "2",
                     "--out", str(out)])
        assert code == 0
        assert read_json(out)["summary"]["total"] == 11
        assert read_json(out)["summary"]["all_pass"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("p = 5\ngroup = lubin-tate\nnmax = 2\nN = 4\n")
        out = tmp_path / "rep.json"
        code = main(["torsion", "--config", str(cfgfile), "--nmax", "1",
                     "--out", str(out)])
        assert code == 0
        rep = read_json(out)
        assert rep["config"]["p"] == 5
        assert rep["config"]["nmax"] == 1  # flag wins over the file
        assert not any(r["id"].endswith("n2") for r in rep["checks"])


class TestDeterminism:
    def test_byte_identical_modulo_timings(self, tmp_path):
        out = tmp_path / "rep.json"
        args = ["torsion", "--p", "3", "--group", "lubin-tate",
                "--nmax", "1", "--N", "4", "--seed", "7", "--out", str(out)]
        assert main(args) == 0
        first = strip_timings(read_json(out))
        assert main(args) == 0
        second = strip_timings(read_json(out))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# the configs of the benchmark workloads torsion-deep and verify-h1
TORSION_DEEP = {
    "lt-h2-p3": ("torsion", "--group", "lubin-tate", "--p", "3", "--f", "2", "--d", "2",
                 "--N", "8", "--nmax", "2"),
    "lt-p5": ("torsion", "--group", "lubin-tate", "--p", "5", "--d", "1", "--N", "6", "--nmax", "3"),
    "gm-p3": ("torsion", "--group", "multiplicative", "--p", "3", "--N", "12", "--nmax", "4"),
    "honda-h1-p3": ("torsion", "--group", "honda", "--u", "1", "--p", "3", "--N", "12",
                    "--nmax", "3"),
}
VERIFY_H1 = {
    name: ("verify", *source, "--p", p, "--N", "6", "--nmax", "2")
    for name, source, p in (("mult-p3", ("--group", "multiplicative"), "3"),
                            ("mult-p5", ("--group", "multiplicative"), "5"),
                            ("lt-p3", ("--group", "lubin-tate", "--d", "1"), "3"),
                            ("lt-p5", ("--group", "lubin-tate", "--d", "1"), "5"))
}


def counted(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name, as they happen."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestRunPlan:
    """Each torsion artifact is built once, at the widest (D, N) the run
    asks for, and serves every narrower request."""

    @pytest.mark.parametrize("argv", list(TORSION_DEEP.values()) + list(VERIFY_H1.values()),
                             ids=[f"torsion-deep-{k}" for k in TORSION_DEEP]
                             + [f"verify-h1-{k}" for k in VERIFY_H1])
    def test_one_module_solver_per_group(self, argv, monkeypatch, tmp_path):
        # one structure is built, the plan's; it solves in one batch exactly
        # the scalars that the checks then ask it for, and nothing later
        from fglab import groups
        builds = counted(monkeypatch, groups.ModuleStructure, "__init__")
        chunks = counted(monkeypatch, groups.ModuleStructure, "_solve_chunk")
        planned, asked = [], set()
        open_modules, solve_batch = cli.RunPlan.open_modules, groups.ModuleStructure.solve_batch

        def opening(plan, group):
            planned.append(len(chunks))
            open_modules(plan, group)
            planned.append(len(chunks))

        def asking(module, scalars):
            if len(planned) % 2 == 0:  # not inside open_modules
                asked.update(module._coerce_scalar(a) for a in scalars)
            return solve_batch(module, scalars)

        monkeypatch.setattr(cli.RunPlan, "open_modules", opening)
        monkeypatch.setattr(groups.ModuleStructure, "solve_batch", asking)
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
        assert len(builds) == 1
        wide = builds[0][0]
        assert len(chunks) == planned[1] - planned[0] > 0
        assert asked == set(wide._cache)

    def test_one_honda_pi_series_solve(self, monkeypatch, tmp_path):
        # _build_pi_series runs _honda_pi_series once for a honda group;
        # torsion solves no law, whose [p]-series would come through it too
        from fglab import groups
        builds = counted(monkeypatch, groups.FormalGroupLaw, "_build_pi_series")
        assert main([*TORSION_DEEP["honda-h1-p3"], "--out", str(tmp_path / "r.json")]) == 0
        assert [args[1:] for args in builds] == [(216, 12)]

    @pytest.mark.parametrize("argv, want", [
        (("torsion", "--group", "honda", "--u", "0,1", "--f", "2", "--N", "6", "--nmax", "2"),
         [(432, 9)]),
        (("verify", "--group", "honda", "--u", "1", "--N", "6", "--nmax", "2"),
         [(36, 10), (24, 19)]),
    ], ids=["honda-h2-f2-torsion", "honda-h1-verify"])
    def test_one_pi_series_where_the_module_works_deeper(self, argv, want, monkeypatch, tmp_path):
        # the module structure solves over more digits than the config's N:
        # the plan opens the [p]-series at both keys' maximum, which serves
        # the division factors and the structure alike; verify's law solve
        # reads the exact honda [p]-series at its own, deeper key
        from fglab import groups
        builds = counted(monkeypatch, groups.FormalGroupLaw, "_build_pi_series")
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
        assert [args[1:] for args in builds] == want

    @pytest.mark.parametrize("name", sorted(TORSION_DEEP))
    def test_one_solve_batch_per_check(self, name, monkeypatch, tmp_path):
        # the plan's batch, then one for each check that reads [a]-series:
        # the scalar action at each level, the ramification breaks at levels
        # 1 and 2 and the level-1 cross-check; a single chunk solves them all
        from fglab import groups
        batches = counted(monkeypatch, groups.ModuleStructure, "solve_batch")
        chunks = counted(monkeypatch, groups.ModuleStructure, "_solve_chunk")
        argv = TORSION_DEEP[name]
        nmax = int(argv[argv.index("--nmax") + 1])
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
        assert len(batches) <= 1 + nmax + min(nmax, 2) + 1
        assert len(chunks) == 1

    @pytest.mark.parametrize("name", sorted(VERIFY_H1))
    def test_one_law_solve_per_group(self, name, monkeypatch, tmp_path):
        from fglab import groups
        solves = counted(monkeypatch, groups, "solve_equivariant_group_law")
        assert main([*VERIFY_H1[name], "--out", str(tmp_path / "r.json")]) == 0
        assert len(solves) == (1 if name.startswith("lt") else 0)


class TestReportPlumbing:
    def test_failure_recorded_and_run_continues(self):
        def boom():
            raise RuntimeError("witness")

        checks = [
            Check("demo.fails", {}, "always fails", boom),
            Check("demo.passes", {}, "always passes", lambda: (True, {"v": 1})),
        ]
        records = run_checks(checks)
        assert [r["pass"] for r in records] == [False, True]
        assert "RuntimeError: witness" in records[0]["error"]
        report = build_report({}, records, 0.0)
        assert exit_code(report) == 1
        assert report["summary"]["failed_ids"] == ["demo.fails"]

    def test_all_pass_exit_zero(self):
        records = run_checks([Check("a", {}, "x", lambda: (True, {}))])
        assert exit_code(build_report({}, records, 0.0)) == 0

    def test_strip_timings(self):
        records = run_checks([Check("a", {}, "x", lambda: (True, {}))])
        report = build_report({}, records, 1.0)
        bare = strip_timings(report)
        assert "timings" not in bare
        assert "time_ms" not in bare["checks"][0]
        assert "time_ms" in report["checks"][0]
