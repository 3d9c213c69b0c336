"""CLI driver: config handling, exit codes, report format, determinism."""

import json

import pytest

from fglab.cli import main, parse_u, load_config_file, RunConfig
from fglab.reports import Check, build_report, exit_code, run_checks, strip_timings


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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

    def test_bad_group_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("0 1 1\n")
        assert main(["torsion", "--group-file", str(path)]) == 2
        assert "could not be constructed" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, capsys):
        assert main(["torsion", "--config", "/nonexistent/run.cfg"]) == 2

    def test_endo_window_past_cap_exit_two(self, capsys):
        # torsion needs only N*e = 12 here, the certificates need 24
        assert RunConfig({"N": 6, "nmax": 1, "dcap": 20}).validate("torsion") == []
        for command in ("endo", "matrices", "verify"):
            assert main([command, "--p", "3", "--N", "6", "--nmax", "1", "--dcap", "20"]) == 2
            assert "endo window max(4q, 24) = 24 exceeds the cap 20" in capsys.readouterr().err

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
        law = {f"{i},{j}": [int(v) for v in wide.data[i, j]]
               for i in range(4) for j in range(4 - i) if wide.data[i, j].any()}
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

    def test_worker_pool_keeps_order(self, tmp_path):
        out1, out4 = tmp_path / "r1.json", tmp_path / "r4.json"
        base = ["torsion", "--p", "3", "--group", "lubin-tate", "--nmax", "1", "--N", "4"]
        assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(base + ["--jobs", "4", "--out", str(out4)]) == 0
        a, b = strip_timings(read_json(out1)), strip_timings(read_json(out4))
        assert a["checks"] == b["checks"]

    def test_worker_pool_shares_certificates(self, tmp_path):
        out1, out4 = tmp_path / "r1.json", tmp_path / "r4.json"
        base = ["endo", "--p", "3", "--N", "6", "--nmax", "1"]
        assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(base + ["--jobs", "4", "--out", str(out4)]) == 0
        a, b = strip_timings(read_json(out1)), strip_timings(read_json(out4))
        assert a["checks"] == b["checks"]


class TestReportPlumbing:
    def test_failure_recorded_and_run_continues(self):
        def boom():
            raise RuntimeError("witness")

        checks = [
            Check("demo.fails", {}, "always fails", boom),
            Check("demo.passes", {}, "always passes", lambda: (True, {"v": 1})),
        ]
        records = run_checks(checks, jobs=1)
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
