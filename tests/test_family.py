"""A generated family of groups beyond the six-group corpus.

`verify --N 4 --nmax 1` runs on lubin-tate groups of height d in {1, 2, 3},
honda groups of heights 1 to 3 (u = 2,1 and 0,2 among them, whose unit
coefficient is not 1) and the multiplicative group, at p in {3, 5} and
f <= 3, plus two groups over the degree-6 residue field.  The p = 5 height-3 groups are left out for time
alone: one run takes 35 to 90 s.

Only invariants are asserted, never verdicts: a failing verdict is a
finding to report, not a reason to drop a config.  No check may record a
bare StopIteration, IndexError or ZeroDivisionError, and
endo.predicate-agreement must reach a verdict.
"""

import json

import pytest

from fglab.cli import main

BARE_ERRORS = ("StopIteration", "IndexError", "ZeroDivisionError")

SOURCES = {f"lt-d{d}": ("--group", "lubin-tate", "--d", str(d)) for d in (1, 2, 3)}
SOURCES.update({f"honda-{u}": ("--group", "honda", "--u", u)
                for u in ("1", "0,1", "1,1", "2,1", "0,0,1", "0,2")})
SOURCES["gm"] = ("--group", "multiplicative")
HEIGHT_3 = ("lt-d3", "honda-0,0,1")


def family():
    """(name, argv) of each group of the family."""
    out = [(f"{name}-p{p}-f{f}", source + ("--p", str(p), "--f", str(f)))
           for p in (3, 5) for f in (1, 2, 3) for name, source in SOURCES.items()
           if not (p == 5 and name in HEIGHT_3)]
    out += [(f"{name}-p3-f6", SOURCES[name] + ("--p", "3", "--f", "6"))
            for name in ("honda-1", "lt-d2")]
    return out


FAMILY = family()


def test_family_size():
    assert len(FAMILY) == 56


@pytest.mark.parametrize("argv", [argv for _, argv in FAMILY], ids=[name for name, _ in FAMILY])
def test_verify_records_only_named_errors(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--N", "4", "--nmax", "1", "--out", str(out)]) in (0, 1)
    checks = {rec["id"]: rec for rec in json.loads(out.read_text())["checks"]}
    bare = [(cid, rec["error"]) for cid, rec in checks.items()
            if rec.get("error", "").startswith(BARE_ERRORS)]
    assert not bare
    agreement = checks["endo.predicate-agreement"]
    assert "error" not in agreement
    assert all(isinstance(v, bool) for v in agreement["observed"].values())
