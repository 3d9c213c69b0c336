"""Stripped-report goldens for slow configs that the benchmark does not run.

Each config's report, with timings stripped and the `out` and `group_file`
echoes normalised, must equal its file under tests/goldens/ byte for byte.
To write the goldens from the program on the import path:

    PYTHONPATH=src python tests/test_goldens.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from fglab.cli import main
from fglab.reports import strip_timings

GOLDENS = Path(__file__).resolve().parent / "goldens"

# golden name -> argv; a group file is named relative to GOLDENS
CONFIGS = {
    "lt-p5-h2-verify": ("verify", "--group", "lubin-tate", "--p", "5", "--f", "2", "--d", "2",
                        "--N", "6", "--nmax", "1"),
    "honda-u001-verify": ("verify", "--group", "honda", "--p", "3", "--u", "0,0,1",
                          "--N", "6", "--nmax", "1"),
    "lt-p3-f3-d3-verify": ("verify", "--group", "lubin-tate", "--p", "3", "--f", "3", "--d", "3",
                           "--N", "6", "--nmax", "1"),
    "honda-u01-f2-torsion": ("torsion", "--group", "honda", "--p", "3", "--u", "0,1", "--f", "2",
                             "--N", "6", "--nmax", "2"),
    "lt-p5-f2-d2-torsion": ("torsion", "--group", "lubin-tate", "--p", "5", "--f", "2", "--d", "2",
                            "--N", "4", "--nmax", "2", "--dcap", "3000"),
    "file-p5-k2-verify": ("verify", "--group", "lubin-tate", "--p", "5",
                          "--group-file", "p5-k2.txt", "--N", "6"),
    "file-p3-f2-k4-verify": ("verify", "--group", "lubin-tate", "--p", "3", "--f", "2",
                             "--group-file", "p3-f2-k4.txt", "--N", "6"),
}


def stripped_report(argv) -> str:
    """The canonical stripped report of one run, as text."""
    argv = list(argv)
    if "--group-file" in argv:
        i = argv.index("--group-file") + 1
        argv[i] = str(GOLDENS / argv[i])
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report.json")
        main(argv + ["--out", out])
        with open(out) as fh:
            report = strip_timings(json.load(fh))
    report["config"]["out"] = "report.json"
    report["config"]["group_file"] = Path(report["config"]["group_file"]).name
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stripped_report_equals_golden(name):
    assert stripped_report(CONFIGS[name]) == (GOLDENS / f"{name}.json").read_text()


if __name__ == "__main__":
    for name, argv in CONFIGS.items():
        (GOLDENS / f"{name}.json").write_text(stripped_report(argv))
        print(f"wrote {name}", file=sys.stderr)
