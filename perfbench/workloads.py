"""The benchmark workloads: fixed ``fglab`` argv lists, run one after another.

Every config runs with ``--jobs 1``; the benchmark's seed reaches the
program only as its ``--seed``.  Why each workload exists is in NOTES.md.
"""

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

_H1 = ("--N", "6", "--nmax", "2")
_ENDO = ("--N", "6", "--nmax", "1")

# workload -> ((config name, argv without --seed/--jobs), ...)
WORKLOADS = {
    "verify-h1": (
        ("mult-p3", ("verify", "--group", "multiplicative", "--p", "3") + _H1),
        ("mult-p5", ("verify", "--group", "multiplicative", "--p", "5") + _H1),
        ("lt-p3", ("verify", "--group", "lubin-tate", "--p", "3", "--d", "1") + _H1),
        ("lt-p5", ("verify", "--group", "lubin-tate", "--p", "5", "--d", "1") + _H1),
    ),
    "endo-h2": (
        ("lt-h2-p3", ("endo", "--group", "lubin-tate", "--p", "3", "--f", "2", "--d", "2") + _ENDO),
        ("honda-h2-p3", ("endo", "--group", "honda", "--p", "3", "--u", "0,1") + _ENDO),
    ),
    "torsion-deep": (
        ("lt-h2-p3", ("torsion", "--group", "lubin-tate", "--p", "3", "--f", "2", "--d", "2",
                      "--N", "8", "--nmax", "2")),
        ("lt-p5", ("torsion", "--group", "lubin-tate", "--p", "5", "--d", "1",
                   "--N", "6", "--nmax", "3")),
        ("gm-p3", ("torsion", "--group", "multiplicative", "--p", "3",
                   "--N", "12", "--nmax", "4")),
        ("honda-h1-p3", ("torsion", "--group", "honda", "--u", "1", "--p", "3",
                         "--N", "12", "--nmax", "3")),
    ),
}


def argv_for(argv, seed):
    return list(argv) + ["--seed", str(seed), "--jobs", "1"]


def seed_free(stripped, seed):
    """A stripped report with the program seed taken out: the config echo
    loses it and each check input seed keeps only its offset from it.  Every
    other byte, verdicts included, must match the golden at any seed."""
    out = json.loads(json.dumps(stripped))
    out["config"]["seed"] = None
    for rec in out["checks"]:
        if "seed" in rec["inputs"]:
            rec["inputs"]["seed"] -= seed
    return out


def canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def golden_path(workload, config):
    return GOLDEN_DIR / workload / f"{config}.json"
