"""Machine-readable verification reports.

A report is a single JSON document: configuration echo, one record per
check, a pass/fail summary, and timings.  Check records carry the inputs
and the observed values so that a report is auditable without rerunning;
reports for the same config and seed are byte-identical once timing fields
are stripped.  A failing check never aborts the run: the failure (or the
exception) is recorded and the remaining checks proceed.
"""

import json
import time

import numpy as np

SCHEMA_VERSION = 1


def _jsonable(v):
    """Coerce observed values into plain JSON types."""
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, float):
        return v if v == v and abs(v) != float("inf") else str(v)
    if isinstance(v, int):
        return v if abs(v) < 2**53 else str(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return str(v)


class Check:
    """One deferred check: an id, the inputs it depends on, the equality it
    asserts, and a thunk returning (passed, observed dict)."""

    def __init__(self, check_id: str, inputs: dict, asserted: str, thunk, effective=None):
        self.check_id = check_id
        self.inputs = inputs
        self.asserted = asserted
        self.thunk = thunk
        self.effective = effective or {}

    def run(self) -> dict:
        t0 = time.perf_counter()
        try:
            passed, observed = self.thunk()
            error = None
        except Exception as exc:  # recorded, never propagated
            passed, observed, error = False, {}, f"{type(exc).__name__}: {exc}"
        record = {
            "id": self.check_id,
            "inputs": _jsonable(self.inputs),
            "asserted": self.asserted,
            "observed": _jsonable(observed),
            "pass": bool(passed),
            "effective": _jsonable(self.effective),
            "time_ms": round(1000 * (time.perf_counter() - t0), 3),
        }
        if error is not None:
            record["error"] = error
        return record


def run_checks(checks):
    """Run the checks in order, one record each, in the calling process."""
    return [c.run() for c in checks]


def build_report(config: dict, records, total_s: float) -> dict:
    failed = [r["id"] for r in records if not r["pass"]]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _jsonable(config),
        "checks": records,
        "summary": {
            "total": len(records),
            "passed": len(records) - len(failed),
            "failed": len(failed),
            "failed_ids": failed,
            "all_pass": not failed,
        },
        "timings": {"total_s": round(total_s, 3)},
    }


def exit_code(report: dict) -> int:
    return 0 if report["summary"]["all_pass"] else 1


def strip_timings(report: dict) -> dict:
    """Copy with every timing field removed, for golden comparisons."""
    out = json.loads(json.dumps(report))
    out.pop("timings", None)
    for rec in out.get("checks", ()):
        rec.pop("time_ms", None)
    return out


def render_summary(report: dict) -> str:
    lines = []
    for rec in report["checks"]:
        mark = "PASS" if rec["pass"] else "FAIL"
        extra = f"  ({rec['error']})" if "error" in rec else ""
        lines.append(f"{mark}  {rec['id']}: {rec['asserted']}{extra}")
    s = report["summary"]
    lines.append(f"{s['passed']}/{s['total']} checks passed")
    return "\n".join(lines)
