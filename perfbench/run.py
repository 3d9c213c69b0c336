"""fglab benchmark: end-to-end and per-layer timings of fixed CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-h1 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --update-goldens

Each workload drives the public ``fglab.cli.main`` on fixed argv lists in
this one process, one config after another, with ``--jobs 1``.

``--trace 0`` measures set-up several times, then repeats whole passes over
the configs while they fit in ``--seconds``, and reports the end-to-end
metrics (medians).  ``--trace 1`` runs each config untraced and then
traced, once, and reports the per-layer metrics of the traced runs; its
counts are those of exactly one pass, so they repeat for a seed.

Every report is checked: each check must pass, the stripped reports of
every pass must be identical, a traced run must reproduce the untraced
one byte for byte, and the seed-free stripped reports must equal the
goldens.  The last line of standard output is the result object; the line
before it holds the environment and the raw figures behind the metrics.
Exit status: 0 when every output is correct, 1 when one is not, 2 when the
program cannot be found or no longer has the shape the tracer needs.
"""

import argparse
import contextlib
import difflib
import functools
import gc
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from timing import REFERENCE_S, percentile_summary, reference_time
from tracer import PER_LAYER, Tracer, TracerError
from workloads import WORKLOADS, argv_for, canonical, golden_path, seed_free

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class ProgramMissing(RuntimeError):
    """The checkout holds no fglab sources to benchmark."""


class _SetupDone(Exception):
    """Raised in place of collect_checks to stop a run after its set-up."""


def import_fglab():
    """Import fglab afresh from the checkout's src and return fglab.cli."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fglab" or n.startswith("fglab.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("fglab.cli")
    except ImportError as exc:
        raise ProgramMissing(f"fglab cannot be imported from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent != SRC / "fglab":
        raise ProgramMissing(f"fglab was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_config(cli, argv):
    """One fglab run; returns (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    start = 0 if text.startswith("{") else text.index("\n{") + 1
    return code, json.loads(text[start:])


def setup_once(configs, seed):
    """A fresh import of fglab, then every config up to its first check."""
    cli = import_fglab()
    collect_checks = cli.collect_checks

    def stop(*args, **kwargs):
        raise _SetupDone

    cli.collect_checks = stop
    try:
        for name, argv in configs:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv_for(argv, seed))
            except _SetupDone:
                continue
            raise RuntimeError(f"{name}: fglab exited with {code} before its first check")
    finally:
        cli.collect_checks = collect_checks


def timed(steps):
    """Run each step between two reference measurements, the measurement
    after one step being the one before the next.  A step's scaled time is
    its raw time at the reference speed of the mean of the measurements
    around it.  Returns (raw seconds, scaled seconds, reference seconds,
    results)."""
    refs = [reference_time()]
    raw, results = [], []
    for step in steps:
        t0 = time.perf_counter()
        results.append(step())
        raw.append(time.perf_counter() - t0)
        refs.append(reference_time())
    scaled = [t * REFERENCE_S / ((a + b) / 2) for t, a, b in zip(raw, refs, refs[1:])]
    return raw, scaled, refs, results


def run_pass(cli, configs, seed):
    """One timed pass over the configs.  Returns (raw seconds, scaled
    seconds, reference seconds, [(exit code, report)])."""
    return timed([functools.partial(run_config, cli, argv_for(argv, seed)) for _, argv in configs])


class Checker:
    """Tallies checks and output mismatches over the passes of one run."""

    def __init__(self, workload, seed):
        self.strip = importlib.import_module("fglab.reports").strip_timings
        self.workload = workload
        self.names = [name for name, _ in WORKLOADS[workload]]
        self.seed = seed
        self.attempted = 0
        self.failed_checks = 0
        self.mismatches = []
        self.check_ms = []

    def tally(self, results):
        """Count the checks of one pass, given its (exit code, report) per
        config; returns its stripped reports."""
        stripped = {}
        for name, (code, report) in zip(self.names, results):
            summary = report["summary"]
            self.attempted += summary["total"]
            self.failed_checks += summary["failed"]
            if code != (0 if summary["all_pass"] else 1):
                self.mismatches.append(f"{name}: exit code {code}")
            self.check_ms += [rec["time_ms"] for rec in report["checks"]]
            stripped[name] = canonical(self.strip(report))
        return stripped

    def same(self, label, first, other):
        for name, text in first.items():
            if other[name] != text:
                self.mismatches.append(f"{name}: {label} differs")

    def golden(self, stripped):
        for name, text in stripped.items():
            path = golden_path(self.workload, name)
            want = path.read_text() if path.exists() else None
            got = canonical(seed_free(json.loads(text), self.seed))
            if want is None:
                self.mismatches.append(f"{name}: no golden {path}")
            elif got != want:
                self.mismatches.append(f"{name}: stripped report differs from its golden")
                diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                            str(path), "this run", lineterm="")
                print("\n".join(itertools.islice(diff, 60)), file=sys.stderr)

    @property
    def failed(self):
        return self.failed_checks + len(self.mismatches)


def untraced_run(workload, seed, seconds):
    configs = WORKLOADS[workload]
    setup_raw, setup_scaled, setup_refs, _ = timed(
        [functools.partial(setup_once, configs, seed)] * SETUP_REPEATS)
    # the earlier set-ups' module copies must not count in peak_rss_mb
    gc.collect()
    cli = sys.modules["fglab.cli"]
    checker = Checker(workload, seed)
    passes = []
    first = None
    start = time.perf_counter()
    while True:
        raw, scaled, refs, results = run_pass(cli, configs, seed)
        passes.append((raw, scaled, refs))
        stripped = checker.tally(results)
        if first is None:
            # later passes can raise the peak by what the benchmark still
            # holds of earlier ones, so the peak is read after the first
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            first = stripped
            checker.golden(stripped)
        else:
            checker.same(f"pass {len(passes)}", first, stripped)
        elapsed = time.perf_counter() - start
        print(f"{workload}: pass {len(passes)} took {sum(raw):.2f} s", file=sys.stderr)
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {
        "run_s": statistics.median(sum(scaled) for _, scaled, _ in passes),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "config_s": [raw for raw, _, _ in passes],
        "config_s_scaled": [scaled for _, scaled, _ in passes],
        "reference_s": [refs for _, _, refs in passes],
        "setup_s": setup_raw,
        "setup_s_scaled": setup_scaled,
        "setup_reference_s": setup_refs,
        "check_ms": percentile_summary(checker.check_ms),
    }
    return metrics, checker, detail


def traced_run(workload, seed):
    """Each config runs untraced and then traced, back to back, so that the
    two see the same machine speed."""
    configs = WORKLOADS[workload]
    cli = import_fglab()
    checker = Checker(workload, seed)
    tracer = Tracer()
    before = tracer.snapshot()

    def traced(argv):
        with tracer:
            return run_config(cli, argv)

    steps = []
    for _, argv in configs:
        full = argv_for(argv, seed)
        steps += [functools.partial(run_config, cli, full), functools.partial(traced, full)]
    raw, scaled, refs, results = timed(steps)
    tracer.raise_errors()
    if tracer.snapshot() != before:
        raise TracerError("the tracer left wrappers behind")
    untraced = checker.tally(results[0::2])
    checker.golden(untraced)
    checker.same("traced report", untraced, checker.tally(results[1::2]))
    metrics = tracer.metrics(overhead_ratio=sum(scaled[1::2]) / sum(scaled[0::2]))
    detail = {
        "config_s": {"untraced": raw[0::2], "traced": raw[1::2]},
        "config_s_scaled": {"untraced": scaled[0::2], "traced": scaled[1::2]},
        "reference_s": refs,
    }
    return metrics, checker, detail


def environment(seed):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace):
    """Runs one workload and prints its two output lines; returns the result."""
    if trace:
        metrics, checker, detail = traced_run(workload, seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, checker, detail = untraced_run(workload, seed, seconds)
        units = dict(END_TO_END)
    detail.update(
        workload=workload,
        environment=environment(seed),
        check_fail_ratio=checker.failed / checker.attempted,
        mismatches=checker.mismatches,
    )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return result


def update_goldens(workloads, seed):
    """Rewrite the goldens from one run of each config; refuses failing checks."""
    cli = import_fglab()
    strip = importlib.import_module("fglab.reports").strip_timings
    for workload in workloads:
        for name, argv in WORKLOADS[workload]:
            code, report = run_config(cli, argv_for(argv, seed))
            if code != 0:
                raise RuntimeError(f"{workload}/{name}: checks fail, golden not written")
            path = golden_path(workload, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(canonical(seed_free(strip(report), seed)))
            print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite the golden reports instead of measuring")
    args = parser.parse_args(argv)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.update_goldens:
            update_goldens(workloads, args.seed)
            return 0
        results = [(w, run_workload(w, args.seed, args.seconds, args.trace)) for w in workloads]
    except (ProgramMissing, TracerError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}.{name}": m for w, r in results for name, m in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for _, r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
