"""Run-time span tracer for the fglab layers.

The tracer wraps, at run time, every module-level function of each layer
module (private helpers too: the layers call each other's helpers directly)
and every public method of its public classes, so the program under test is
traced without a single edited line.
Each wrapped call is a span; a span's self time is its duration minus the
durations of the spans it directly contains.  Spans are folded into
per-function totals as they close, so memory stays flat however many calls
a run makes.

Modules import functions by name (``from .endo import try_endomorphism``),
so a wrapper is installed on every binding of the function in every fglab
module, and every binding is restored by ``uninstall``.  A function that a
named metric is read from and that no longer exists is an error, never a
silent zero.
"""

import functools
import inspect
import sys
import time

PACKAGE = "fglab"
LAYERS = ("padic", "series", "groups", "weier", "torsion", "endo",
          "matrices", "corpus", "reports", "cli")

# The only dunder methods wrapped: the ones that do real work.
WRAPPED_DUNDERS = ("__init__", "__mul__", "__call__")

# The functions the named per-layer metrics are read from.
REQUIRED = (
    "series.TruncSeries1.__mul__",
    "series.TruncSeries2.__mul__",
    "series.TruncSeries1.compose",
    "series.TruncSeries1.reversion",
    "series.substitute2_into2",
    "groups.FormalGroupLaw.pi_series",
    "groups.FormalGroupLaw.group_law2",
    "groups.FormalGroupLaw.logarithm",
    "groups.ModuleStructure.try_multiplication",
    "weier.division_polynomial",
    "torsion.TorsionFieldModel.__init__",
    "torsion.TorsionFieldModel.mul",
    "torsion.TorsionFieldModel.eval_at_z",
    "endo.try_endomorphism",
    "endo.compute_endo_subfield",
    "cli.main",
    "cli.collect_checks",
    "reports.Check.run",
)

# A call to one of these is a hit when it returns without growing the named
# cache of its receiver.
CACHES = {
    "groups.FormalGroupLaw.pi_series": "_pi_cache",
    "groups.FormalGroupLaw.group_law2": "_f2_cache",
    "groups.FormalGroupLaw.logarithm": "_log_cache",
    "groups.ModuleStructure.try_multiplication": "_cache",
}

# Calls whose dict result carries a "success" verdict.
VERDICTS = ("endo.try_endomorphism",)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = tuple(
    [(f"{layer}.{kind}", unit, "lower")
     for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("series.scaled.self_s", "s", "lower"),
        ("series.integral.self_s", "s", "lower"),
        ("series.mul.calls", "count", "lower"),
        ("series.compose.calls", "count", "lower"),
        ("series.reversion.calls", "count", "lower"),
        ("series.substitute2_into2.calls", "count", "lower"),
        ("groups.pi_series.hit_ratio", "ratio", "higher"),
        ("groups.group_law2.hit_ratio", "ratio", "higher"),
        ("groups.logarithm.hit_ratio", "ratio", "higher"),
        ("groups.group_law2.self_s", "s", "lower"),
        ("groups.group_law2.total_s", "s", "lower"),
        ("groups.module.solves", "count", "lower"),
        ("groups.module.self_s", "s", "lower"),
        ("weier.division_polynomial.calls", "count", "lower"),
        ("weier.division_polynomial.self_s", "s", "lower"),
        ("torsion.model_builds", "count", "lower"),
        ("torsion.mul.calls", "count", "lower"),
        ("torsion.eval_at_z.self_s", "s", "lower"),
        ("endo.try_endomorphism.calls", "count", "lower"),
        ("endo.try_endomorphism.self_s", "s", "lower"),
        ("endo.try_endomorphism.total_s", "s", "lower"),
        ("endo.success_ratio", "ratio", "higher"),
        ("endo.compute_endo_subfield.calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


class TracerError(RuntimeError):
    """The program no longer has the shape the tracer was written for."""


class FunctionStats:
    """Totals for one traced function: calls, self time, and the counters
    that only some functions carry."""

    __slots__ = ("calls", "self_s", "total_s", "active", "domain_self_s",
                 "returned", "grew", "succeeded")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0   # outermost calls only, so recursion counts once
        self.active = 0
        self.domain_self_s = {}
        self.returned = 0
        self.grew = 0
        self.succeeded = 0


class Tracer:
    """Span recorder for the fglab package.

    ``stats`` maps a qualified name such as ``"series.TruncSeries1.compose"``
    to its FunctionStats.  ``install`` and ``uninstall`` patch and restore
    the package; ``span`` wraps one callable.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.errors = []
        self._stack = []
        self._originals = {}   # id(original) -> (original, wrapper)
        self._bindings = []    # (module, attribute, original)
        self._methods = []     # (class, attribute, original descriptor)
        # check bodies are closures handed to reports.Check; wrapping them
        # where they are collected charges their time to the layer that
        # wrote them instead of to Check.run
        self._after = {"cli.collect_checks": self._trace_check_bodies}

    # ------------------------------------------------------------ spans
    def span(self, qualname, fn):
        """Return fn wrapped so that each call records one span."""
        rec = self.stats.setdefault(qualname, FunctionStats())
        stack = self._stack
        clock = self.clock
        by_domain = qualname.startswith("series.")
        cache_attr = CACHES.get(qualname)
        verdict = qualname in VERDICTS
        after = self._after.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a series span belongs to its receiver's domain; a helper that
            # receives bare arrays inherits the domain of the span that
            # called it, and the library default, integral, otherwise
            domain = None
            if by_domain:
                domain = getattr(args[0], "domain", None) if args else None
                if not isinstance(domain, str):
                    domain = stack[-1][1] if stack and stack[-1][1] else "integral"
            if cache_attr is not None:
                cache = getattr(args[0], cache_attr, None)
                if cache is None:
                    self.errors.append(f"{qualname}: its receiver has no {cache_attr}")
                    return fn(*args, **kwargs)
                size = len(cache)
            frame = [0.0, domain]
            stack.append(frame)
            rec.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec.active -= 1
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                rec.calls += 1
                rec.self_s += own
                if not rec.active:
                    rec.total_s += dur
                if domain is not None:
                    rec.domain_self_s[domain] = rec.domain_self_s.get(domain, 0.0) + own
            rec.returned += 1
            if cache_attr is not None and len(cache) > size:
                rec.grew += 1
            if verdict and result["success"]:
                rec.succeeded += 1
            if after is not None:
                after(result)
            return result

        return traced

    def _trace_check_bodies(self, checks):
        for check in checks:
            module = check.thunk.__module__.rpartition(".")[2]
            layer = module if module in LAYERS else "cli"
            check.thunk = self.span(f"{layer}.check", check.thunk)

    # ----------------------------------------------------- installation
    def _module(self, layer):
        name = f"{PACKAGE}.{layer}"
        mod = sys.modules.get(name)
        if mod is None:
            raise TracerError(f"layer module {name} is not imported")
        return mod

    def package_modules(self):
        """Every imported module of the package, the package itself included."""
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def snapshot(self):
        """Identity of every module attribute and class member of the
        package, for checking that uninstall restored them all."""
        out = {}
        for mod in self.package_modules():
            for attr, obj in vars(mod).items():
                out[(mod.__name__, attr)] = id(obj)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, member in vars(obj).items():
                        out[(mod.__name__, attr, name)] = id(member)
        return out

    def _resolves(self, qualname):
        layer, *path = qualname.split(".")
        obj = self._module(layer)
        for part in path:
            if part not in vars(obj):
                return False
            obj = vars(obj)[part]
        return True

    def install(self):
        """Wrap every module-level function and public method of every
        layer and patch each binding of the wrapped functions in every
        package module.
        Raises TracerError, patching nothing, if a required function is gone."""
        if self._bindings or self._methods:
            raise TracerError("tracer already installed")
        missing = [q for q in REQUIRED if not self._resolves(q)]
        if missing:
            raise TracerError("traced functions no longer exist: " + ", ".join(missing))
        try:
            self._patch()
        except BaseException:
            self.uninstall()
            raise

    def _patch(self):
        for layer in LAYERS:
            mod = self._module(layer)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._originals[id(obj)] = (obj, self.span(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._wrap_class(layer, obj)
        for mod in self.package_modules():
            for attr, obj in list(vars(mod).items()):
                pair = self._originals.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, pair[1])

    def _wrap_class(self, layer, cls):
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(desc, (classmethod, staticmethod)):
                wrapped = type(desc)(self.span(qualname, desc.__func__))
            elif inspect.isfunction(desc):
                wrapped = self.span(qualname, desc)
            else:
                continue
            self._methods.append((cls, attr, desc))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        """Restore every binding and method the tracer replaced."""
        for mod, attr, obj in reversed(self._bindings):
            setattr(mod, attr, obj)
        for cls, attr, desc in reversed(self._methods):
            setattr(cls, attr, desc)
        self._bindings.clear()
        self._methods.clear()
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def raise_errors(self):
        """Raise the shape errors met while tracing; a check that swallowed
        one must not pass for a traced call."""
        if self.errors:
            raise TracerError("; ".join(sorted(set(self.errors))))

    # ---------------------------------------------------------- metrics
    def metrics(self, overhead_ratio):
        """Every PER_LAYER metric, as {name: value}."""
        stats = self.stats
        empty = FunctionStats()

        def one(qualname):
            return stats.get(qualname, empty)

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(qualname):
            rec = one(qualname)
            return ratio(rec.returned - rec.grew, rec.calls)

        out = {}
        for layer in LAYERS:
            recs = [r for q, r in stats.items() if q.partition(".")[0] == layer]
            out[f"{layer}.calls"] = sum(r.calls for r in recs)
            out[f"{layer}.self_s"] = sum(r.self_s for r in recs)
        series = [r for q, r in stats.items() if q.startswith("series.")]
        for domain in ("scaled", "integral"):
            out[f"series.{domain}.self_s"] = sum(r.domain_self_s.get(domain, 0.0) for r in series)
        out["series.mul.calls"] = (one("series.TruncSeries1.__mul__").calls
                                   + one("series.TruncSeries2.__mul__").calls)
        out["series.compose.calls"] = one("series.TruncSeries1.compose").calls
        out["series.reversion.calls"] = one("series.TruncSeries1.reversion").calls
        out["series.substitute2_into2.calls"] = one("series.substitute2_into2").calls
        for name in ("pi_series", "group_law2", "logarithm"):
            out[f"groups.{name}.hit_ratio"] = hit_ratio(f"groups.FormalGroupLaw.{name}")
        law = one("groups.FormalGroupLaw.group_law2")
        out["groups.group_law2.self_s"] = law.self_s
        out["groups.group_law2.total_s"] = law.total_s
        out["groups.module.solves"] = one("groups.ModuleStructure.try_multiplication").grew
        out["groups.module.self_s"] = sum(
            r.self_s for q, r in stats.items() if q.startswith("groups.ModuleStructure."))
        division = one("weier.division_polynomial")
        out["weier.division_polynomial.calls"] = division.calls
        out["weier.division_polynomial.self_s"] = division.self_s
        out["torsion.model_builds"] = one("torsion.TorsionFieldModel.__init__").calls
        out["torsion.mul.calls"] = one("torsion.TorsionFieldModel.mul").calls
        out["torsion.eval_at_z.self_s"] = one("torsion.TorsionFieldModel.eval_at_z").self_s
        endo = one("endo.try_endomorphism")
        out["endo.try_endomorphism.calls"] = endo.calls
        out["endo.try_endomorphism.self_s"] = endo.self_s
        out["endo.try_endomorphism.total_s"] = endo.total_s
        out["endo.success_ratio"] = ratio(endo.succeeded, endo.calls)
        out["endo.compute_endo_subfield.calls"] = one("endo.compute_endo_subfield").calls
        out["trace.overhead_ratio"] = overhead_ratio
        return out
