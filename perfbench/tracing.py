"""Per-layer tracing of jagg from outside the program.

``Tracer.install`` replaces every public module-level function of every
``jagg`` module, at every module-level binding that refers to it, with a
wrapper that records a span (name, start, end, parent).  Re-exports and
cross-module imports therefore reach the wrapper too, so calls such as
``normalpair`` -> ``boolfn.compose`` or ``enumerate_uniform_rules`` ->
``check_jar`` become child spans.  Two public methods that the benchmark
reports as layer operations are wrapped as well; per-point methods such as
``BoolFn.value`` are not, so the overhead stays per call of a public
function.

Spans stay in memory and are written out when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

METHODS = {"jagg.fourier": [("FourierSpectrum", "parseval_sum")],
           "jagg.boolfn": [("BoolFn", "from_formula")]}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.work: dict[str, float] = {}
        self.hooks = work_counters(self)

    # --- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self.stack)
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "jagg") -> list[str]:
        """Wrap the package's public functions; returns the wrapped names."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(package + ".")
                        or obj.__name__.startswith("_")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[id(obj)] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[id(obj)])
        wrapped = sorted({w.__wrapped__.__module__.split(".", 1)[1] + "." + w.__name__
                          for w in wrappers.values()})
        for module_name, methods in METHODS.items():
            layer = module_name.split(".", 1)[1]
            for cls_name, meth in methods:
                cls = getattr(sys.modules[module_name], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(f"{layer}.{meth}", raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", raw))
                wrapped.append(f"{layer}.{meth}")
        return wrapped

    def count(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    # --- reading ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.names)

    def summary(self, begin: int, end: int) -> dict[str, dict[str, float]]:
        """calls and self time per span name, for spans begin..end-1."""
        child_time = [0.0] * (end - begin)
        for idx in range(begin, end):
            parent = self.parents[idx]
            if parent >= begin:
                child_time[parent - begin] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx in range(begin, end):
            entry = out.setdefault(self.names[idx], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self.ends[idx] - self.starts[idx] - child_time[idx - begin]
        return out

    def top_level_time(self, begin: int, end: int) -> float:
        return sum(self.ends[i] - self.starts[i] for i in range(begin, end)
                   if self.parents[i] < begin)

    def write(self, path, begin: int, end: int) -> None:
        """Spans begin..end-1, one tab-separated line each: id, parent (-1
        at top level), name, start and end in seconds from the first."""
        origin = self.starts[begin] if end > begin else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for idx in range(begin, end):
                parent = self.parents[idx] - begin if self.parents[idx] >= begin else -1
                out.write(f"{idx - begin}\t{parent}\t{self.names[idx]}\t"
                          f"{self.starts[idx] - origin:.7f}\t{self.ends[idx] - origin:.7f}\n")


def work_counters(tracer: Tracer) -> dict[str, object]:
    """Hooks that add each traced call's work, read from its arguments and
    result, to ``tracer.work``."""
    count = tracer.count
    last_rationals = [None]

    def points(args, kwargs, result):
        count("fourier.points", 1 << args[0].n)

    def pair_check(args, kwargs, result):
        g, f = args[0], args[1]
        count("normalpair.checks", 1)
        count("normalpair.normal", int(result.is_normal))
        if result.violation is None or result.violation.kind == "commutation":
            count("normalpair.matrices", 1 << (g.n * f.n))

    def rationals(args, kwargs, result):
        last_rationals[0] = result
        count("agenda.assignments", 1 << len(args[0].symbols))

    def jar_check(args, kwargs, result):
        jar = args[0]
        rs = kwargs.get("rationals")
        if rs is None:      # check_jar computed them itself, as a child span
            rs = last_rationals[0]
        count("jar.checks", 1)
        count("jar.consistent", int(result.consistent))
        count("jar.profiles", len(rs.judgments) ** jar.judges)

    def charge(args, kwargs, result):
        count("config.charge.units", args[1] if len(args) > 1 else kwargs["work"])

    return {"fourier.spectrum": points, "fourier.reconstruct": points,
            "fourier.parseval_sum": points,
            "normalpair.check_normal_pair": pair_check,
            "agenda.rational_judgments": rationals, "jar.check_jar": jar_check,
            "config.charge": charge}
