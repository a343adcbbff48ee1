"""One workload in one fresh process: ``run.py`` starts this script.

It imports jagg from ``src/`` of the checkout it sits in, generates the
workload's inputs from the seed and prints ``ready``.  With ``--setup-only``
it stops there, so ``run.py`` can time set-up alone.  Otherwise it asks the
question set in whole rounds for ``--seconds`` seconds, checks every answer
and prints its result as one JSON line.  With ``--trace 1`` the first round
runs untraced and the others traced, and the per-layer metrics come from
the traced rounds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metrics reported from the traced rounds, per round
LAYER_FUNCTIONS = [
    "fourier.spectrum", "fourier.parseval_sum", "fourier.reconstruct",
    "boolfn.variable_mask", "boolfn.compose", "boolfn.from_formula",
    "normalpair.check_normal_pair", "normalpair.enumerate_normal_pairs",
    "jar.check_jar", "jar.enumerate_uniform_rules", "jar.filter_axioms",
    "agenda.build_agenda", "agenda.rational_judgments",
    "formula.parse", "config.charge", "verify.run_suites", "cli.main",
]
LAYERS = ["fourier", "boolfn", "normalpair", "jar", "agenda", "formula", "config",
          "verify", "cli"]
WORK = {"fourier.points": "count", "normalpair.matrices": "count",
        "jar.profiles": "count", "agenda.assignments": "count",
        "config.charge.units": "count"}


def load_jagg():
    src = ROOT / "src"
    if not (src / "jagg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no jagg source at {src / 'jagg'}")
    sys.path.insert(0, str(src))
    import jagg
    import jagg.cli  # noqa: F401  (the in-process CLI; jagg/__init__ leaves it out)
    if Path(jagg.__file__).resolve().parent != src / "jagg":
        raise SystemExit(f"perfbench: imported jagg from {jagg.__file__}, not {src}")
    return jagg


class Round:
    """Outcome of asking the question set once."""

    def __init__(self) -> None:
        self.times: list[float] = []        # per question, wall seconds
        self.scaled: list[float] = []       # the same at reference speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def solve_s(self) -> float:
        return sum(self.times)


def ask(questions, sampler=None) -> Round:
    """Ask every question once; with a sampler, also time each at reference
    speed."""
    r = Round()
    for q in questions:
        r.attempted += q.ops
        answer = None
        start = perf_counter()
        try:
            answer = q.call()
        except Exception:           # a question that raises is a failed operation
            r.failed += q.ops
            print(f"perfbench: {q.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        end = perf_counter()
        if sampler is not None:
            elapsed, scaled = sampler.interval(start, end)
            r.times.append(elapsed)
            r.scaled.append(scaled)
        else:
            r.times.append(end - start)
        if answer is not None:
            r.errors += [f"{q.name}: {e}" for e in q.check(answer)]
            if q.fault is not None and q.fault(answer) is not None:
                r.failed += q.ops
        del answer
    return r


def part_times(questions, rounds: list[Round]) -> dict[str, float]:
    """Per part, and in all, the sum over questions of each question's
    median time at reference speed over the rounds."""
    times = [statistics.median(r.scaled[i] for r in rounds) for i in range(len(questions))]
    parts = {"solve": sum(times)}
    for q, t in zip(questions, times):
        parts[q.part] = parts.get(q.part, 0.0) + t
    return parts


def layer_metrics(tracer, begin: int, end: int, rounds: int, traced_solve: float,
                  untraced_solve: float) -> dict[str, dict]:
    summary = tracer.summary(begin, end)
    metrics: dict[str, dict] = {}
    for name in LAYER_FUNCTIONS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = {"value": entry["calls"] / rounds, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": entry["self_s"] / rounds, "unit": "s"}
    for layer in LAYERS:
        total = sum(e["self_s"] for name, e in summary.items()
                    if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = {"value": total / rounds, "unit": "s"}
    work = tracer.work
    for key, unit in WORK.items():
        metrics[key] = {"value": work.get(key, 0) / rounds, "unit": unit}
    ratio = lambda a, b: work.get(a, 0) / work[b] if work.get(b) else 0.0
    metrics["normalpair.normal_ratio"] = {
        "value": ratio("normalpair.normal", "normalpair.checks"), "unit": "ratio"}
    metrics["jar.consistent_ratio"] = {
        "value": ratio("jar.consistent", "jar.checks"), "unit": "ratio"}
    inside = tracer.top_level_time(begin, end) / rounds
    metrics["trace.solve_s"] = {"value": traced_solve, "unit": "s"}
    metrics["trace.outside_s"] = {"value": traced_solve - inside, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_solve - untraced_solve, "unit": "s"}
    metrics["trace.spans"] = {"value": (end - begin) / rounds, "unit": "count"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    jagg = load_jagg()
    import oracles
    import workloads
    questions = workloads.WORKLOADS[args.workload](jagg, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rounds: list[Round] = []
    traced: list[Round] = []
    tracer = None
    start = perf_counter()
    while True:
        round_start = perf_counter()
        if args.trace and rounds and tracer is None:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            begin = tracer.mark()
        if tracer is None:
            with Sampler() as sampler:
                rounds.append(ask(questions, sampler))
        else:
            traced.append(ask(questions))
            if len(traced) == 1:
                first_end = tracer.mark()
        last = perf_counter() - round_start
        if args.trace and not traced:
            continue
        if perf_counter() - start + last > args.seconds:
            break

    everything = rounds + traced
    errors = [e for r in everything for e in r.errors]
    missed = oracles.self_check(args.workload)
    errors += [f"oracle self-check let a wrong answer through: {m}" for m in missed]
    for e in errors[:20]:
        print(f"perfbench: wrong answer: {e[:300]}", file=sys.stderr)

    if args.trace:
        end = tracer.mark()
        metrics = layer_metrics(tracer, begin, end, len(traced),
                                statistics.fmean(r.solve_s for r in traced),
                                statistics.fmean(r.solve_s for r in rounds))
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.trace_out, begin, first_end)
    else:
        parts = part_times(questions, rounds)
        metrics = {
            "solve_s": {"value": parts["solve"], "unit": "s"},
            "small_s": {"value": parts["small"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not errors,
                      "attempted": sum(r.attempted for r in everything),
                      "failed": sum(r.failed for r in everything),
                      "rounds": len(everything),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
