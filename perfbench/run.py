"""jagg benchmark: run one workload (or all) for a seed and print its metrics.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and needs only the
standard library.  Each workload runs in fresh worker processes
(``worker.py``): first ``SETUP_PROBES`` processes that only start, import
jagg and generate inputs, to time set-up, then one that also answers the
question set for ``--seconds`` seconds.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload in turn
and prefixes each metric with its workload's name.

Exit status is 0 when a result was printed, 1 when a worker failed or
timed out (nothing is printed then), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("spectra", "pairs", "rules")
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 20.0
RUN_TIMEOUT_S = 170.0       # every run must end within 180 s


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    """The caller's environment without JAGG_* overrides, so every run uses
    jagg's default configuration."""
    return {k: v for k, v in os.environ.items() if not k.startswith("JAGG_")}


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process and
    the seconds from launch to ready (interpreter start, jagg import, inputs)."""
    started = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=worker_env())
    line = proc.stdout.readline()  # type: ignore[union-attr]
    ready = perf_counter() - started
    if line.strip() != "ready":
        stop(proc)
        raise WorkerError(f"worker did not start (exit {proc.returncode})")
    if perf_counter() > deadline:
        stop(proc)
        raise WorkerError("worker set-up overran the deadline")
    return proc, ready


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker([*common, "--setup-only"], deadline)
        try:
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise WorkerError("set-up probe did not exit") from None
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise WorkerError(f"set-up probe exited {proc.returncode}")
        setups.append(ready)
    trace_out = HERE / "out" / f"trace-{workload}.tsv"
    proc, _ = start_worker([*common, "--trace", str(trace),
                            "--trace-out", str(trace_out)], deadline)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker overran the deadline") from None
    finally:
        stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long each workload asks its questions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + RUN_TIMEOUT_S
    results = {}
    for index, workload in enumerate(chosen):
        # an "all" run shares the deadline out between the remaining workloads
        share = perf_counter() + (deadline - perf_counter()) / (len(chosen) - index)
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace, share)
        except WorkerError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1

    for workload, result in results.items():
        prefix = f"{workload}." if len(chosen) > 1 else ""
        print(f"{workload}: seed {args.seed}, {result['rounds']} rounds, "
              f"{result['attempted']} operations attempted, {result['failed']} failed, "
              f"answers {'correct' if result['correct'] else 'WRONG'}")
        for name, m in sorted(result["metrics"].items()):
            print(f"  {prefix}{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{w}." if len(chosen) > 1 else "") + name: m
                    for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
