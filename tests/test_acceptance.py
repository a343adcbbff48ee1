"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion drives the matching verification suite (plus golden-file
comparisons where lists were frozen) and enforces the stated runtime bound.
Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion lines,
or ``-s`` to see the printed summaries as well.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jagg
from jagg.cli import main
from jagg.config import DEFAULT
from jagg.verify import SUITES, run_suites

HERE = Path(__file__).parent


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in SUITES:
        start = time.perf_counter()
        out[name] = (run_suites([name], DEFAULT), time.perf_counter() - start)
    return out


def criterion(reports, number, title, suite, max_seconds, extra_ok=True,
              extra_detail=""):
    report, elapsed = reports[suite]
    ok = report.passed and elapsed <= max_seconds and extra_ok
    print(f"{'pass' if ok else 'FAIL'}  criterion-{number}  {title}  "
          f"({elapsed:.1f}s, limit {max_seconds:.0f}s)")
    trouble = [f"  {c.name}: {c.detail}" for c in report.checks if not c.passed]
    if elapsed > max_seconds:
        trouble.append(f"  runtime {elapsed:.1f}s over the {max_seconds:.0f}s limit")
    if not extra_ok:
        trouble.append(f"  {extra_detail}")
    assert ok, f"criterion-{number} {title} failed:\n" + "\n".join(trouble)


def test_criterion_1_exact_spectra(reports):
    # closed forms for constants, dictators, and/or/parity up to arity 4,
    # with the squared-coefficient sum exactly 1 for every table up to
    # arity 4 (full exhaustive sweep, no sampling needed)
    criterion(reports, 1, "exact spectra and closed forms", "spectra", 120)


def test_criterion_2_forceful_decomposition(reports):
    # every forceful non-constant function re-expands bit-exactly from its
    # sign product form and its spectrum matches the product coefficients
    criterion(reports, 2, "forceful product decomposition", "forceful", 120)


def test_criterion_3_composition_identities(reports):
    # coefficient identities on every cell subset and rectangle for all
    # certified pairs with at most 9 matrix cells, exact arithmetic, plus
    # a certified failure for the or/and pair
    criterion(reports, 3, "composition coefficient identities", "identities", 60)


def test_criterion_4_normal_pair_classification(reports):
    # exhaustive sweeps at arities (2,2), (2,3), (3,2), (3,3) produce only
    # both-and, both-or, and parity-family pairs, matching the frozen lists
    criterion(reports, 4, "exhaustive normal-pair classification", "pairs", 600)


def _golden_matches(args, name):
    import io, contextlib
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    want = (HERE / "golden" / name).read_text(encoding="utf-8")
    return code == 0 and buffer.getvalue() == want


def test_criterion_5_rule_enumeration_goldens(reports):
    # shared-function rule sweeps reproduce the frozen golden files:
    # dictators plus the or-oligarchy on the or closure, dictators only on
    # the three-atom compound and the two-judge parity closure, and the
    # all-judges parity rule appearing at three judges
    data = HERE / "data"
    cases = [
        (["jars", "enumerate", "--agenda", str(data / "or_closure.agenda"),
          "-n", "2", "--normal-form", "--json"], "uniform_or_closure_n2.json"),
        (["jars", "enumerate", "--agenda", str(data / "three_atom.agenda"),
          "-n", "2", "--normal-form", "--json"], "uniform_three_atom_n2.json"),
        (["jars", "enumerate", "--agenda", str(data / "parity_closure.agenda"),
          "-n", "2", "--normal-form", "--json"], "uniform_parity_n2.json"),
        (["jars", "enumerate", "--agenda", str(data / "parity_closure.agenda"),
          "-n", "3", "--normal-form", "--json"], "uniform_parity_n3.json"),
    ]
    stale = [name for args, name in cases if not _golden_matches(args, name)]
    criterion(reports, 5, "rule enumeration matches golden files", "uniform",
              120, extra_ok=stale == [],
              extra_detail=f"golden files out of date: {stale}")


def test_criterion_6_axiom_filters(reports):
    # anonymity on the or closure keeps exactly the or-over-all-judges rule;
    # anonymity plus systematicity on the and closure keeps nothing
    criterion(reports, 6, "anonymity and systematicity filters", "axioms", 60)


def test_criterion_7_majority_scenarios(reports):
    # three-judge majority is consistent on the overlapping-disjunction
    # agenda and fails on the conjunction closure with a stored
    # counterexample profile
    criterion(reports, 7, "majority consistency and paradox", "majority", 60)


def test_criterion_8_structural_sweeps(reports):
    # restriction closure, dependent-pair relations, and the component
    # product decomposition across the generated agenda pool
    criterion(reports, 8, "structural sweeps", "structure", 120)


def test_fourier_output_in_bounded_memory():
    # the largest spectrum the default arity cap admits, written as JSON
    # by a fresh process that reports its own peak resident set
    pytest.importorskip("resource")
    child = ("import contextlib, os, resource, sys\n"
             "from jagg.cli import main\n"
             "with open(os.devnull, 'w') as null, contextlib.redirect_stdout(null):\n"
             "    code = main(['fourier', 'and:20', '--json'])\n"
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(jagg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, maxrss = map(int, proc.stdout.split())
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere
    megabytes = maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    print(f"fourier and:20 --json: exit {code}, max RSS {megabytes:.0f} MB")
    assert code == 0
    assert megabytes < 200
