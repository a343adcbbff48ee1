"""Command-line front end.

Subcommands cover spectra, classification, pair checks and enumeration,
agenda inspection, aggregation-rule checks and enumeration, and the
verification suites.  JSON output is versioned ({"schema": 1, ...}) and
byte-identical across runs for identical inputs and configuration.

Exit codes: 0 success, 1 failed verification, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Iterator, Sequence

from . import __version__
from .agenda import Agenda, load_agenda, rational_judgments
from .boolfn import (FnClass, classify, classify_on_relevant, format_fn_spec,
                     parse_fn_spec)
from .config import Config, BudgetError
from .jar import (PiJar, check_jar, enumerate_independent_rules,
                  enumerate_uniform_rules, filter_axioms)
from .fourier import Dyadic, spectrum
from .normalpair import _pair_case, check_normal_pair, classify_pair, enumerate_normal_pairs
from .verify import SUITES, run_suites

SCHEMA = 1


def _dump(payload: dict[str, Any]) -> str:
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _class_json(label: FnClass) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": label.kind}
    if label.index is not None:
        out["index"] = label.index
    if label.value is not None:
        out["value"] = label.value
    return out


def _bits(values: Sequence[bool]) -> str:
    return "".join("T" if v else "F" for v in values)


# --- subcommand handlers ----------------------------------------------------

_BLOCK_BITS = 12   # `jagg fourier` writes 2**12 coefficients at a time


def _subset_blocks(n: int, item: str, sep: str, left: str, right: str,
                   empty: str) -> Iterator[list[str]]:
    """The renderings of all 2**n subsets of n inputs, in mask order, one
    list per block of 2**_BLOCK_BITS masks (one list of 2**n below that).

    A subset is ``left``, its inputs each formatted by ``item`` and joined
    by ``sep``, then ``right``; the empty subset is ``empty``.  The subsets
    of the low inputs are rendered once, and a block joins them to the
    rendering of its subset of the high inputs.
    """
    def inners(inputs: range) -> list[str]:
        out = [""]   # the joined inputs of subset R at index R, by doubling
        for i in inputs:
            out += [f"{s}{sep}{item.format(i)}" if s else item.format(i) for s in out]
        return out

    low = min(n, _BLOCK_BITS)
    lows = inners(range(low))
    whole = [left + s + right if s else empty for s in lows]
    opened = [left + s + sep if s else left for s in lows]
    for high in inners(range(low, n)):
        yield [head + high + right for head in opened] if high else whole


def cmd_fourier(args, config: Config) -> int:
    f = parse_fn_spec(args.fn, config=config)
    nums = spectrum(f).nums
    n = f.n
    if args.json:
        # header and footer from json.dumps itself; each coefficient is an
        # object at depth 2 of the indent-2 layout and each subset input an
        # item at depth 4
        outline = _dump({"spec": format_fn_spec(f), "arity": n, "coefficients": []})
        head, _, tail = outline.partition('"coefficients": []')
        start, joiner, end = head + '"coefficients": [\n', ",\n", "\n  ]" + tail
        line = '    {{\n{1},\n      "subset": {0}\n    }}'
        blocks = _subset_blocks(n, "        {}", ",\n", "[\n", "\n      ]", "[]")
        value = '      "exp": {0.exp},\n      "num": {0.num}'
    else:
        start, joiner, end = f"spectrum of {args.fn} (arity {n})\n", "\n", "\n"
        line = "  {0:12s} {1}"
        blocks = _subset_blocks(n, "{}", ",", "{", "}", "{}")
        value = "{}"
    # one rendering per distinct coefficient; a Boolean spectrum has few
    rendered = {num: value.format(Dyadic.make(num, n)) for num in set(nums)}
    step = 1 << min(n, _BLOCK_BITS)
    write = sys.stdout.write
    write(start)
    for first, subsets in zip(range(0, 1 << n, step), blocks):
        if first:
            write(joiner)
        write(joiner.join(map(line.format, subsets,
                              map(rendered.__getitem__, nums[first:first + step]))))
    write(end)
    return 0


def cmd_classify(args, config: Config) -> int:
    f = parse_fn_spec(args.fn, config=config)
    label, relevant = classify_on_relevant(f)
    if args.json:
        sys.stdout.write(_dump({
            "spec": format_fn_spec(f),
            "class": _class_json(classify(f)),
            "relevant": list(relevant),
            "on_relevant": _class_json(label),
        }))
    else:
        print(f"{format_fn_spec(f)}: {classify(f)}; relevant {list(relevant)}; "
              f"on relevant inputs: {label}")
    return 0


def cmd_check_pair(args, config: Config) -> int:
    g = parse_fn_spec(args.g, config=config)
    f = parse_fn_spec(args.f, config=config)
    rep = check_normal_pair(g, f, config=config)
    if args.json:
        payload: dict[str, Any] = {
            "g": format_fn_spec(g), "f": format_fn_spec(f),
            "is_normal": rep.is_normal,
        }
        if rep.is_normal:
            payload["case"] = classify_pair(g, f)
        if rep.violation is not None:
            payload["violation"] = {"kind": rep.violation.kind,
                                    **({"index": rep.violation.index}
                                       if rep.violation.index is not None else {})}
        if rep.counterexample is not None:
            payload["counterexample"] = {
                "matrix": [[bool(v) for v in row] for row in rep.counterexample],
                "column_then_row": rep.column_then_row,
                "row_then_column": rep.row_then_column,
            }
        sys.stdout.write(_dump(payload))
    else:
        if rep.is_normal:
            print(f"normal pair ({classify_pair(g, f)})")
        else:
            print(f"not a normal pair: {rep.violation}")
            if rep.counterexample is not None:
                for row in rep.counterexample:
                    print("  " + " ".join(_bits(row)))
                print(f"  column-then-row {_bits([rep.column_then_row])}, "
                      f"row-then-column {_bits([rep.row_then_column])}")
    return 0 if rep.is_normal else 1


def cmd_enumerate_pairs(args, config: Config) -> int:
    pairs = enumerate_normal_pairs(args.m, args.n, config=config)
    # both arities are at least 2, so the case is read off the two labels
    labelled = [(g, f, classify(g), classify(f)) for g, f in pairs]
    if args.json:
        entries = [{"g": format_fn_spec(g), "f": format_fn_spec(f),
                    "g_class": _class_json(cg), "f_class": _class_json(cf),
                    "case": _pair_case(cg, cf)} for g, f, cg, cf in labelled]
        sys.stdout.write(_dump({"m": args.m, "n": args.n, "pairs": entries}))
    else:
        print(f"{len(pairs)} normal pairs at ({args.m}, {args.n})")
        for _, _, cg, cf in labelled:
            print(f"  g={cg!s:14} f={cf!s:14} case={_pair_case(cg, cf)}")
    return 0


def _read_agenda(path: str, config: Config) -> Agenda:
    with open(path, encoding="utf-8") as handle:
        return load_agenda(handle.read(), config=config)


def cmd_agenda_check(args, config: Config) -> int:
    agenda = _read_agenda(args.file, config)
    rs = rational_judgments(agenda)
    groups = agenda.component_positions()
    if args.json:
        sys.stdout.write(_dump({
            "basis": [str(b) for b in agenda.basis],
            "symbols": list(agenda.symbols),
            "symbol_complete": agenda.is_symbol_complete(),
            "symbol_connected": agenda.is_symbol_connected(),
            "components": [list(g) for g in groups],
            "rational_count": len(rs.judgments),
        }))
    else:
        print(f"basis ({len(agenda)} entries): " + "; ".join(str(b) for b in agenda.basis))
        print(f"symbols: {', '.join(agenda.symbols)}")
        print(f"symbol-complete: {agenda.is_symbol_complete()}")
        print(f"symbol-connected: {agenda.is_symbol_connected()}")
        print(f"components: {[list(g) for g in groups]}")
        print(f"rational judgments: {len(rs.judgments)}")
    return 0


def cmd_agenda_rationals(args, config: Config) -> int:
    agenda = _read_agenda(args.file, config)
    rs = rational_judgments(agenda)
    if args.json:
        sys.stdout.write(_dump({
            "basis": [str(b) for b in agenda.basis],
            "symbols": list(agenda.symbols),
            "judgments": [{"values": list(j),
                           "witness": rs.witness_assignment(k)}
                          for k, j in enumerate(rs.judgments)],
        }))
    else:
        header = " ".join(f"{str(b):>8}" for b in agenda.basis)
        print(f"{len(rs.judgments)} rational judgments   {header}")
        for k, j in enumerate(rs.judgments):
            row = " ".join(f"{'T' if v else 'F':>8}" for v in j)
            witness = ", ".join(f"{s}={'T' if v else 'F'}"
                                for s, v in rs.witness_assignment(k).items())
            print(f"  {row}   [{witness}]")
    return 0


def cmd_jars_enumerate(args, config: Config) -> int:
    if args.up is False and not args.normal_form:
        raise ValueError("--no-up needs --normal-form: independent rules always "
                         "preserve unanimity")
    agenda = _read_agenda(args.agenda, config)
    if args.normal_form:
        require_up = not (args.anonymous or args.systematic) if args.up is None \
            else args.up
        sols = enumerate_uniform_rules(agenda, args.judges,
                                       require_up=require_up, config=config)
        sols = filter_axioms(sols, anonymous=args.anonymous,
                             systematic=args.systematic)
        if args.json:
            entries = [{"fn": format_fn_spec(s.fn), "relevant": list(s.relevant),
                        "on_relevant": s.restriction_class.kind, "case": s.case,
                        "anonymous": s.anonymous, "systematic": s.systematic}
                       for s in sols]
            sys.stdout.write(_dump({"judges": args.judges, "mode": "normal-form",
                                    "unanimity_required": require_up,
                                    "solutions": entries}))
        else:
            print(f"{len(sols)} shared-function rules for {args.judges} judges"
                  + ("" if require_up else " (unanimity not required)"))
            for s in sols:
                print(f"  {format_fn_spec(s.fn):16} case={s.case:14} "
                      f"relevant={list(s.relevant)} on-relevant={s.restriction_class}")
    else:
        jars = enumerate_independent_rules(agenda, args.judges, config=config)
        jars = filter_axioms(jars, anonymous=args.anonymous,
                             systematic=args.systematic)
        if args.json:
            entries = [{"functions": [format_fn_spec(f) for f in j.functions]}
                       for j in jars]
            sys.stdout.write(_dump({"judges": args.judges, "mode": "independent",
                                    "solutions": entries}))
        else:
            print(f"{len(jars)} per-position rules for {args.judges} judges")
            for j in jars:
                print("  " + "  ".join(f"{str(b)}:{format_fn_spec(f)}"
                                       for b, f in zip(agenda.basis, j.functions)))
    return 0


def cmd_jars_check(args, config: Config) -> int:
    agenda = _read_agenda(args.agenda, config)
    if args.all_fn is not None:
        fns = [parse_fn_spec(args.all_fn, config=config)] * len(agenda)
    else:
        fns = [None] * len(agenda)
    given = set()   # positions named by --fn, which may override --all-fn once
    for item in args.fn or []:
        pos_text, _, spec = item.partition("=")
        try:
            pos = int(pos_text)
        except ValueError:
            raise ValueError(f"bad --fn {item!r}: position must be an integer")
        if not 0 <= pos < len(agenda):
            raise ValueError(f"--fn position {pos} out of range (basis has "
                             f"{len(agenda)} entries)")
        if pos in given:
            raise ValueError(f"--fn names basis position {pos} more than once")
        given.add(pos)
        fns[pos] = parse_fn_spec(spec, config=config)
    missing = [k for k, f in enumerate(fns) if f is None]
    if missing:
        raise ValueError(f"no function given for basis positions {missing}")
    jar = PiJar(agenda, args.judges, tuple(fns))
    verdict = check_jar(jar, config=config)
    if args.json:
        payload: dict[str, Any] = {
            "judges": args.judges,
            "consistent": verdict.consistent,
            "unanimity_preserving": verdict.unanimity_preserving,
            "anonymous": verdict.anonymous,
            "systematic": verdict.systematic,
        }
        if verdict.counterexample is not None:
            profile, out = verdict.counterexample
            payload["counterexample"] = {
                "profile": [list(j) for j in profile],
                "aggregate": list(out),
            }
        sys.stdout.write(_dump(payload))
    else:
        print(f"consistent: {verdict.consistent}")
        print(f"unanimity-preserving: {verdict.unanimity_preserving}")
        print(f"anonymous: {verdict.anonymous}")
        print(f"systematic: {verdict.systematic}")
        if verdict.counterexample is not None:
            profile, out = verdict.counterexample
            print("counterexample profile (one judgment per judge):")
            for j in profile:
                print(f"  {_bits(j)}")
            print(f"aggregates to {_bits(out)}, which is not rational")
    return 0 if verdict.consistent else 1


def cmd_verify(args, config: Config) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = run_suites(names, config)
    if args.json:
        sys.stdout.write(_dump({
            "suites": names,
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in report.checks],
        }))
    else:
        for c in report.checks:
            print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:45} {c.detail}")
        total = sum(1 for c in report.checks if c.passed)
        print(f"{total}/{len(report.checks)} checks passed")
    return 0 if report.passed else 1


# --- parser -----------------------------------------------------------------

def _output_flags(parser: argparse.ArgumentParser, top: bool = False) -> None:
    # Subparsers copy their whole namespace back over the top-level one, so
    # the sub-level copies must not carry defaults of their own.
    default = None if top else argparse.SUPPRESS
    parser.add_argument("--json", dest="json", action="store_true",
                        default=default,
                        help="emit versioned JSON instead of text")
    parser.add_argument("--text", dest="json", action="store_false",
                        default=default, help="force text output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jagg",
        description="Judgment aggregation toolkit: exact Boolean Fourier "
                    "analysis, normal pairs, agendas, and aggregation rules. "
                    "Input indices are 0-based throughout.")
    parser.add_argument("--version", action="version", version=f"jagg {__version__}")
    _output_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(owner, name, handler, help):
        p = owner.add_parser(name, help=help)
        _output_flags(p)
        p.set_defaults(handler=handler)
        return p

    p = leaf(sub, "fourier", cmd_fourier, "exact spectrum of a function")
    p.add_argument("fn", help="function spec, e.g. and:3, xor:2, const:2:T, "
                   "dictator:3:1, tt:2:8")

    p = leaf(sub, "classify", cmd_classify, "label a function's shape")
    p.add_argument("fn")

    p = leaf(sub, "check-pair", cmd_check_pair,
             "test whether (g, f) is a normal pair")
    p.add_argument("--g", required=True, help="outer/column function spec")
    p.add_argument("--f", required=True, help="inner/row function spec")

    p = leaf(sub, "enumerate-pairs", cmd_enumerate_pairs,
             "all normal pairs at given arities")
    p.add_argument("-m", type=int, required=True, help="arity of g (>= 2)")
    p.add_argument("-n", type=int, required=True, help="arity of f (>= 2)")

    p = sub.add_parser("agenda", help="inspect an agenda file")
    agenda_sub = p.add_subparsers(dest="agenda_command", required=True)
    q = leaf(agenda_sub, "check", cmd_agenda_check,
             "validate and summarise an agenda")
    q.add_argument("file")
    q = leaf(agenda_sub, "rationals", cmd_agenda_rationals,
             "list the rational judgments")
    q.add_argument("file")

    p = sub.add_parser("jars", help="aggregation rules over an agenda")
    jars_sub = p.add_subparsers(dest="jars_command", required=True)
    q = leaf(jars_sub, "enumerate", cmd_jars_enumerate, "all consistent rules")
    q.add_argument("--agenda", required=True, help="agenda file")
    q.add_argument("-n", "--judges", type=int, required=True)
    q.add_argument("--normal-form", action="store_true",
                   help="one shared function for every position")
    q.add_argument("--anonymous", action="store_true",
                   help="keep only judge-order-invariant rules (with "
                   "--normal-form, this drops the unanimity requirement from "
                   "the sweep)")
    q.add_argument("--systematic", action="store_true",
                   help="keep only rules sharing one self-flip function (with "
                   "--normal-form, also drops the unanimity requirement)")
    q.add_argument("--up", action=argparse.BooleanOptionalAction, default=None,
                   help="with --normal-form, require unanimity preservation in "
                   "the sweep (--up) or not (--no-up), overriding what the "
                   "axiom flags imply; independent rules always require it")
    q = leaf(jars_sub, "check", cmd_jars_check, "check one rule")
    q.add_argument("--agenda", required=True)
    q.add_argument("-n", "--judges", type=int, required=True)
    q.add_argument("--fn", action="append", metavar="POS=SPEC",
                   help="function for one basis position (0-based), once per position")
    q.add_argument("--all-fn", metavar="SPEC",
                   help="one function for every basis position")

    p = leaf(sub, "verify", cmd_verify, "run verification suites")
    p.add_argument("--suite", default="all", choices=["all", *SUITES])

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  Parsing leaves
    it unchanged: each call fills a fresh namespace."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        config = Config.from_env()
    except ValueError as exc:
        parser.exit(2, f"jagg: {exc}\n")
    output_format = os.environ.get("JAGG_OUTPUT_FORMAT", "text")
    if output_format not in ("text", "json"):
        parser.exit(2, f"jagg: JAGG_OUTPUT_FORMAT must be text or json, "
                       f"got {output_format!r}\n")
    if args.json is None:
        args.json = output_format == "json"
    try:
        status = args.handler(args, config)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit cannot fail again, and end as a finished write would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (BudgetError, ValueError, OSError) as exc:
        parser.exit(2, f"jagg: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
