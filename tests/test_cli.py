"""Command-line behavior: golden JSON, exit codes, env overrides."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import jagg
import jagg.boolfn as boolfn
import jagg.cli as cli
from jagg.boolfn import parse_fn_spec
from jagg.cli import main
from jagg.fourier import spectrum

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


def agenda(name):
    return str(DATA / name)


def test_fourier_golden(capsys):
    code, out = run(capsys, "fourier", "and:2", "--json")
    assert code == 0
    assert out == golden("fourier_and2.json")


def test_fourier_text(capsys):
    code, out = run(capsys, "fourier", "and:2")
    assert code == 0
    assert "-1/2^1" in out and "{0,1}" in out


def fourier_specs(seed):
    """A random table and and, or, xor and nxor at arities 0-12, then a
    random table at an arity that spans four output blocks."""
    rng = random.Random(seed)
    for n in range(13):
        yield f"tt:{n}:{rng.getrandbits(1 << n):x}"
        if n:
            yield from (f"{kind}:{n}" for kind in ("and", "or", "xor", "nxor"))
    n = cli._BLOCK_BITS + 2
    yield f"tt:{n}:{rng.getrandbits(1 << n):x}"


def test_fourier_text_matches_print_loop(capsys):
    # the reference is the former output loop: one print per subset
    for fn in fourier_specs(60):
        sp = spectrum(parse_fn_spec(fn))
        n = sp.n
        lines = [f"spectrum of {fn} (arity {n})"]
        for R, c in enumerate(sp.coeffs):
            subset = "{" + ",".join(str(i) for i in range(n) if R >> i & 1) + "}"
            lines.append(f"  {subset:12s} {c}")
        code, out = run(capsys, "fourier", fn)
        assert code == 0
        assert out == "".join(line + "\n" for line in lines)


def test_fourier_json_matches_subset_scan(capsys):
    # the reference scans the n bits of each subset mask for its inputs
    for fn in fourier_specs(61):
        f = parse_fn_spec(fn)
        n = f.n
        coeffs = [{"subset": [i for i in range(n) if R >> i & 1],
                   "num": c.num, "exp": c.exp}
                  for R, c in enumerate(spectrum(f).coeffs)]
        payload = {"schema": 1, "spec": jagg.format_fn_spec(f), "arity": n,
                   "coefficients": coeffs}
        code, out = run(capsys, "fourier", fn, "--json")
        assert code == 0
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_schema_field_everywhere(capsys):
    for argv in (["fourier", "xor:2"], ["classify", "or:3"],
                 ["enumerate-pairs", "-m", "2", "-n", "2"],
                 ["agenda", "check", agenda("or_closure.agenda")]):
        _, out = run(capsys, "--json", *argv)
        assert json.loads(out)["schema"] == 1


def test_checkpair_golden_and_exit(capsys):
    code, out = run(capsys, "check-pair", "--g", "or:2", "--f", "and:2", "--json")
    assert code == 1
    assert out == golden("checkpair_or2_and2.json")
    code, out = run(capsys, "check-pair", "--g", "and:2", "--f", "and:3", "--json")
    assert code == 0
    assert json.loads(out)["case"] == "both-and"


def test_classify_goldens(capsys):
    for spec, name in (("dictator:3:1", "classify_dictator3_1.json"),
                       ("const:2:T", "classify_const2_T.json")):
        code, out = run(capsys, "classify", spec, "--json")
        assert code == 0
        assert out == golden(name)


def test_enumerate_pairs_goldens(capsys):
    code, out = run(capsys, "enumerate-pairs", "-m", "2", "-n", "2", "--json")
    assert code == 0
    assert out == golden("pairs_2x2.json")
    code, out = run(capsys, "enumerate-pairs", "-m", "3", "-n", "3", "--json")
    assert code == 0
    assert out == golden("pairs_3x3.json")


def test_enumerate_pairs_deterministic(capsys):
    _, first = run(capsys, "enumerate-pairs", "-m", "2", "-n", "3", "--json")
    _, second = run(capsys, "enumerate-pairs", "-m", "2", "-n", "3", "--json")
    assert first == second


def test_enumerate_pairs_labels_each_member_once(capsys, monkeypatch):
    calls, real = [], boolfn._classify
    monkeypatch.setattr(boolfn, "_classify",
                        lambda f, inputs: calls.append(f) or real(f, inputs))
    for fmt in ("--text", "--json"):
        for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            calls.clear()
            code, _ = run(capsys, "enumerate-pairs", "-m", str(m), "-n", str(n), fmt)
            pairs = jagg.enumerate_normal_pairs(m, n)
            assert code == 0
            assert calls == [member for pair in pairs for member in pair], (m, n, fmt)


def test_agenda_check(capsys):
    code, out = run(capsys, "agenda", "check", agenda("disconnected.agenda"))
    assert code == 0
    assert "symbol-connected: False" in out
    assert "[[0, 1, 2], [3, 4, 5]]" in out
    code, out = run(capsys, "agenda", "check", agenda("or_closure.agenda"),
                    "--json")
    doc = json.loads(out)
    assert doc["symbol_complete"] is True
    assert doc["rational_count"] == 4


def test_agenda_rationals_golden(capsys):
    code, out = run(capsys, "agenda", "rationals",
                    agenda("two_disjunctions.agenda"), "--json")
    assert code == 0
    assert out == golden("rationals_two_disjunctions.json")


def test_jars_enumerate_goldens(capsys):
    cases = [
        (["--agenda", agenda("or_closure.agenda"), "-n", "2"],
         "uniform_or_closure_n2.json"),
        (["--agenda", agenda("three_atom.agenda"), "-n", "2"],
         "uniform_three_atom_n2.json"),
        (["--agenda", agenda("parity_closure.agenda"), "-n", "2"],
         "uniform_parity_n2.json"),
        (["--agenda", agenda("parity_closure.agenda"), "-n", "3"],
         "uniform_parity_n3.json"),
    ]
    for extra, name in cases:
        code, out = run(capsys, "jars", "enumerate", *extra,
                        "--normal-form", "--json")
        assert code == 0
        assert out == golden(name)


def test_jars_enumerate_four_judge_goldens(capsys):
    # four judges lift the 3-judge rules and compose the one profile of four
    # distinct judgments (15 over all judge counts), then close under relabelling
    cases = [
        (["--agenda", agenda("or_closure.agenda")], "uniform_or_closure_n4.json"),
        (["--agenda", agenda("parity_closure.agenda"), "--no-up"],
         "uniform_parity_n4_no_up.json"),
    ]
    for extra, name in cases:
        code, out = run(capsys, "jars", "enumerate", *extra, "-n", "4",
                        "--normal-form", "--json")
        assert code == 0
        assert out == golden(name)


def test_rules_benchmark_goldens(capsys):
    # the rule sweeps and shapes the benchmark's rules questions ask for
    cases = [
        (["--agenda", agenda("and_closure.agenda"), "-n", "4"],
         "uniform_and_closure_n4.json"),
        (["--agenda", agenda("mixed_compounds.agenda"), "-n", "4"],
         "uniform_mixed_compounds_n4.json"),
        (["--agenda", agenda("three_atom.agenda"), "-n", "3"],
         "uniform_three_atom_n3.json"),
        (["--agenda", agenda("or_closure.agenda"), "-n", "3", "--anonymous"],
         "uniform_or_closure_n3_anonymous.json"),
        (["--agenda", agenda("and_closure.agenda"), "-n", "3", "--anonymous",
          "--systematic"], "uniform_and_closure_n3_anonymous_systematic.json"),
    ]
    for extra, name in cases:
        code, out = run(capsys, "jars", "enumerate", *extra, "--normal-form", "--json")
        assert code == 0
        assert out == golden(name), name
    # inputs 1 and 2 irrelevant (and on 0, 3), and a shape of no family
    for spec, name in (("tt:4:aa00", "classify_tt4_aa00.json"),
                       ("tt:4:1234", "classify_tt4_1234.json")):
        code, out = run(capsys, "classify", spec, "--json")
        assert code == 0
        assert out == golden(name), name


def test_jars_enumerate_anonymous(capsys):
    code, out = run(capsys, "jars", "enumerate", "--agenda",
                    agenda("or_closure.agenda"), "-n", "3", "--normal-form",
                    "--anonymous", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [s["fn"] for s in doc["solutions"]] == ["tt:3:fe"]
    assert doc["unanimity_required"] is False


def test_jars_enumerate_up_flag(capsys):
    argv = ["jars", "enumerate", "--agenda", agenda("or_closure.agenda"), "-n", "3",
            "--normal-form", "--anonymous", "--json"]
    # --up requires unanimity despite --anonymous (the old spelling was --no-no-up)
    code, out = run(capsys, *argv, "--up")
    assert code == 0
    assert out == golden("uniform_or_closure_n3_anonymous_up.json")
    # --no-up drops the requirement, as --anonymous already does
    code, out = run(capsys, *argv, "--no-up")
    assert code == 0
    assert out == run(capsys, *argv)[1]
    assert json.loads(out)["unanimity_required"] is False
    code, _ = run(capsys, *argv, "--no-no-up")
    assert code == 2
    _, out = run(capsys, "jars", "enumerate", "--help")
    assert "--up, --no-up" in out and "--no-no-up" not in out


def test_jars_enumerate_independent_golden(capsys, monkeypatch):
    monkeypatch.setenv("JAGG_ENUMERATION_BUDGET", str(1 << 40))
    code, out = run(capsys, "jars", "enumerate", "--agenda",
                    agenda("or_closure.agenda"), "-n", "3", "--json")
    assert code == 0
    assert out == golden("independent_or_closure_n3.json")


def test_jars_enumerate_needs_a_judge(capsys):
    for judges in ("0", "-1"):
        for mode in ([], ["--normal-form"]):
            with pytest.raises(SystemExit) as exc:
                main(["jars", "enumerate", "--agenda", agenda("or_closure.agenda"),
                      "-n", judges, *mode])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "jagg: need at least one judge\n"


def test_jars_enumerate_refuses_a_huge_judge_count_by_the_cap(capsys):
    # 2**20000 has more digits than Python turns into text by default, so the
    # refusal states the candidate bits as a formula
    for mode, err in (([], "20000 judges on 3 basis entries give "
                           "2**((2**20000 - 2) * 3) candidate rules, beyond 2**20"),
                      (["--normal-form"], "20000 judges give 2**(2**20000) candidate "
                                          "tables, beyond 2**20")):
        with pytest.raises(SystemExit) as exc:
            main(["jars", "enumerate", "--agenda", agenda("or_closure.agenda"),
                  "-n", "20000", *mode])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"jagg: {err}\n"


def test_jars_enumerate_no_up_needs_normal_form(capsys):
    argv = ["jars", "enumerate", "--agenda", agenda("or_closure.agenda"), "-n", "2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-up"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jagg: --no-up needs --normal-form")
    # --up states what independent rules require anyway
    assert run(capsys, *argv, "--up") == run(capsys, *argv)
    _, out = run(capsys, "jars", "enumerate", "--help")
    assert "with --normal-form" in " ".join(out.split())


def test_jars_enumerate_impossibility(capsys):
    code, out = run(capsys, "jars", "enumerate", "--agenda",
                    agenda("and_closure.agenda"), "-n", "2", "--normal-form",
                    "--anonymous", "--systematic", "--json")
    assert code == 0
    assert json.loads(out)["solutions"] == []


def test_jars_check_verdict_and_exit(capsys):
    code, out = run(capsys, "jars", "check", "--agenda",
                    agenda("or_closure.agenda"), "-n", "3",
                    "--all-fn", "or:3", "--json")
    assert code == 0
    assert json.loads(out)["consistent"] is True
    code, out = run(capsys, "jars", "check", "--agenda",
                    agenda("and_closure.agenda"), "-n", "3",
                    "--all-fn", "tt:3:e8", "--json")
    assert code == 1
    assert out == golden("jars_check_majority3_and_closure.json")
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert len(doc["counterexample"]["profile"]) == 3


def test_jars_check_per_position(capsys):
    code, out = run(capsys, "jars", "check", "--agenda",
                    agenda("or_closure.agenda"), "-n", "2",
                    "--fn", "0=and:2", "--fn", "1=and:2", "--fn", "2=or:2",
                    "--json")
    assert code == 1
    assert json.loads(out)["consistent"] is False


def test_jars_check_mixed_fn_sources(capsys):
    code, out = run(capsys, "jars", "check", "--agenda",
                    agenda("or_closure.agenda"), "-n", "2",
                    "--all-fn", "or:2", "--fn", "0=and:2", "--json")
    assert code == 1
    assert json.loads(out)["consistent"] is False


def test_jars_check_rejects_a_repeated_fn_position(capsys):
    argv = ["jars", "check", "--agenda", agenda("or_closure.agenda"), "-n", "2",
            "--fn", "1=and:2", "--fn", "2=or:2"]
    for extra in (["--fn", "0=and:2", "--fn", "0=or:2"],
                  ["--all-fn", "or:2", "--fn", "0=and:2", "--fn", "0=and:2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "jagg: --fn names basis position 0 more than once\n"


def test_usage_errors_exit_2(capsys):
    cases = [
        ["fourier", "bogus"],
        ["fourier"],
        ["check-pair", "--g", "and:2"],
        ["no-such-command"],
        ["jars", "check", "--agenda", agenda("or_closure.agenda"), "-n", "2",
         "--fn", "0=and:2"],
        ["jars", "check", "--agenda", agenda("or_closure.agenda"), "-n", "2",
         "--fn", "9=and:2", "--all-fn", "or:2"],
        ["jars", "check", "--agenda", "/no/such/file", "-n", "2",
         "--all-fn", "or:2"],
        ["agenda", "check", agenda("or_closure.agenda"), "--suite"],
    ]
    for argv in cases:
        code, _ = run(capsys, *argv)
        assert code == 2, argv


def test_deeply_nested_agenda_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.agenda"
    path.write_text("(" * 300 + "P" + ")" * 300 + "\nQ\n")
    with pytest.raises(SystemExit) as exc:
        main(["agenda", "check", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jagg: line 1: formula nested too deeply at byte 0\n"


def test_budget_errors_exit_2(capsys):
    code, _ = run(capsys, "enumerate-pairs", "-m", "2", "-n", "4")
    assert code == 2
    code, out = run(capsys, "fourier", "and:21")
    assert code == 2
    assert out == ""


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out = run(capsys, "verify", "--suite", "identities", "--json")
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_json_is_byte_stable(capsys):
    first = run(capsys, "verify", "--suite", "forceful", "--json")
    second = run(capsys, "verify", "--suite", "forceful", "--json")
    assert first[0] == 0
    assert first == second


def test_one_parser_serves_a_run_of_calls(capsys):
    # the process builds its parser once; each call in a row must print
    # what a fresh parser prints, and no flag may carry over to the next
    calls = [
        ["enumerate-pairs", "-m", "2", "-n", "2", "--json"],
        ["check-pair", "--g", "or:2", "--f", "and:2"],
        ["check-pair", "--g", "and:2"],
        ["verify", "--suite", "pairs", "--json"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _ in fresh] == [0, 1, 2, 0]
    assert fresh[1][1].startswith("not a normal pair: commutation\n")
    cli._parser.cache_clear()
    parser = cli._parser()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert cli._parser() is parser


def test_env_output_format(capsys, monkeypatch):
    monkeypatch.setenv("JAGG_OUTPUT_FORMAT", "json")
    _, out = run(capsys, "classify", "and:2")
    assert json.loads(out)["class"]["kind"] == "and"
    # an explicit flag wins over the environment
    _, out = run(capsys, "classify", "and:2", "--text")
    assert out.startswith("tt:2:8:")


def test_env_output_format_matches_the_flag(capsys, monkeypatch):
    argv = ["enumerate-pairs", "-m", "3", "-n", "3"]
    flagged = run(capsys, *argv, "--json")
    monkeypatch.setenv("JAGG_OUTPUT_FORMAT", "json")
    assert run(capsys, *argv) == flagged
    monkeypatch.setenv("JAGG_OUTPUT_FORMAT", "text")
    assert run(capsys, *argv) == run(capsys, *argv, "--text")


def test_invalid_env_output_format_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("JAGG_OUTPUT_FORMAT", "xml")
    # an explicit flag does not hide a bad setting
    for flag in ("--json", "--text", None):
        argv = ["classify", "and:2"] + ([flag] if flag else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "jagg: JAGG_OUTPUT_FORMAT must be text or json, got 'xml'\n"
    # a bad limit is reported before a bad output format
    monkeypatch.setenv("JAGG_ARITY_CAP", "wide")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "and:2", "--json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("jagg: JAGG_ARITY_CAP must be an integer, "
                                       "got 'wide'\n")


def test_env_cap_bounds_pair_enumeration(capsys, monkeypatch):
    monkeypatch.setenv("JAGG_ARITY_CAP", "2")
    assert run(capsys, "enumerate-pairs", "-m", "2", "-n", "2")[0] == 0
    for m, n in ((3, 3), (2, 3), (3, 2)):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate-pairs", "-m", str(m), "-n", str(n)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "jagg: arity 3 exceeds the cap of 2\n"


def test_env_cap_respected(capsys, monkeypatch):
    monkeypatch.setenv("JAGG_ARITY_CAP", "3")
    code, _ = run(capsys, "fourier", "and:4")
    assert code == 2
    monkeypatch.setenv("JAGG_ARITY_CAP", "not-a-number")
    code, _ = run(capsys, "fourier", "and:2")
    assert code == 2


def test_missing_agenda_file_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["agenda", "check", str(DATA / "missing.agenda")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("jagg: [Errno 2] ")


def _buffered_child_env():
    """The child imports jagg from where this process found it, and buffers
    stdout as it does by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(jagg.__file__).parents[1])}


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_closed_stdout_ends_quietly(fmt):
    # the reader takes one line and goes, long before the spectrum is written
    proc = subprocess.Popen([sys.executable, "-m", "jagg.cli", "fourier", "and:16", *fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_buffered_child_env())
    assert proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_stdout_closed_before_a_short_answer_ends_quietly():
    # the whole answer fits stdout's buffer, so only the flush meets the pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "wb") as stdout:
        proc = subprocess.run([sys.executable, "-m", "jagg.cli", "classify", "and:2"],
                              stdout=stdout, stderr=subprocess.PIPE,
                              env=_buffered_child_env())
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_console_script_installed():
    # the child imports jagg from where this process found it
    env = {**os.environ, "PYTHONPATH": str(Path(jagg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "jagg.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("jagg ")


def test_readme_library_example_runs_as_printed():
    # the README's "Library example" block, run as a reader would run it
    root = HERE.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1/2^1",
        "commutation",
        "False",
        "(((False, True, False), (True, False, False), (True, True, True)), "
        "(True, True, False))",
    ]
