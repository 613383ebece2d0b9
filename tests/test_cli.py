"""Exit codes and output shapes of the command line entry point."""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from knotoidh import cli, gordian
from knotoidh.cli import main, run_selftest
from knotoidh.gauss import (crossing_change, mirror, parse_gauss_code,
                            random_diagram, serialize)
from knotoidh.gordian import NotHomotopyForm, gordian_lower_bound
from knotoidh.invariant import _FORMATS, Invariant, compute_H
from knotoidh.moves import apply_move, parse_trace, random_walk
from knotoidh.singular import resolutions
from knotoidh.zpoly import ReductionPolicy

CODE = "O1+ U2+ U3- O4- O5+ U4- O2+ U1+ O3- U5+"
REVERSED = "U5+ O3- U1+ O2+ U4- O5+ O4- U3- U2+ O1+"

H_QUOT = "(-t^-1 - t + t^(-z) + t^z)*y + (t^-1 + t - 2)*y^2"
H_LIT = "(-t^-1 - t + t^(z^-1) + t^(-z))*y + (t^-1 + t - 2)*y^2"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_text(capsys):
    rc, out, _ = run(capsys, "compute", "--code", CODE)
    assert rc == 0 and out.strip() == H_QUOT


def test_compute_literal(capsys):
    rc, out, _ = run(capsys, "compute", "--code", CODE, "--mode", "literal")
    assert rc == 0 and out.strip() == H_LIT


def test_compute_json(capsys):
    rc, out, _ = run(capsys, "compute", "--code", CODE, "--format", "json")
    obj = json.loads(out)
    assert rc == 0 and obj["policy"] == "quotient" and obj["terms"]


def test_compute_latex(capsys):
    rc, out, _ = run(capsys, "compute", "--code", "", "--format", "latex")
    assert rc == 0 and out.strip() == "0"


def test_compute_from_file(capsys, tmp_path):
    path = tmp_path / "pair.gko"
    path.write_text("a: %s\nb:\n" % CODE, encoding="utf-8")
    rc, out, _ = run(capsys, "compute", "--file", str(path))
    assert rc == 0
    assert out.splitlines() == [H_QUOT, "0"]


def test_compute_include_n0(capsys):
    code = "O3+ U2- U1+ O2- O4+ O1+ U3+ U4+"
    rc, out, _ = run(capsys, "compute", "--code", code, "--include-n0")
    assert rc == 0
    assert out.strip() == "(t^-1 + t - 2) + (t^(-z^-1) + t^(z^-1) - 2)*y"


def test_compute_rejects_bad_code(capsys):
    rc, _, err = run(capsys, "compute", "--code", "O1+ U2+")
    assert rc == 2 and "error" in err


def test_compute_rejects_a_leading_zero_id_in_one_line(capsys):
    rc, out, err = run(capsys, "compute", "--code", "O01+ U1+")
    assert (rc, out, err) == (2, "", "error: malformed token 'O01+'\n")


def test_compute_rejects_missing_file(capsys):
    rc, _, err = run(capsys, "compute", "--file", "/nonexistent.gko")
    assert rc == 2 and "error" in err


def test_compute_rejects_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.gko"
    path.write_bytes(b"a: O1+ U1+\n# caf\xe9\n")
    rc, out, err = run(capsys, "compute", "--file", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: %s is not UTF-8 text" % path)
    assert len(err.splitlines()) == 1


def test_compute_rejects_a_file_with_a_singular_diagram_by_its_name(capsys):
    path = resources.files("knotoidh").joinpath("data/paper_fixtures.gko")
    rc, out, err = run(capsys, "compute", "--file", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: singular_witness: diagram has singular chords; resolve them first\n"
    rc, out, err = run(capsys, "compute", "--code", "O1* U1*")
    assert (rc, out, err) == (2, "", "error: diagram has singular chords; resolve them first\n")


def test_compute_rejects_a_malformed_file_line_by_its_number_and_name(capsys, tmp_path):
    path = tmp_path / "bad.gko"
    path.write_text("a: %s\nb: O1+ X\n" % CODE, encoding="utf-8")
    rc, out, err = run(capsys, "compute", "--file", str(path))
    assert (rc, out, err) == (2, "", "error: line 2 (b): malformed token 'X'\n")


@pytest.mark.parametrize("argv, prefix", [
    (["compute", "--code", "{0}"], ""),
    (["compute", "--file", "{1}"], "line 2 (b): "),
    (["compare", CODE, "{0}"], "code_b: "),
    (["gordian", "{0}", ""], "code_a: "),
], ids=["code", "file", "compare", "gordian"])
def test_a_long_id_is_one_error_line(capsys, tmp_path, long_digits, argv, prefix):
    code = "O{0}+ U{0}+".format(long_digits)
    path = tmp_path / "long.gko"
    path.write_text("a: %s\nb: %s\n" % (CODE, code), encoding="utf-8")
    message = ("token 'O11111111...+': chord id has 5000 digits, past the interpreter's"
               " limit of 4300")
    argv = [arg.format(code, path) for arg in argv]
    assert run(capsys, *argv) == (2, "", "error: %s%s\n" % (prefix, message))


@pytest.mark.parametrize("command", [["compare"], ["gordian"], ["gordian", "--json"]])
@pytest.mark.parametrize("codes, message", [
    (("O1* U1*", "O1+ U1+"), "code_a: diagram has singular chords; resolve them first"),
    (("O1+ U1+", "O1* U1*"), "code_b: diagram has singular chords; resolve them first"),
    (("O1+ U1", "O01+ U1+"), "code_b: malformed token 'O01+'"),
    (("O1 U1", "O1+ U1+"), "code_a: token 'O1': O tokens need a sign or *"),
], ids=["singular_a", "singular_b", "malformed_b", "unsigned_a"])
def test_a_two_code_command_names_the_code_it_rejects(capsys, command, codes, message):
    rc, out, err = run(capsys, command[0], *codes, *command[1:])
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_compare_equal_and_distinct(capsys):
    rc, out, _ = run(capsys, "compare", CODE, CODE)
    assert rc == 0 and out.strip() == "equal"
    rc, out, _ = run(capsys, "compare", CODE, REVERSED, "--mode", "literal")
    assert rc == 0 and out.strip() == "distinct"


def test_compare_reverse_check(capsys):
    rc, out, _ = run(capsys, "compare", CODE, REVERSED, "--check", "reverse",
                     "--mode", "literal")
    assert rc == 0
    assert out.splitlines() == ["distinct", "reverse identity holds"]


def test_compare_mirror_check_detects_violation(capsys):
    rc, out, _ = run(capsys, "compare", CODE, CODE, "--check", "mirror")
    assert rc == 1
    assert out.splitlines() == ["equal", "mirror identity violated"]


@pytest.mark.parametrize("argv, status, stdout, stderr", [
    (("compute", "--code", CODE), 0, H_QUOT + "\n", ""),
    (("compare", CODE, CODE, "--check", "mirror"), 1, "equal\nmirror identity violated\n", ""),
    (("compute", "--code", "O1+ U2+"), 2, "", "error: chord 1 is missing its U token\n"),
])
def test_the_module_runs_as_a_script(argv, status, stdout, stderr):
    """`python -m knotoidh.cli` in a fresh interpreter exits with main's status."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "knotoidh.cli", *argv],
                         env=env, capture_output=True, encoding="utf-8", timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (status, stdout, stderr)


@pytest.mark.parametrize("mode", ["quotient", "literal"])
def test_compare_mirror_check_holds(capsys, mode):
    mirrored = serialize(mirror(parse_gauss_code(CODE)))
    rc, out, _ = run(capsys, "compare", CODE, mirrored, "--check", "mirror",
                     "--mode", mode)
    assert rc == 0
    assert out.splitlines() == ["distinct", "mirror identity holds"]


def test_one_parser_per_process_carries_no_flag_from_call_to_call(capsys):
    code = "O3+ U2- U1+ O2- O4+ O1+ U3+ U4+"
    rc, with_n0, _ = run(capsys, "compute", "--code", code, "--include-n0")
    rc2, without, _ = run(capsys, "compute", "--code", code)
    rc3, gordian, _ = run(capsys, "gordian", CODE, "", "--json")
    rc4, plain, _ = run(capsys, "gordian", CODE, "")
    assert (rc, rc2, rc3, rc4) == (0, 0, 0, 0)
    assert with_n0.strip() == "(t^-1 + t - 2) + (t^(-z^-1) + t^(z^-1) - 2)*y"
    assert without.strip() == "(t^(-z^-1) + t^(z^-1) - 2)*y"
    assert json.loads(gordian)["bound"] == 2 and plain.strip() == "bound: 2"
    assert cli._build_parser() is cli._build_parser()


def test_gordian_text(capsys):
    rc, out, _ = run(capsys, "gordian", CODE, "")
    assert rc == 0 and out.strip() == "bound: 2"


def test_gordian_json(capsys):
    rc, out, _ = run(capsys, "gordian", CODE, "", "--json")
    obj = json.loads(out)
    assert rc == 0
    assert obj["bound"] == 2 and obj["per_n"] == {"1": 2, "2": 1}
    assert obj["status"] == "ok"


def test_gordian_not_homotopy_form(capsys):
    # H of this diagram has no crossing-change pairing
    code = "O1+ O3+ U1+ O2- U3+ U2-"
    rc, out, err = run(capsys, "gordian", code, "", "--json")
    obj = json.loads(out)
    assert rc == 0
    assert obj == {"bound": None, "per_n": {}, "pairs": [],
                   "status": "not_homotopy_form",
                   "reason": "partner coefficients differ at y^1: 1 vs -1"}
    rc, out, err = run(capsys, "gordian", code, "")
    assert rc == 0 and out.strip() == "not_homotopy_form" and err


def test_selftest(capsys):
    rc, out, _ = run(capsys, "selftest", "--samples", "25", "--seed", "11")
    report = json.loads(out)
    assert rc == 0 and report["ok"] is True
    names = {p["name"] for p in report["properties"]}
    assert names == {"move_invariance", "reverse_identity", "mirror_identity",
                     "order_one", "crossing_change_delta", "nested_zero_height",
                     "gordian_bound"}


def test_selftest_rows():
    report = run_selftest(2, 3, 0)
    rows = [(p["name"], p["policy"], p["fatal"]) for p in report["properties"]]
    assert rows == [(name, policy, fatal or policy == "quotient")
                    for name, fatal in [("move_invariance", False),
                                        ("reverse_identity", True),
                                        ("mirror_identity", True),
                                        ("order_one", True),
                                        ("crossing_change_delta", True),
                                        ("nested_zero_height", True),
                                        ("gordian_bound", False)]
                    for policy in ("quotient", "literal")]
    assert len(rows) == 14
    assert all(set(p) == {"name", "policy", "samples", "failures", "fatal",
                          "examples"} and p["samples"] == 2
               for p in report["properties"])


def test_literal_walk_failure_is_non_fatal_and_replays():
    # one of the rare draws where a walk moves a Literal exponent across a tie
    report = run_selftest(3, 16, 5004483)
    rows = {(p["name"], p["policy"]): p for p in report["properties"]}
    row = rows["move_invariance", "literal"]
    assert row["failures"] == 1 and row["fatal"] is False and report["ok"] is True
    code, seed_line, trace = row["examples"][0].split("\n", 2)
    d, seed = parse_gauss_code(code), int(seed_line.removeprefix("seed "))
    walked = d
    for spec in parse_trace(trace):
        walked = apply_move(walked, spec)
    assert walked == random_walk(d, 6, seed)
    lit = ReductionPolicy.LITERAL
    assert compute_H(walked, lit) != compute_H(d, lit)


def _first_resolution_H(d, policy):
    for cid in d.singular_ids():
        d = resolutions(d, cid)[0]
    return compute_H(d, policy)


def _double_count(d1, d2, policy):
    """gordian_lower_bound counting 2|a| for each pair."""
    return 2 * gordian_lower_bound(d1, d2, policy)


# One planted fault per row: each breaks exactly that row's guarantee.
PLANTED = [
    ("move_invariance", "random_walk",
     lambda d, steps, seed, trace=None: crossing_change(d, 1)),
    ("reverse_identity", "reverse", lambda d: d),
    ("mirror_identity", "mirror", lambda d: d),
    ("order_one", "singular_H", _first_resolution_H),
    # the witness swapped for a 1-singular kink, whose singular H is 0
    ("order_one", "bundled_diagrams",
     lambda: {"singular_witness": parse_gauss_code("O1* U1*")}),
    ("crossing_change_delta", "crossing_change_delta",
     lambda d, cid, policy: Invariant(policy)),
    ("nested_zero_height", "random_nested_diagram", random_diagram),
    ("gordian_bound", "gordian_lower_bound", _double_count),
]


@pytest.mark.parametrize("name, binding, fault", PLANTED, ids=[p[1] for p in PLANTED])
def test_planted_fault_fails_its_row(monkeypatch, name, binding, fault):
    monkeypatch.setattr(cli, binding, fault)
    report = run_selftest(20, 6, 0)
    failing = {(p["name"], p["policy"]) for p in report["properties"]
               if p["failures"] and p["fatal"]}
    assert (name, "quotient") in failing
    assert {n for n, _ in failing} == {name}
    assert report["ok"] is False


def test_gordian_bound_row_fails_and_replays_when_decompose_raises(monkeypatch):
    def no_pairing(delta):
        raise NotHomotopyForm("planted")
    monkeypatch.setattr(gordian, "decompose", no_pairing)  # as gordian_lower_bound reads it
    report = run_selftest(3, 6, 0)
    rows = {(p["name"], p["policy"]): p for p in report["properties"]}
    row = rows["gordian_bound", "quotient"]
    assert row["failures"] == 3 and row["fatal"] is True and report["ok"] is False
    for example in row["examples"]:
        head, seed_line, trace = example.split("\n", 2)
        code, ids = head.rsplit(" @", 1)
        changed = parse_gauss_code(code)
        for cid in filter(None, ids.split(",")):
            changed = crossing_change(changed, int(cid))
        walked = changed
        for spec in parse_trace(trace):
            walked = apply_move(walked, spec)
        assert walked == random_walk(changed, 4, int(seed_line.removeprefix("seed ")))


@pytest.mark.parametrize("value", ["0", "-5"])
def test_selftest_rejects_samples_below_one(capsys, value):
    rc, out, err = run(capsys, "selftest", "--samples", value)
    assert rc == 2 and out == ""
    assert err == "error: --samples must be at least 1\n"


def test_run_selftest_rejects_samples_below_one():
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        run_selftest(0, 6, 0)


@pytest.mark.parametrize("samples, max_chords, message", [
    (True, 2, "samples must be an int, not bool"),
    (2.0, 2, "samples must be an int, not float"),
    ("2", 2, "samples must be an int, not str"),
    (2, 2.5, "max_chords must be an int, not float"),
    (2, True, "max_chords must be an int, not bool"),
])
def test_run_selftest_rejects_counts_that_are_not_ints(samples, max_chords, message):
    with pytest.raises(ValueError) as exc:
        run_selftest(samples, max_chords, 0)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_selftest_rejects_max_chords_below_two(capsys, value):
    rc, out, err = run(capsys, "selftest", "--max-chords", value)
    assert rc == 2 and out == ""
    assert err == "error: --max-chords must be at least 2\n"


def test_run_selftest_rejects_max_chords_below_two():
    with pytest.raises(ValueError, match="^max_chords must be at least 2$"):
        run_selftest(2, 1, 0)


@pytest.mark.parametrize("samples, max_chords, message", [
    (-1, 2, "samples must be non-negative"),
    (2, -3, "max_chords must be non-negative"),
])
def test_run_selftest_counts_pass_the_seeded_gate(samples, max_chords, message):
    """A negative count fails _seeded's check before the least-value check reads it."""
    with pytest.raises(ValueError) as exc:
        run_selftest(samples, max_chords, 0)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed, message", [
    (None, "seed must be an int, not NoneType"),
    (True, "seed must be an int, not bool"),
    (2.5, "seed must be an int, not float"),
    ("x", "seed must be an int, not str"),
])
def test_run_selftest_takes_an_int_seed(seed, message):
    with pytest.raises(ValueError) as exc:
        run_selftest(1, 2, seed)
    assert str(exc.value) == message


def test_selftest_accepts_max_chords_two(capsys):
    rc, out, _ = run(capsys, "selftest", "--samples", "3", "--max-chords", "2")
    assert rc == 0 and json.loads(out)["max_chords"] == 2


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["compute"])


def usage_error(capsys, argv) -> str:
    """The one stderr line of a usage error, once its exit 2 and empty stdout are checked."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "") and out.err.count("\n") == 1
    return out.err


@pytest.mark.parametrize("argv, message", [
    (["selftest", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
    (["compute", "--code", "O1+ U1+", "--mode", "bad"], "argument --mode: invalid choice: 'bad'"),
    (["compute"], "one of the arguments --code --file is required"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
], ids=["bad_int", "bad_choice", "no_input", "unknown_command"])
def test_a_usage_error_is_one_line(capsys, argv, message):
    """argparse words the message (how it lists choices varies by version);
    the CLI prints it as one line, with no usage block."""
    assert usage_error(capsys, argv).startswith("error: %s" % message)


INT_FLAGS = ("--samples", "--max-chords", "--seed")


@pytest.mark.parametrize("flag", INT_FLAGS)
@pytest.mark.parametrize("value", ["\u0665", "1_0", " 3 ", "+2", "007", "-0", "-05", "3\n"])
def test_an_int_flag_takes_a_canonical_ascii_decimal_only(capsys, flag, value):
    err = usage_error(capsys, ["selftest", flag, value])
    assert err == "error: argument %s: invalid int value: %r\n" % (flag, value)


@pytest.mark.parametrize("flag", INT_FLAGS)
def test_an_int_flag_past_the_digit_limit_keeps_the_int_wording(capsys, long_digits, flag):
    err = usage_error(capsys, ["selftest", flag, long_digits])
    assert err == "error: argument %s: invalid int value: '%s'\n" % (flag, long_digits)


@pytest.mark.parametrize("seed", ["-5", "0"])
def test_a_negative_or_zero_seed_still_runs(capsys, seed):
    rc, out, err = run(capsys, "selftest", "--samples", "1", "--max-chords", "2", "--seed", seed)
    assert (rc, err, json.loads(out)["seed"]) == (0, "", int(seed))


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: knotoidh compute")


def choices(command, flag):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if flag in a.option_strings)


def test_each_choice_is_read_from_its_one_declaration():
    for command in ("compute", "compare", "gordian"):
        assert choices(command, "--mode") == [p.value for p in ReductionPolicy]
    assert choices("compute", "--format") == list(_FORMATS)
    assert choices("compare", "--check") == [*cli._SYMMETRIES, "none"]
    # the order is part of every usage message
    assert [p.value for p in ReductionPolicy] == ["quotient", "literal"]
    assert list(_FORMATS) == ["text", "json", "latex"]
    assert [*cli._SYMMETRIES, "none"] == ["reverse", "mirror", "none"]


@pytest.mark.parametrize("kind", ["none", "Reverse", None, ["mirror"]])
def test_symmetry_image_takes_reverse_or_mirror_only(kind):
    h = compute_H(parse_gauss_code(CODE))
    with pytest.raises(ValueError) as exc:
        cli.symmetry_image(h, kind)
    assert str(exc.value) == "unknown symmetry %r; expected one of reverse, mirror" % (kind,)
