"""Exit codes and output shapes of the command line entry point."""

import json

import pytest

from knotoidh.cli import main, run_selftest

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
    path.write_text("a: %s\nb:\n" % CODE)
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


def test_compute_rejects_missing_file(capsys):
    rc, _, err = run(capsys, "compute", "--file", "/nonexistent.gko")
    assert rc == 2 and "error" in err


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
                     "order_one", "crossing_change_delta", "nested_zero_height"}


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_selftest_rejects_max_chords_below_two(capsys, value):
    rc, out, err = run(capsys, "selftest", "--max-chords", value)
    assert rc == 2 and out == ""
    assert err == "error: --max-chords must be at least 2\n"


def test_run_selftest_rejects_max_chords_below_two():
    with pytest.raises(ValueError, match="^max_chords must be at least 2$"):
        run_selftest(2, 1, 0)


def test_selftest_accepts_max_chords_two(capsys):
    rc, out, _ = run(capsys, "selftest", "--samples", "3", "--max-chords", "2")
    assert rc == 0 and json.loads(out)["max_chords"] == 2


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["compute"])
