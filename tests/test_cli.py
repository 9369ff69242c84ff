import copy
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from plde.cli import main
from plde.equation import PLDE
from plde.polyring import format_poly, parse_poly
from support import BUNDLED_SOLUTIONS, random_malformed_text, random_poly_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_text_output(capsys, eqdir):
    code, out, _ = run(capsys, "bound", str(eqdir / "sys1.json"))
    assert code == 0
    d_line = next(line for line in out.splitlines() if line.startswith("d:"))
    factors = set(d_line[2:].strip().strip("()").split(")*("))
    assert factors == {"n+k+1", "n+k+2", "n+k+3", "3*n+2*k+1"}
    assert "uncovered: 0,1 1,0" in out


def test_bound_json_round_trip(capsys, eqdir):
    code, out, _ = run(capsys, "bound", str(eqdir / "sys2.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert {f for f, _ in data["d"]["factors"]} == {"n^2+n+1", "n^2+3*n+3", "3*n+2*k+1"}


def test_spread_command(capsys):
    code, out, _ = run(capsys, "spread", "k+n+1", "--vars", "n,k")
    assert code == 0 and out.strip() == "lattice: (1,-1)"
    code, out, _ = run(capsys, "spread", "n*k+1", "--vars", "n,k")
    assert out.strip() == "lattice: 0"
    code, out, _ = run(capsys, "spread", "k+n+1", "--vars", "n,k", "--pair", "k+n+3")
    assert code == 0 and out.strip() == "coset: (0,-2)+(1,-1)"


def test_classify_command(capsys, eqdir):
    code, out, _ = run(capsys, "classify", str(eqdir / "ex2.json"), "--module", "1,-1")
    assert code == 0 and out.strip() == "uncovered"
    code, out, _ = run(capsys, "classify", str(eqdir / "sys1.json"), "--module", "1,-1")
    lines = out.splitlines()
    assert lines[0] == "U"
    cert = json.loads(lines[1])
    assert cert["witness"] in ([1, 1], [-1, -1])


@pytest.mark.parametrize("name,scaled,saturated", [
    ("ex2", "2,0", "1,0"), ("ex2", "2,-2", "1,-1"), ("ex1", "3,-3", "1,-1"),
    ("sys1", "2,-2", "1,-1"), ("sys2", "0,4", "0,1"),
])
def test_classify_works_modulo_the_saturated_module(capsys, eqdir, name, scaled, saturated):
    # points that differ by (1, 0) are congruent modulo the saturation of
    # 2Z x 0, so a scaled generator classifies as its saturation does
    outs = [run(capsys, "classify", str(eqdir / ("%s.json" % name)), "--module", m)
            for m in (scaled, saturated)]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_transform_command(capsys, eqdir):
    code, out, _ = run(capsys, "transform", str(eqdir / "ex1.json"), "--matrix", "1,1;1,0")
    assert code == 0
    eq = PLDE.from_json(json.loads(out))
    assert eq.support == [(0, 0), (1, 0), (1, 1)]


@pytest.mark.parametrize("matrix, message", [
    ("2,0;0,1", "determinant is not +-1"),
    ("1,1;1,1", "determinant is not +-1"),
    ("1,0;0", "row length 1, expected 2"),
    ("1,0;0,1,0", "row length 3, expected 2"),
])
def test_transform_rejects_matrices_that_are_not_unimodular(capsys, eqdir, matrix, message):
    code, out, err = run(capsys, "transform", str(eqdir / "ex1.json"), "--matrix", matrix)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, first_line", [
    (("check", "ex1", "--solution", "-n"),
     "not a solution (residual -6*n^2+24*n*k+12*k^2+7*n+26*k+12)"),
    (("spread", "-n", "--vars", "n,k"), "lattice: (0,1)"),
    (("spread", "n", "--vars", "n,k", "--pair", "-n"), "coset: (0,0)+(0,1)"),
    (("spread", "n^2+k+5", "--vars", "n,k", "--pair", "-n^2-k"), "coset: (0,5)"),
    (("classify", "ex1", "--module", "-1,1"), "O\\U"),
    (("transform", "ex1", "--matrix", "-1,0;0,-1"), "{"),
])
def test_values_that_start_with_a_dash(capsys, eqdir, argv, first_line):
    argv = [str(eqdir / "ex1.json") if a == "ex1" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.splitlines()[0] == first_line
    if argv[-2].startswith("--"):
        # the same as the "--option=value" form, which argparse always reads as a value
        assert run(capsys, *argv[:-2], "%s=%s" % tuple(argv[-2:])) == (0, out, "")


def test_check_command(capsys, eqdir):
    code, out, _ = run(capsys, "check", str(eqdir / "ex1.json"),
                       "--solution", "(n^2+2*k^2)/(k+n+1)")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "check", str(eqdir / "ex1.json"), "--solution", "1", "--json")
    assert code == 0 and json.loads(out)["ok"] is False
    # a literal too long for int() is refused by the coefficient limit first
    code, out, err = run(capsys, "check", str(eqdir / "ex1.json"), "--solution", "1" * 5000)
    assert code == 2 and out == "" and "unsupported" in err


@pytest.mark.parametrize("text, code, message", [
    pytest.param("²", 1, "unexpected character '²'", id="superscript"),
    pytest.param("n^²", 1, "unexpected character '²'", id="superscript-exponent"),
    pytest.param("n^" + "1" * 5000, 2,
                 "an exponent of 5000 digits at position 2 exceeds the degree limit",
                 id="long-exponent"),
    pytest.param("n^" + "0" * 5000 + "1", 0, "", id="leading-zeros"),  # this is n^1
])
@pytest.mark.parametrize("command", ["check", "spread"])
def test_digits_are_ascii_and_exponents_short(capsys, eqdir, command, text, code, message):
    if command == "check":
        argv = ("check", str(eqdir / "ex1.json"), "--solution", text)
    else:
        argv = ("spread", text, "--vars", "n,k")
    got, out, err = run(capsys, *argv)
    assert got == code and message in err and "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert (out, err) == run(capsys, *("n" if a == text else a for a in argv))[1:]


@pytest.mark.parametrize("name, candidate", [
    pytest.param("ex1", "(n+k)/(n*k+1)", id="ex1"),
    pytest.param("sys1", "(n+k)/(n*k+1)", id="sys1"),
    # golden r = 3 equations of 12 and 10 points, each with its known solution's
    # denominator shifted: residuals of hundreds of terms, cancelled only by
    # trial division
    pytest.param("g3-17", "(k+m)/(n*k+m+2)", id="g3-17"),
    pytest.param("g3-18", "(k+m)/(n^2+m+2)", id="g3-18"),
])
def test_check_rejects_a_wrong_candidate_quickly(tmp_path, eqdir, name, candidate):
    path = eqdir / ("%s.json" % name)
    if not path.exists():
        golden = json.loads((eqdir.parent / "tests" / "golden" / "equations.json").read_text())
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(golden[name]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "plde.cli", "check", str(path),
                           "--solution", candidate],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(eqdir.parent / "src")})
    assert proc.returncode == 0 and proc.stdout.startswith("not a solution (residual "), proc.stderr
    assert time.perf_counter() - start < 10


def test_check_json_residual_text(capsys, eqdir):
    # the residual text of a non-solution, as the quadratic check printed it
    code, out, _ = run(capsys, "check", str(eqdir / "ex1.json"),
                       "--solution", "(3*n-k)/(2*k+n+1)", "--json")
    assert code == 0
    assert json.loads(out) == {
        "ok": False,
        "residual": "(-12*n^4-76*n^3*k-308*n^2*k^2-452*n*k^3-88*k^4-58*n^3-470*n^2*k"
                    "-1132*n*k^2-484*k^3-186*n^2-926*n*k-826*k^2-260*n-542*k-120)"
                    "/(n^3+6*n^2*k+12*n*k^2+8*k^3+6*n^2+24*n*k+24*k^2+11*n+22*k+6)"}


@pytest.mark.parametrize("text, position", [
    ("(n^2+2*k^2)/(k+n+1)+1", 19),   # once read as (n^2+2*k^2)/(k+n+2)
    ("(k+n)/((n*k+3))-n", 15),
    ("1+n/(k+1)", 1),
    ("n - 1/(k+1)", 2),
])
def test_check_refuses_a_sum_beside_the_slash(capsys, eqdir, text, position):
    code, out, err = run(capsys, "check", str(eqdir / "ex1.json"), "--solution", text)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == ("error: a sum next to the top-level '/' is ambiguous; write (num)/(den) "
                   "(at position %d)\n" % position)
    # a leading sign is no sum, and parenthesized sides are read as before
    for ok in ("-(n^2+2*k^2)/(k+n+1)", "(-n-1)/(-k-1)", "+n/k"):
        assert run(capsys, "check", str(eqdir / "ex1.json"), "--solution", ok)[0] == 0


@pytest.mark.parametrize("text, position", [("1/(q)", 3), ("1/(n+)", 5), ("1/", 2),
                                            ("(q)/1", 1)])
def test_check_counts_positions_from_the_start_of_the_solution(capsys, eqdir, text, position):
    # the denominator is parsed on its own, but its positions count from the start
    code, out, err = run(capsys, "check", str(eqdir / "ex1.json"), "--solution", text)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.endswith("(at position %d)\n" % position)


def test_check_residuals_with_rational_contents(capsys, eqdir):
    # residual texts with fractional coefficients, pinned byte for byte from
    # the layout that stored every coefficient as a Fraction
    code, out, _ = run(capsys, "check", str(eqdir / "ex1.json"),
                       "--solution", "(n+1)/(2*n+2)", "--json")
    assert code == 0 and out == '{"ok": false, "residual": "5*n-10*k-5/2"}\n'
    # y = (n+1)/(2k+4) reduces to a numerator of content 1/2 over k+2
    code, out, _ = run(capsys, "check", str(eqdir / "sys1.json"), "--solution", "(n+1)/(2*k+4)")
    assert code == 0 and out == (
        "not a solution (residual (-3*n^3+6*n^2*k+6*n*k^2+21/2*n^2+36*n*k+9*k^2+99/2*n+42*k"
        "+93/2)/(k^2+5*k+6))\n")


def test_transform_output_text(capsys, eqdir):
    # the coefficient contents and signs move into the units, pinned byte for byte
    code, out, _ = run(capsys, "transform", str(eqdir / "ex1.json"), "--matrix", "2,1;1,1")
    expected = {"rhs": "0", "variables": ["n", "k"], "terms": [
        {"coefficient": {"factors": [["6*n-10*k-1", 1], ["k+1", 1]], "unit": "-1"},
         "shift": [0, 0]},
        {"coefficient": {"factors": [["12*n^2-38*n*k+34*k^2+12*n-11*k+6", 1]], "unit": "1"},
         "shift": [1, 1]},
        {"coefficient": {"factors": [["6*n^2-22*n*k+22*k^2-12*n+25*k+6", 1]], "unit": "-2"},
         "shift": [2, 1]}]}
    assert code == 0 and out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "bound", "/nonexistent/file.json")
    assert code == 1 and "no such file" in err


@pytest.mark.parametrize("command, options", [
    ("bound", []), ("classify", ["--module", "1,0"]), ("transform", ["--matrix", "1,0;0,1"]),
    ("check", ["--solution", "1"])])
def test_directory_path_exits_1(capsys, tmp_path, command, options):
    code, out, err = run(capsys, command, str(tmp_path), *options)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read %s: " % tmp_path) and "Traceback" not in err


def test_empty_terms_exits_1(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"variables": ["n", "k"], "terms": [], "rhs": "0"}')
    code, _, err = run(capsys, "bound", str(path))
    assert code == 1 and "no terms" in err


def test_unfactored_nonlinear_exits_2(capsys, tmp_path):
    path = tmp_path / "nl.json"
    path.write_text(json.dumps({
        "variables": ["n", "k"],
        "terms": [{"shift": [0, 0], "coefficient": "n^2+k^2+1"},
                  {"shift": [1, 0], "coefficient": "n+1"}],
        "rhs": "0",
    }))
    code, _, err = run(capsys, "bound", str(path))
    assert code == 2 and "factored" in err


@pytest.mark.parametrize("term, rhs", [
    ({"shift": [0, 0], "coefficient": "n^2-1000000000039"}, "0"),
    ({"shift": [0, 0], "coefficient": {"factors": [["k+n+1", 99999999]]}}, "0"),
    (None, "n^99999999"),
    (None, "(n+k+1)^3000"),
    (None, "(n+k+1)^100"),  # within the degree limit, but 5,151 terms
    ({"shift": [0, 0, 0], "coefficient": "1"}, "(n+k+m+1)^30"),  # 5,456 terms
    (None, "+".join("(n+k+%d)^43" % a for a in range(1, 6))),  # 990 terms each
    ([{"shift": [a, b], "coefficient": {"unit": str(c), "factors": [  # strip of 501,501 points
        ["n+k+%d" % (1 + a + b), 1], ["n+k+%d" % (1001 + a + b), 1],
        ["3*n+2*k+%d" % (1 + 3 * a + 2 * b), 1]]}}
      for (a, b), c in zip([(0, 0), (0, 1), (1, 0), (1, 1)], [1, -1, 1, 1])], "2"),
    (None, "((17^100)^100)^100"),  # a 4-million-bit constant
    (None, "(n+k+123456789^100)^40"),  # 861 terms, coefficients of 107,518 bits
    (None, "(n+k+123456789^100)^10"),  # too large to print
    (None, "n+" + "7" * 5000),  # more digits than int() converts
])
def test_oversized_input_exits_2_quickly(capsys, tmp_path, eqdir, term, rhs):
    data = json.loads((eqdir / "sys1.json").read_text())
    data["rhs"] = rhs
    if term is not None:
        data["terms"] = term if isinstance(term, list) else [term]
        data["variables"] = ["n", "k", "m"][:len(data["terms"][0]["shift"])]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, _, err = run(capsys, "bound", str(path))
    assert code == 2 and "unsupported" in err
    assert time.perf_counter() - start < 1.0


def test_unprintable_coefficients_exit_2(capsys, tmp_path, eqdir):
    # the parser's limits hold, but a change of variables with an entry 10^50
    # turns n^100 into coefficients of more than 5,000 digits
    data = json.loads((eqdir / "sys1.json").read_text())
    data["rhs"] = "n^100"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "transform", str(path), "--matrix", "1,%d;0,1" % 10 ** 50)
    assert code == 2 and out == "" and "unsupported" in err


@pytest.mark.parametrize("factor, matrix, terms", [
    # n -> n-k-m-l: a bound of 176,852 terms, refused at once
    ("n^100+1", "1,1,1,1;0,1,0,0;0,0,1,0;0,0,0,1", None),
    ("n^100+1", "1,1,1;0,1,0;0,0,1", None),  # 5,152 terms, more than a file reads back
    ("n^100+1", "1,1;0,1", 102),  # the shear n -> n-k
    # every substitute has three terms, so the products of the 84 monomials
    # may give 5,005 terms, but degree 6 in three variables allows only 84
    ("(n+2*k+3*m+1)^6", "2,-1,0;-1,2,-1;0,-1,1", 84),
])
def test_transform_bounds_the_terms_of_a_substitution(capsys, tmp_path, factor, matrix, terms):
    r = matrix.count(";") + 1
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"variables": ["n", "k", "m", "l"][:r], "rhs": "0", "terms": [
        {"shift": [0] * r, "coefficient": {"factors": [[factor, 1]]}},
        {"shift": [1] + [0] * (r - 1), "coefficient": "1"}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "transform", str(path), "--matrix", matrix)
    assert time.perf_counter() - start < 1.0
    if terms is None:
        assert code == 2 and out == "" and "unsupported" in err and "Traceback" not in err
    else:
        (prim, _), = PLDE.from_json(json.loads(out)).terms[(0,) * r].factors
        assert code == 0 and len(prim.terms) == terms


def test_spread_rejects_bad_polynomials(capsys):
    assert run(capsys, "spread", "n^", "--vars", "n,k")[0] == 1
    code, _, err = run(capsys, "spread", "n^101", "--vars", "n,k")
    assert code == 2 and "unsupported" in err


@pytest.mark.parametrize("argv, message", [
    (("1", "--vars", "n,k"), "constant polynomial"),
    (("n", "--vars", "n,k", "--pair", "3"), "constant polynomial"),
    (("k", "--vars", "n,k", "--pair", "n-n"), "constant polynomial"),
    (("n", "--vars", "n,n"), "variable names must be distinct"),
    (("n", "--vars", "n,1"), "is not a name"),
    (("n", "--vars", "n,"), "is not a name"),
])
def test_spread_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run(capsys, "spread", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_plain_string_coefficients_accepted_when_splittable(capsys, tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({
        "variables": ["n", "k"],
        "terms": [{"shift": [0, 0], "coefficient": "2*n+2"},
                  {"shift": [1, 1], "coefficient": "n^2+3*n+2"}],
        "rhs": "0",
    }))
    code, out, _ = run(capsys, "bound", str(path))
    assert code == 0


def test_equation_json_round_trip(eqdir):
    from plde.equation import load_equation

    for name in ("ex1", "ex2", "nrm", "sys1", "sys2", "skew"):
        eq = load_equation(eqdir / ("%s.json" % name))
        again = PLDE.from_json(eq.to_json())
        assert again.support == eq.support
        assert all(again.terms[s] == eq.terms[s] for s in eq.support)
        assert again.rhs == eq.rhs


_TERM = {"shift": [0, 0], "coefficient": "n+1"}


@pytest.mark.parametrize("data, message", [
    ([_TERM], "JSON object"),
    ({"variables": ["n", "k"], "terms": [_TERM, 7]}, "term 1 must be a JSON object"),
    ({"variables": ["n", "k"], "terms": [_TERM, {"coefficient": "k+1"}]}, "term 1 has no 'shift'"),
    ({"variables": ["n", "k"], "terms": [{"shift": [1, 0]}]}, "term 0 has no 'coefficient'"),
    ({"variables": ["n", "k"], "terms": [_TERM, {"shift": [1.5, 0], "coefficient": "k+1"}]},
     "term 1: shift must be a list of integers"),
    ({"variables": ["n", "k"], "terms": [_TERM, {"shift": ["1", 0], "coefficient": "k+1"}]},
     "term 1: shift must be a list of integers"),
    ({"variables": ["n", "k"], "terms": [{"shift": [0, 0], "coefficient": {"factors": [[1, 1]]}}]},
     "expected polynomial text"),
    ({"variables": ["n", "k"], "terms": [_TERM], "rhs": 5}, "expected polynomial text"),
    ({"variables": "nk", "terms": [_TERM]}, "variables must be a non-empty list of names"),
    ({"variables": [1, 2], "terms": [_TERM]}, "variables must be a non-empty list of names"),
    ({"variables": [], "terms": [_TERM]}, "variables must be a non-empty list of names"),
    ({"variables": ["n", "k"], "terms": [{"shift": [0, 0], "coefficient": {"factors": [1]}}]},
     "term 0: factors must be a list of [text, multiplicity >= 1] pairs"),
    ({"variables": ["n", "k"], "terms": [_TERM, {"shift": [1, 0],
                                                 "coefficient": {"factors": [["n", 1.5]]}}]},
     "term 1: factors must be a list of [text, multiplicity >= 1] pairs"),
    ({"variables": ["n", "k"], "terms": [{"shift": [0, 0], "coefficient": {"unit": [1]}}]},
     "term 0: unit must be a nonzero rational"),
    ({"variables": ["n", "k"], "terms": [{"shift": [0, 0], "coefficient": {"unit": "1/0"}}]},
     "term 0: unit must be a nonzero rational"),
    ({"variables": ["n", "k"], "terms": [{"shift": [0, 0], "coefficient": {"unit": "0"}}]},
     "term 0: unit must be a nonzero rational"),
    ({"variables": ["n", "k"], "terms": [_TERM], "rhs": "(" * 3000 + "n" + ")" * 3000},
     "nested too deeply"),
])
def test_malformed_equation_exits_1(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "bound", str(path))
    assert code == 1
    assert message in err and "Traceback" not in err


_MUTANTS = [None, True, 0, -1, 2, 1.5, "", "0", "1/0", "x", "n^", "((n)", "n+k+1",
            [], [1], [[]], ["n", 1], {}, {"unit": "1"}]


def _mutate(rng, data):
    """One random edit at a random node of a JSON document.

    The node is replaced by an odd value, deleted, wrapped in a list, or
    replaced by a copy of another node of the same document.
    """
    slots = []
    stack = [data]
    while stack:
        node = stack.pop()
        keys = range(len(node)) if isinstance(node, list) else list(node)
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (list, dict)):
                stack.append(node[key])
    node, key = rng.choice(slots)
    other, other_key = rng.choice(slots)
    op = rng.randrange(4)
    if op == 0:
        node[key] = copy.deepcopy(rng.choice(_MUTANTS))
    elif op == 1:
        del node[key]
    elif op == 2:
        node[key] = [node[key]]
    else:
        node[key] = copy.deepcopy(other[other_key])


class _Overtime(BaseException):
    """Raised by the per-case timer; no handler of the program catches it."""


def _exit_code(capsys, argv, seconds=5.0):
    """plde run in process on argv under a timer: its exit code, or a failure naming the case."""
    def expire(signum, frame):
        raise _Overtime()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    except _Overtime:
        code = "no exit within %g s" % seconds
    except Exception as exc:  # noqa: BLE001 - the failure names the case
        code = repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    capsys.readouterr()
    if code not in (0, 1, 2):
        case = " ".join(argv)
        if os.path.exists(argv[1]):
            case += " on " + open(argv[1]).read()
        pytest.fail("plde %s: %s" % (case, code))
    return code


_MODULES = ["1,-1", "0", "1,0;0,1", "1,1", "2,-2", "0,1", "1,2,3", "1,0;2,0", "x", ""]
_MATRICES = ["1,1;0,1", "0,1;1,-1", "1,0;0,1", "2,0;0,1", "1,1;1,1", "1,0,0;0,1,0;0,0,1", "1,1",
             "a"]


def _shifted_solutions(rng):
    """(name, text): each bundled solution with one denominator factor shifted by (1, 0)."""
    for name, (num, factors) in sorted(BUNDLED_SOLUTIONS.items()):
        i = rng.randrange(len(factors))
        moved = [format_poly(parse_poly(f, ("n", "k")).shift((1, 0))) if j == i else f
                 for j, f in enumerate(factors)]
        yield name, "(%s)/(%s)" % (num, "*".join("(%s)" % f for f in moved))


def test_mutated_equation_files_never_escape(capsys, tmp_path, eqdir):
    # every command on a damaged file, with random option values, and check and
    # spread on random polynomial text, ends with exit code 0, 1 or 2 within
    # 5 s, never an exception
    start = time.perf_counter()
    rng = random.Random(601)
    values = random.Random(602)
    files = sorted(eqdir.glob("*.json"))
    codes = []
    for i in range(200):
        data = json.loads(rng.choice(files).read_text())
        _mutate(rng, data)
        path = tmp_path / ("m%d.json" % i)
        path.write_text(json.dumps(data))
        codes.append(_exit_code(capsys, ["bound", str(path)]))
        _exit_code(capsys, ["classify", str(path), "--module", values.choice(_MODULES)])
        _exit_code(capsys, ["transform", str(path), "--matrix", values.choice(_MATRICES)])
        _exit_code(capsys, ["check", str(path), "--solution", random_poly_text(values)])
    assert codes.count(1) >= 50 and codes.count(0) >= 20
    checks = []
    for i in range(120):
        path = str(values.choice(files))
        text = random_poly_text(values) if i % 2 else random_malformed_text(values)
        checks.append(_exit_code(capsys, ["check", path, "--solution", text]))
        _exit_code(capsys, ["spread", random_poly_text(values), "--vars", "n,k"])
    for name, text in _shifted_solutions(values):
        checks.append(_exit_code(capsys, ["check", str(eqdir / ("%s.json" % name)),
                                          "--solution", text]))
    assert checks.count(0) >= 40 and checks.count(1) >= 30
    assert time.perf_counter() - start < 5.0
