"""Command line front-end.

Subcommands:
    bound FILE       denominator bound report for an equation file
    spread POLY      spread lattice of a polynomial (or pair coset)
    classify FILE    classify a module against an equation's support
    transform FILE   apply a unimodular change of variables
    check FILE       verify a rational solution

Exit codes: 0 success, 1 malformed input, 2 unsupported input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import combined_bound
from .equation import EquationFormatError, load_equation, variable_names
from .geometry import SupportGeometry
from .lattice import UnimodularMatrix, parse_module
from .polyring import ParseError, UnsupportedInputError, format_poly, parse_poly, parse_rational
from .spread import NEG_INFINITY, invariance_lattice, shift_equiv
from .transform import transform_equation
from .verify import check_solution


class _InputError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _load(path):
    try:
        return load_equation(path)
    except FileNotFoundError:
        raise _InputError("no such file: %s" % path)
    except OSError as exc:
        raise _InputError("cannot read %s: %s" % (path, exc.strerror))
    except UnsupportedInputError as exc:
        raise _InputError(str(exc), code=2)
    except (EquationFormatError, ParseError, ValueError) as exc:
        raise _InputError(str(exc))


def _parse_matrix(text):
    rows = [[int(x) for x in part.split(",")] for part in text.split(";")]
    return UnimodularMatrix(rows)


def cmd_bound(args) -> int:
    report = combined_bound(_load(args.file))
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    print("d: %s" % report.d)
    print("P: %s" % (" ".join(format_poly(p) for p in report.P) or "(none)"))
    print("modules:")
    for W in sorted(report.per_module, key=lambda L: L.key()):
        entry = report.per_module[W]
        line = "  W=%s class=%s" % (W, entry.kind)
        if entry.s_value is not None:
            line += " s=%s" % ("-inf" if entry.s_value == NEG_INFINITY else entry.s_value)
        if entry.d_W is not None:
            line += " d_W=%s" % entry.d_W
        print(line)
    print("uncovered: %s" % (" ".join(map(str, report.uncovered)) or "(none)"))
    print("warnings: %s" % ("; ".join(report.warnings) or "(none)"))
    return 0


def cmd_spread(args) -> int:
    try:
        vars = variable_names([v.strip() for v in args.vars.split(",")])
    except EquationFormatError as exc:
        raise _InputError(str(exc))
    p = parse_poly(args.poly, vars)
    q = p if args.pair is None else parse_poly(args.pair, vars)
    if p.is_constant() or q.is_constant():
        raise _InputError("the spread of a constant polynomial is not defined")
    if args.pair is None:
        L = invariance_lattice(p)
        print("lattice: (%s)" % L if not L.is_zero() else "lattice: 0")
    else:
        coset = shift_equiv(p, q)
        print("empty" if coset.is_empty else "coset: %s" % coset)
    return 0


def cmd_classify(args) -> int:
    eq = _load(args.file)
    try:
        W = parse_module(args.module, len(eq.variables))
    except ValueError as exc:
        raise _InputError(str(exc))
    cls = SupportGeometry(eq.support).classify(W)
    print(cls.kind)
    if cls.certificate is not None:
        print(json.dumps(cls.certificate.to_json(), sort_keys=True))
    return 0


def cmd_transform(args) -> int:
    eq = _load(args.file)
    try:
        M = _parse_matrix(args.matrix)
    except ValueError as exc:
        raise _InputError(str(exc))
    if M.dim != len(eq.variables):
        raise _InputError("matrix size %d does not match %d variables"
                          % (M.dim, len(eq.variables)))
    out = transform_equation(eq, M)
    print(json.dumps(out.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_check(args) -> int:
    eq = _load(args.file)
    try:
        y = parse_rational(args.solution, eq.variables)
    except (ParseError, ZeroDivisionError) as exc:
        raise _InputError(str(exc))
    result = check_solution(eq, y)
    if args.json:
        print(json.dumps({"ok": result.ok, "residual": str(result.residual)}, sort_keys=True))
    else:
        print("ok" if result.ok else "not a solution (residual %s)" % result.residual)
    return 0


def _values_kept(argv) -> list:
    """argv in a form in which argparse reads values such as "-n" or "-1,1" as values.

    An option that takes a value and its value become "--opt=value", and
    any other token that starts with a single "-" moves behind "--".
    """
    out, positional = [], []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            positional.extend(args)
        elif arg in ("--vars", "--pair", "--module", "--matrix", "--solution"):
            value = next(args, None)
            out.append(arg if value is None else "%s=%s" % (arg, value))
        elif arg.startswith("-") and not arg.startswith("--") and arg not in ("-", "-h"):
            positional.append(arg)
        else:
            out.append(arg)
    return out + ["--"] + positional if positional else out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plde",
                                     description="Denominator bounds for rational solutions "
                                                 "of multivariate linear difference equations")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="compute a denominator bound report")
    b.add_argument("file")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("spread", help="spread lattice of a polynomial")
    s.add_argument("poly")
    s.add_argument("--vars", required=True, help="comma-separated variable names")
    s.add_argument("--pair", help="second polynomial: compute the pair coset")
    s.set_defaults(func=cmd_spread)

    c = sub.add_parser("classify", help="classify a module against an equation")
    c.add_argument("file")
    c.add_argument("--module", required=True, help='generators, e.g. "1,-1" or "1,0;0,1" or "0"')
    c.set_defaults(func=cmd_classify)

    t = sub.add_parser("transform", help="apply a unimodular change of variables")
    t.add_argument("file")
    t.add_argument("--matrix", required=True,
                   help='point transform rows, e.g. "1,1;1,0"')
    t.set_defaults(func=cmd_transform)

    k = sub.add_parser("check", help="verify a rational solution")
    k.add_argument("file")
    k.add_argument("--solution", required=True)
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_values_kept(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except _InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except UnsupportedInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
