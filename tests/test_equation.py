import json

import pytest

from plde.equation import (EquationFormatError, PLDE, UnsupportedCoefficientError,
                           auto_factor)
from plde.factored import FactoredPoly
from plde.polyring import parse_poly
from support import VARS2


def P(text):
    return parse_poly(text, VARS2)


def test_auto_factor_linear_and_content():
    fp = auto_factor(P("-6*k+4"))
    assert fp.unit == -2 and fp.factors == ((P("3*k-2"), 1),)
    assert auto_factor(P("7")).is_constant()


def test_auto_factor_univariate_splits():
    fp = auto_factor(P("n^2+2*n+1"))
    assert fp.factors == ((P("n+1"), 2),)
    fp = auto_factor(P("3*n^2+3*n"))
    assert fp.unit == 3 and dict(fp.factors) == {P("n"): 1, P("n+1"): 1}
    fp = auto_factor(P("2*n^2+n-1"))  # (2n-1)(n+1)
    assert dict(fp.factors) == {P("2*n-1"): 1, P("n+1"): 1}


def test_auto_factor_rejects_hard_cases():
    with pytest.raises(UnsupportedCoefficientError):
        auto_factor(P("n^2+n+1"))  # no rational roots
    with pytest.raises(UnsupportedCoefficientError):
        auto_factor(P("n^2+k^2+1"))  # multivariate nonlinear


def test_plde_validation():
    good = {(0, 0): FactoredPoly(VARS2, 1, [(P("n+1"), 1)])}
    with pytest.raises(EquationFormatError):
        PLDE(VARS2, {}, P("0"))
    with pytest.raises(EquationFormatError):
        PLDE(("n", "n"), good, P("0"))
    with pytest.raises(EquationFormatError):
        PLDE(VARS2, {(0, 0, 0): FactoredPoly(("n", "k"), 1)}, P("0"))


def test_from_json_rejects_duplicate_shifts():
    data = {
        "variables": ["n", "k"],
        "terms": [{"shift": [0, 0], "coefficient": "n+1"},
                  {"shift": [0, 0], "coefficient": "k+1"}],
        "rhs": "0",
    }
    with pytest.raises(EquationFormatError):
        PLDE.from_json(data)
