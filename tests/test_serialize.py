"""Wire format: rationals are str(Fraction), polynomials lowest degree first."""

import json
from fractions import Fraction

from zetalab import ZetaCombination
from zetalab.cli import main


def test_format_lowest_terms_positive_denominator():
    combo = ZetaCombination.make({2: Fraction(-3, 6), 3: Fraction(4, -6), 5: Fraction(7)}, 5)
    assert combo.to_json_dict() == {"zeta": {"2": "-1/2", "3": "-2/3", "5": "7"}, "constant": "5"}
    assert ZetaCombination.make({}).to_json_dict() == {"zeta": {}, "constant": "0"}


def test_parse_roundtrip():
    for s in ("-1/2", "7", "0", "355/113", "-12"):
        combo = ZetaCombination.from_json_dict({"zeta": {"3": s}, "constant": s})
        assert combo.constant == combo.coeff(3) == Fraction(s)
        assert combo.to_json_dict() == {"zeta": {"3": s} if s != "0" else {}, "constant": s}


def test_poly_strings_lowest_degree_first(capsys):
    # R = 2 - x + 6x**3: M(s) = (7s**2 + 25s + 24) / ((s+1)(s+2)(s+4))
    assert main(["moment", "--coeffs=2,-1,0,6"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"numerator": ["24", "25", "7"], "denominator": ["8", "14", "7", "1"]}
