"""Every exponent, count, index and level the package reads is an exact int.

A float or a ``bool`` raises TypeError and a value out of range raises
ValueError, each naming the argument and the value; in the CLI both exit 2
with one ``error:`` line and nothing on stdout.
"""

import random
import subprocess
import sys

import pytest

from goldmanab.abelian import ModuleElement, Monomial, exponent_vector, generator_exponent_sum
from goldmanab.chain import (
    QuotientWord,
    kernel_element,
    project_word,
    separation_level,
    symmetric_residue,
    total_c_exponent,
)
from goldmanab.cli import main
from goldmanab.int_ideals import (
    GcdSubmodule,
    TableSubmodule,
    bracket_closure_check,
    gcd_divisibility_check,
    gcd_submodule_family,
)
from goldmanab.rat_ideals import (
    PrimitiveLabel,
    RationalIdeal,
    closed_surface_classification_check,
    verify_bracket_closure,
)
from goldmanab.symplectic import SurfaceSignature
from goldmanab.words import CyclicWord, Word, parse_word, reduce_word

W, V = parse_word("a1 a2", 2), parse_word("a1^-1 a2", 2)
SIG = SurfaceSignature.closed(1)


def _json_term(exp, coef):
    return ModuleElement.from_json_obj({"ring": "Q", "terms": [{"exp": exp, "coef": coef}]})


# name: (call with the value under test, what the error names, the values
# out of range to test, none when every int is in range)
ENTRY_POINTS = {
    "Word alphabet": (lambda x: Word(x, ()), "alphabet size", (-1,)),
    "CyclicWord alphabet": (lambda x: CyclicWord(x, ()), "alphabet size", (-1,)),
    "reduce_word alphabet": (lambda x: reduce_word([], x), "alphabet size", (-1,)),
    "Word generator": (lambda x: Word(2, [(x, 1)]), "generator index", (3,)),
    "CyclicWord generator": (lambda x: CyclicWord(2, [(x, 1)]), "generator index", (0,)),
    "reduce_word generator": (lambda x: reduce_word([(x, 1)], 2), "generator index", (3,)),
    "Word exponent": (lambda x: Word(2, [(1, x)]), "exponent", ()),
    "reduce_word exponent": (lambda x: reduce_word([(1, x)], 2), "exponent", ()),
    "Word power": (lambda x: W ** x, "exponent", ()),
    "Monomial exponent": (lambda x: Monomial((0, x)), "exponent", ()),
    "Monomial.unit": (lambda x: Monomial.unit(2, x), "generator index", (3,)),
    "Monomial.unit alphabet": (lambda x: Monomial.unit(x, 1), "alphabet size", (-1,)),
    "Monomial.identity": (lambda x: Monomial.identity(x), "alphabet size", (-1,)),
    "exponent_vector alphabet": (lambda x: exponent_vector(W, x), "alphabet size", (-1,)),
    "generator_exponent_sum": (lambda x: generator_exponent_sum(W, x), "generator index", (0,)),
    "genus": (lambda x: SurfaceSignature(x, 0), "genus", (0,)),
    "boundary count": (lambda x: SurfaceSignature(1, x), "boundary count", (-1,)),
    "with_boundary": (lambda x: SurfaceSignature.with_boundary(1, x), "boundary count", (0,)),
    "QuotientWord level": (lambda x: QuotientWord(x, 1, 2, ()), "level", (-1,)),
    "QuotientWord c": (lambda x: QuotientWord(1, x, 2, ()), "distinguished generator", (3,)),
    "QuotientWord alphabet": (lambda x: QuotientWord(1, 1, x, ()), "alphabet size", (-1,)),
    "project_word level": (lambda x: project_word(W, x, 1), "level", (-1,)),
    "project_word c": (lambda x: project_word(W, 1, x), "distinguished generator", (3,)),
    "kernel_element level": (lambda x: kernel_element(x, [5], [W], W, 1), "level", (-1,)),
    "kernel_element exponent": (lambda x: kernel_element(1, [x], [W], W, 1), "exponent", (0,)),
    "kernel_element c": (
        lambda x: kernel_element(1, [5], [W], W, x), "distinguished generator", (3,)),
    "separation_level c": (lambda x: separation_level(W, V, x, 5), "distinguished generator", (0,)),
    "separation_level n_max": (lambda x: separation_level(W, V, 1, x), "n_max", ()),
    "symmetric_residue exponent": (lambda x: symmetric_residue(x, 2), "exponent", ()),
    "symmetric_residue level": (lambda x: symmetric_residue(1, x), "level", (-1,)),
    "total_c_exponent c": (lambda x: total_c_exponent(W, x), "distinguished generator", (3,)),
    "GcdSubmodule n": (lambda x: GcdSubmodule(x), "tuple length", (0,)),
    "TableSubmodule n": (lambda x: TableSubmodule(x, 1), "tuple length", (0, -1)),
    "TableSubmodule radius": (lambda x: TableSubmodule(1, x), "radius", (-1,)),
    "TableSubmodule default": (lambda x: TableSubmodule(1, 1, default=x), "rule value", (-1,)),
    "TableSubmodule value": (lambda x: TableSubmodule(1, 1, {(0,): x}), "rule value", (-1,)),
    "bracket_closure_check radius": (
        lambda x: bracket_closure_check(SIG, GcdSubmodule(2), x, None), "box radius", (-1,)),
    "bracket_closure_check samples": (
        lambda x: bracket_closure_check(SIG, GcdSubmodule(2), 1, x, seed=0), "samples", (-1,)),
    "gcd_divisibility_check radius": (
        lambda x: gcd_divisibility_check(SIG, GcdSubmodule(2), x, None), "box radius", (-1,)),
    "gcd_submodule_family count": (lambda x: gcd_submodule_family([(1, 0)], x), "count", (0,)),
    "verify_bracket_closure samples": (
        lambda x: verify_bracket_closure(SIG, RationalIdeal(), random.Random(0), x), "samples",
        (-3,)),
    "closed_surface_classification_check samples": (
        lambda x: closed_surface_classification_check(SIG, random.Random(0), x), "samples",
        (-3,)),
    "ModuleElement Z coefficient": (
        lambda x: ModuleElement("Z", [(Monomial((1,)), x)]), "coefficients", ()),
    "ModuleElement Q coefficient": (
        lambda x: ModuleElement("Q", [(Monomial((1,)), x)]), "coefficients", ()),
    "ModuleElement exponent": (lambda x: ModuleElement("Z", [((0, x), 1)]), "exponent", ()),
    "PrimitiveLabel weight": (
        lambda x: PrimitiveLabel([(Monomial((0, 0)), x)]), "coefficients", ()),
    "PrimitiveLabel.from_pairs weight": (
        lambda x: PrimitiveLabel.from_pairs(SIG, [(Monomial((0, 0)), x)]), "coefficients", ()),
    "PrimitiveLabel exponent": (
        lambda x: PrimitiveLabel([(Monomial((0, 0)), 1), ((0, x), 1)]), "exponent", ()),
    "PrimitiveLabel.from_pairs exponent": (
        lambda x: PrimitiveLabel.from_pairs(SIG, [((0, x), 1)]), "exponent", ()),
    "JSON exponent": (lambda x: _json_term([0, x], "1"), "exponent", ()),
    "JSON coefficient": (lambda x: _json_term([0, 1], x), "coefficient", ()),
}

CASES = [
    pytest.param(call, value, error, what, id=f"{name}={value}")
    for name, (call, what, out_of_range) in ENTRY_POINTS.items()
    for value, error in [(1.5, TypeError), (True, TypeError),
                         *((v, ValueError) for v in out_of_range)]
]


@pytest.mark.parametrize("call, value, error, what", CASES)
def test_entry_point_refuses_value(call, value, error, what):
    with pytest.raises(error, match=what) as info:
        call(value)
    assert str(value) in str(info.value)


CLI_CASES = {
    "ideal-closure bool exponent": [
        "ideal-closure", "--boundary", "1", "2", "--gen",
        '{"ring":"Q","terms":[{"exp":[0,0,true],"coef":"1"}]}'],
    "ideal-check bool radius": [
        "ideal-check", "--closed", "1", "--rule", "table", "--seed", "1",
        "--table", '{"radius": true, "values": []}'],
    "ideal-member non-central row": [
        "ideal-member", "--boundary", "1", "2",
        "--ideal", '{"labels": [], "central_basis": [{"ring":"Q","terms":'
                   '[{"exp":[0,0,1],"coef":"1"},{"exp":[1,0,0],"coef":"1"}]}]}',
        "--elem", '{"ring":"Q","terms":[{"exp":[0,0,1],"coef":"1"}]}'],
    # The trivial label makes J the unit ideal; the other label must still be central.
    "ideal-member non-central label beside the trivial one": [
        "ideal-member", "--boundary", "1", "2",
        "--ideal", '{"labels": [[{"c":[0,0,0],"q":"1"}], [{"c":[0,0,0],"q":"1"},'
                   '{"c":[1,0,0],"q":"2"}]], "central_basis": []}',
        "--elem", '{"ring":"Q","terms":[{"exp":[0,0,1],"coef":"1"}]}'],
}


@pytest.mark.parametrize("argv", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_cli_refuses_input(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_refuses_a_huge_decimal_exponent_at_once():
    # Fraction("1e30000000") would build 10**30000000 first, for about a minute.
    argv = ["ab", "--ring", "Q", "--coefs", "1e30000000", "--closed", "1", "a1"]
    proc = subprocess.run([sys.executable, "-m", "goldmanab", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert proc.stderr == (
        f"error: bad coefficient: exponent 30000000 exceeds the {limit}-digit limit\n")


@pytest.mark.parametrize("coef", ["1e5000", "1" + "0" * 5000, "1e-5000"], ids=len)
def test_coefficient_past_the_digit_limit(coef):
    with pytest.raises(ValueError, match="bad coefficient"):
        _json_term([0, 1], coef)
