"""The CLI against the library on generated input.

Each command's exit code and stdout must equal what the library gives for
the same input.  These cases cover the rational-ideal commands on surfaces
whose center has rank at least 1, with generators that carry central terms.
"""

import contextlib
import io
import json
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from goldmanab.abelian import ModuleElement, Monomial
from goldmanab.cli import main
from goldmanab.rat_ideals import ideal_closure, ideal_contains
from goldmanab.symplectic import SurfaceSignature

from conftest import rational_coeffs

# Boundary count b >= 2: the center has rank b - 1.
SURFACES = [SurfaceSignature.with_boundary(g, b) for g, b in ((0, 3), (1, 3), (2, 2))]


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def mixed_elements(draw, sig):
    """Rational elements with one to three central terms and up to three others."""
    g2, rest = 2 * sig.genus, sig.n - 2 * sig.genus
    tails = st.tuples(*[st.integers(-2, 2)] * rest)
    monos = [(0,) * g2 + t for t in draw(st.lists(tails, min_size=1, max_size=3, unique=True))]
    if g2:
        heads = st.tuples(*[st.integers(-2, 2)] * g2).filter(any)
        monos += [h + t for h, t in draw(st.lists(st.tuples(heads, tails), max_size=3))]
    return ModuleElement("Q", [(Monomial(m), draw(rational_coeffs())) for m in monos])


def _surface_args(sig) -> list[str]:
    return ["--boundary", str(sig.genus), str(sig.boundary)]


def _as_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


class TestRationalIdealCommandsMatchTheLibrary:
    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_ideal_closure(self, data):
        sig = data.draw(st.sampled_from(SURFACES))
        gens = data.draw(st.lists(mixed_elements(sig), min_size=1, max_size=4))
        argv = [arg for u in gens for arg in ("--gen", json.dumps(u.to_json_obj()))]
        code, out, err = _run("ideal-closure", *_surface_args(sig), *argv)
        assert (code, err) == (0, "")
        assert out == _as_json(ideal_closure(sig, gens).to_json_obj())

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_ideal_member(self, data):
        sig = data.draw(st.sampled_from(SURFACES))
        gens = data.draw(st.lists(mixed_elements(sig), min_size=1, max_size=4))
        ideal = ideal_closure(sig, gens)
        # A combination of the generators, a drawn element and their sum:
        # verdicts of both kinds, whichever the library gives.
        coeffs = st.one_of(st.just(Fraction(0)), rational_coeffs())
        combination = ModuleElement.zero("Q")
        for u in gens:
            combination = combination + u.scaled(data.draw(coeffs))
        other = data.draw(mixed_elements(sig))
        for elem in (combination, other, combination + other):
            verdict = ideal_contains(sig, ideal, elem)
            code, out, err = _run("ideal-member", *_surface_args(sig),
                                  "--ideal", json.dumps(ideal.to_json_obj()),
                                  "--elem", json.dumps(elem.to_json_obj()))
            assert (code, out, err) == (0 if verdict else 1, _as_json({"verdict": verdict}), "")
