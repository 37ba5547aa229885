"""The CLI against the library on generated input.

Each command's exit code and stdout must equal what the library gives for
the same input, within a time cap per call.  These cases cover the
rational-ideal commands on surfaces whose center has rank at least 1, with
generators that carry central terms; ``ab``, ``center``, ``ideal-check``,
``ik-family``, ``chain-project`` and ``chain-separate``; and bad input to
every subcommand, which must exit 2 with one error line.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from goldmanab import chain, int_ideals
from goldmanab.abelian import ModuleElement, Monomial, abelianize
from goldmanab.cli import _SUBCOMMANDS, main
from goldmanab.rat_ideals import PrimitiveLabel, RationalIdeal, ideal_closure, ideal_contains
from goldmanab.symplectic import SurfaceSignature, center_generators
from goldmanab.words import are_conjugate, parse_word

from conftest import SIGNATURES, rational_coeffs, words

# Boundary count b >= 2: the center has rank b - 1.
SURFACES = [SurfaceSignature.with_boundary(g, b) for g, b in ((0, 3), (1, 3), (2, 2))]


SECONDS_PER_CALL = 2


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert time.perf_counter() - start < SECONDS_PER_CALL
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
    if sig.is_closed:
        return ["--closed", str(sig.genus)]
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


    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_the_old_multi_label_form_gives_the_canonical_verdicts(self, data):
        # Before labels held J's generators, a closure listed the trivial
        # label next to the labels of its multi-term classes.
        sig = data.draw(st.sampled_from(SURFACES[1:]))
        tails = st.tuples(*[st.integers(-2, 2)] * (sig.n - 2 * sig.genus))
        others = [PrimitiveLabel.from_pairs(sig, [(Monomial((0,) * 2 * sig.genus + t), c)
                                                  for t, c in zip(ts, cs)])
                  for ts, cs in data.draw(st.lists(st.tuples(
                      st.lists(tails, min_size=2, max_size=3, unique=True),
                      st.lists(rational_coeffs(), min_size=3, max_size=3)), max_size=3))]
        rows = [u.to_json_obj() for u in data.draw(st.lists(mixed_elements(sig), max_size=2))
                if u._terms and not any(any(m[:2 * sig.genus]) for m in u._terms)]
        labels = [PrimitiveLabel.trivial(sig), *others]
        old = {"labels": [lab.to_json_obj() for lab in labels], "central_basis": rows}
        canonical = RationalIdeal.from_json_obj(old).to_json_obj()
        assert canonical["labels"] == [PrimitiveLabel.trivial(sig).to_json_obj()]
        for elem in data.draw(st.lists(mixed_elements(sig), min_size=1, max_size=3)):
            calls = [_run("ideal-member", *_surface_args(sig), "--ideal", json.dumps(ideal),
                          "--elem", json.dumps(elem.to_json_obj())) for ideal in (old, canonical)]
            assert calls[0] == calls[1] and calls[0][0] in (0, 1)


def _words_text(n, max_len=6):
    return words(n, max_len).map(str)


class TestOtherCommandsMatchTheLibrary:
    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_ab(self, data):
        sig = data.draw(st.sampled_from(SIGNATURES))
        texts = data.draw(st.lists(_words_text(sig.n), min_size=1, max_size=3))
        coefs = data.draw(st.lists(st.one_of(st.integers(-9, 9), rational_coeffs()),
                                   min_size=len(texts), max_size=len(texts)))
        # The CLI reads ring Z when every coefficient prints as an integer.
        ring = "Z" if all(Fraction(c).denominator == 1 for c in coefs) else "Q"
        terms = [(int(c) if ring == "Z" else Fraction(c), parse_word(t, sig.n))
                 for c, t in zip(coefs, texts)]
        code, out, err = _run("ab", *_surface_args(sig), "--coefs=" + ",".join(map(str, coefs)),
                              *texts)
        assert (code, out, err) == (0, _as_json(abelianize(terms, sig.n, ring).to_json_obj()), "")

    @pytest.mark.parametrize("sig", SIGNATURES, ids=lambda sig: sig.describe())
    def test_center(self, sig):
        expected = {"generators": [f"a{i}" for i in center_generators(sig)]}
        assert _run("center", *_surface_args(sig)) == (0, _as_json(expected), "")

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_ideal_check(self, data):
        sig = data.draw(st.sampled_from(SIGNATURES))
        box, seed = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 10**6))
        samples = data.draw(st.integers(0, 200))
        if data.draw(st.booleans()):
            k = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * sig.n), max_size=3))
            sub, rule = int_ideals.GcdSubmodule(sig.n, k), ["ik", "--K", str(k)]
        else:
            radius = data.draw(st.integers(0, 2))
            points = st.tuples(*[st.integers(-radius, radius)] * sig.n)
            values = data.draw(st.dictionaries(points, st.integers(0, 4), max_size=4))
            sub = int_ideals.TableSubmodule(sig.n, radius, values)
            table = {"radius": radius, "values": [[list(p), a] for p, a in values.items()]}
            rule = ["table", "--table", json.dumps(table)]
        report = int_ideals.bracket_closure_check(sig, sub, box, samples, seed=seed)
        expected = {"verdict": report.ok, "seed": seed, "checked": report.checked,
                    "skipped": report.skipped}
        if report.counterexample is not None:
            expected["counterexample"] = report.counterexample
        code, out, err = _run("ideal-check", *_surface_args(sig), "--rule", *rule,
                              "--box", str(box), "--samples", str(samples), "--seed", str(seed))
        assert (code, out, err) == (0 if report.ok else 1, _as_json(expected), "")

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_ik_family(self, data):
        n = data.draw(st.integers(1, 3))
        k0 = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=3))
        count = data.draw(st.integers(1, 6))
        family = int_ideals.gcd_submodule_family(k0, count)
        expected = {"submodules": [{"K": [list(t) for t in sorted(sub.exceptions)]}
                                   for sub in family]}
        code, out, err = _run("ik-family", "--K0", str(k0), "--count", str(count))
        assert (code, out, err) == (0, _as_json(expected), "")

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_chain_project(self, data):
        n = data.draw(st.integers(1, 3))
        word = data.draw(words(n, 8, 9))
        c, level = data.draw(st.integers(1, n)), data.draw(st.integers(0, 5))
        image = chain.project_word(parse_word(str(word), n), level, c)
        code, out, err = _run("chain-project", "--n", str(level), "--c", str(c), str(word))
        assert (code, out, err) == (0, _as_json({"word": str(image.to_word())}), "")

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_chain_separate(self, data):
        n = 2
        a, b = data.draw(words(n, 6, 9)), data.draw(words(n, 6, 9))
        c, nmax = data.draw(st.integers(1, n)), data.draw(st.integers(0, 6))
        if are_conjugate(a, b):
            expected, want = {"result": "conjugate"}, 1
        else:
            level = chain.separation_level(a, b, c, nmax)
            expected, want = ({"result": "not separated", "nmax": nmax}, 1) if level is None \
                else ({"level": level}, 0)
        code, out, err = _run("chain-separate", "--c", str(c), "--nmax", str(nmax),
                              str(a), str(b))
        assert (code, out, err) == (want, _as_json(expected), "")


# Bad input that argparse accepts, so that the handler itself must refuse it.
# Negative numbers are passed as --option=value, which argparse never reads
# as a flag.

BAD_SURFACES = [SurfaceSignature.closed(1), SurfaceSignature.closed(2),
                SurfaceSignature.with_boundary(0, 3), SurfaceSignature.with_boundary(1, 2)]


MALFORMED_TOKENS = st.sampled_from(["b1", "a", "a1^", "a1^x", "a0", "a1^1.5", "a^2", "1"])


def bad_words(n=None):
    """A malformed word token after a valid word; or, given n, a generator index past n."""
    token = MALFORMED_TOKENS
    if n is not None:
        token = st.one_of(token, st.integers(n + 1, n + 40).map("a{}".format))
    return st.tuples(st.sampled_from(["", "a1 ", "a1^-2 a1 "]), token).map("".join)


def bad_exponent_json(n):
    """Element JSON with one exponent a float or a nested list, up to past the recursion limit."""
    nested = st.integers(1, 3000).map(lambda depth: "[" * depth + "1" + "]" * depth)
    exponent = st.one_of(st.floats().map(json.dumps), nested)
    return exponent.map(lambda e: '{"ring": "Q", "terms": [{"exp": [%s], "coef": "1"}]}'
                        % ", ".join([e] + ["0"] * (n - 1)))


BAD_TUPLE_SETS = st.one_of(
    st.sampled_from(["[(1,0", "(1,0)]", "[(1,,0)]", "[1, 0]", "[(a, 0)]", "{(1, 0)", "[(1.5, 0)]"]),
    st.integers(1, 3000).map(lambda k: "+" * k + "1"),
)


@st.composite
def bad_input(draw, command):
    """argv for ``command`` with one fault that reaches its handler."""
    sig = draw(st.sampled_from(BAD_SURFACES))
    surface, n = _surface_args(sig), sig.n
    if command in ("bracket", "pair", "ab"):
        return [command, *surface, *draw(st.permutations([draw(bad_words(n)), "a1"]))]
    if command == "center":
        return ["center", *draw(st.one_of(
            st.integers(-5, 0).map(lambda g: [f"--closed={g}"]),
            st.integers(-5, -1).map(lambda g: ["--boundary", str(g), "2"]),
            st.integers(-5, 0).map(lambda b: ["--boundary", "1", str(b)])))]
    if command == "ideal-check":
        radius = draw(st.integers(200, 10**9))  # (2 * 200 + 1)^2 is past the table cap
        table = json.dumps({"radius": radius, "values": []})
        rule = draw(st.one_of(st.builds(lambda k: ["ik", "--K", k], BAD_TUPLE_SETS),
                              st.just(["table", "--table", table])))
        return ["ideal-check", *surface, "--rule", *rule, "--seed", "1"]
    if command == "ik-family":
        return ["ik-family", "--K0", draw(BAD_TUPLE_SETS), "--count", "2"]
    if command == "ideal-closure":
        return ["ideal-closure", *surface, "--gen", draw(bad_exponent_json(n))]
    if command == "ideal-member":
        bad, empty = draw(bad_exponent_json(n)), '{"ring": "Q", "terms": []}'
        if draw(st.booleans()):
            return ["ideal-member", *surface, "--ideal", '{"labels": [], "central_basis": []}',
                    "--elem", bad]
        ideal = '{"labels": [], "central_basis": [%s]}' % bad
        return ["ideal-member", *surface, "--ideal", ideal, "--elem", empty]
    if command == "chain-project":
        fault = draw(st.one_of(st.builds(lambda c: [f"--c={c}", "a1"], st.integers(-5, 0)),
                               st.builds(lambda w: ["--c=1", w], bad_words())))
        return ["chain-project", "--n", "2", *fault]
    if command == "chain-separate":
        fault = draw(st.one_of(
            st.builds(lambda c: [f"--c={c}", "--nmax=3"], st.integers(-5, 0)),
            st.builds(lambda m: ["--c=1", f"--nmax={m}"], st.integers(-10, -1))))
        return ["chain-separate", *fault, "a1", "a2"]
    assert command == "selftest"
    scale = draw(st.one_of(st.floats(max_value=-1e-9), st.sampled_from(["nan", "inf"])))
    return ["selftest", "--seed", "1", f"--scale={scale}"]


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("command", [name for name, *_ in _SUBCOMMANDS])
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_one_error_line_and_no_output(self, command, data):
        argv = data.draw(bad_input(command))
        code, out, err = _run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert "Traceback" not in err
