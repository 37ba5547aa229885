import operator
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from goldmanab.words import (
    _TOKEN,
    CyclicWord,
    Letter,
    Word,
    _is_rotation,
    _least_rotation,
    are_conjugate,
    concat,
    conjugacy_canonical,
    cyclic_reduce,
    format_word,
    inverse,
    parse_word,
    reduce_word,
)

from conftest import raw_letters, words


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_word([(1, 1), (1, -1)], 1).is_identity()

    def test_cancel_then_merge(self):
        assert reduce_word([(1, 2), (2, 1), (2, -1), (1, 3)], 2) == parse_word("a1^5", 2)

    def test_already_reduced(self):
        w = reduce_word([(1, 1), (2, 1)], 2)
        assert w.letters == (Letter(1, 1), Letter(2, 1))

    def test_zero_exponent_dropped(self):
        assert reduce_word([(1, 0), (2, 1)], 2) == parse_word("a2", 2)

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            reduce_word([(3, 1)], 2)
        with pytest.raises(ValueError, match="out of range"):
            reduce_word([(0, 1)], 2)

    @given(raw_letters())
    def test_idempotent(self, raw):
        w = reduce_word(raw, 3)
        assert reduce_word([(l.gen, l.exp) for l in w.letters], 3) == w


class TestConcat:
    def test_inverse_pair(self):
        assert concat(parse_word("a1", 1), parse_word("a1^-1", 1)).is_identity()

    def test_middle_cancellation(self):
        assert concat(parse_word("a1 a2", 2), parse_word("a2^-1 a1", 2)) == parse_word("a1^2", 2)

    def test_identity(self):
        w = parse_word("a1 a2^-3", 2)
        assert concat(Word.identity(2), w) == w
        assert concat(w, Word.identity(2)) == w

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            concat(Word.identity(1), Word.identity(2))

    @given(words(), words(), words())
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)


class TestInverse:
    def test_reverse_and_negate(self):
        assert inverse(parse_word("a1 a2", 2)) == parse_word("a2^-1 a1^-1", 2)

    def test_empty(self):
        assert inverse(Word.identity(2)).is_identity()

    def test_power(self):
        assert inverse(parse_word("a1^3", 1)) == parse_word("a1^-3", 1)

    @given(words())
    def test_cancels(self, w):
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()


class TestPower:
    @given(words(), st.integers(-6, 6))
    def test_matches_repeated_product(self, w, k):
        base = w if k >= 0 else w.inverse()
        expected = Word.identity(w.n)
        for _ in range(abs(k)):
            expected = expected * base
        assert w ** k == expected

    def test_long_power_has_closed_form_length(self):
        # Conjugator a1 and cyclic core a2 a3^2: |w^k| = 2 + 3k.
        w = parse_word("a1 a2 a3^2 a1^-1", 3)
        assert len(w ** 100_000) == 2 + 3 * 100_000
        assert len(w ** -100_000) == 2 + 3 * 100_000

    def test_one_letter_core_scales_its_exponent(self):
        w = parse_word("a2 a1^3 a2^-1", 2)
        assert w ** -4 == parse_word("a2 a1^-12 a2^-1", 2)
        assert (w ** 4).letters == (Letter(2, 1), Letter(1, 12), Letter(2, -1))

    def test_exponent_must_be_an_integer(self):
        with pytest.raises(TypeError):
            parse_word("a1", 1) ** 1.5


class TestCyclicReduce:
    def test_one_step(self):
        core, conj = cyclic_reduce(parse_word("a1 a2 a1^-1", 2))
        assert core == parse_word("a2", 2)
        assert conj == parse_word("a1", 2)

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(parse_word("a1 a2", 2))
        assert core == parse_word("a1 a2", 2)
        assert conj.is_identity()

    def test_empty(self):
        core, conj = cyclic_reduce(Word.identity(2))
        assert core.is_identity() and conj.is_identity()

    def test_merging_ends(self):
        core, conj = cyclic_reduce(parse_word("a1^2 a2 a1^3", 2))
        assert core == parse_word("a2 a1^5", 2)
        assert conj == parse_word("a1^2", 2)

    @given(words())
    def test_conjugation_identity(self, w):
        core, conj = cyclic_reduce(w)
        assert conj * core * conj.inverse() == w

    @given(words(max_len=4, max_exp=2))
    @settings(max_examples=300)
    def test_core_length_minimal_brute_force(self, w):
        # Oracle: the least reduced length over all rotations of the fully
        # expanded letter sequence.
        expanded = []
        for l in w.letters:
            step = 1 if l.exp > 0 else -1
            expanded.extend((l.gen, step) for _ in range(abs(l.exp)))
        if len(expanded) > 6:
            return
        best = min(
            (len(reduce_word(expanded[i:] + expanded[:i], w.n)) for i in range(len(expanded))),
            default=0,
        )
        core, _ = cyclic_reduce(w)
        assert len(core) == best


class TestConjugacy:
    def test_explicit_conjugator(self):
        assert are_conjugate(parse_word("a1 a2 a1^-1", 2), parse_word("a2", 2))

    def test_distinct_generators(self):
        assert not are_conjugate(parse_word("a1", 2), parse_word("a2", 2))

    def test_rotation(self):
        assert are_conjugate(parse_word("a1 a2", 2), parse_word("a2 a1", 2))

    def test_canonical_is_least_rotation(self):
        cyc = conjugacy_canonical(parse_word("a2 a1", 2))
        assert cyc.letters == (Letter(1, 1), Letter(2, 1))

    def test_cyclic_word_rejects_other_rotations(self):
        with pytest.raises(ValueError, match="canonical rotation"):
            CyclicWord(2, [(2, 1), (1, 1)])
        with pytest.raises(ValueError, match="not cyclically reduced"):
            CyclicWord(2, [(1, 1), (2, 1), (1, 1)])

    def test_cyclic_word_rejects_a_negative_alphabet(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CyclicWord(-1, ())

    def test_canonical_after_reduction(self):
        assert conjugacy_canonical(parse_word("a1 a2 a1^-1", 2)) == CyclicWord(2, (Letter(2, 1),))

    @given(words(), words())
    def test_invariant_under_conjugation(self, g, w):
        assert conjugacy_canonical(g * w * g.inverse()) == conjugacy_canonical(w)


def brute_least_rotation(seq):
    """Oracle: the least of all n rotations, built one by one."""
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=seq)


def loop_cyclic_reduce(w):
    """Oracle: peel matching ends one pair at a time."""
    letters, conj = list(w.letters), []
    while len(letters) >= 2 and letters[0].gen == letters[-1].gen:
        first, last = letters[0], letters[-1]
        conj.append(first)
        if first.exp + last.exp:
            letters = letters[1:-1] + [Letter(first.gen, first.exp + last.exp)]
            break
        letters = letters[1:-1]
    return tuple(letters), tuple(conj)


class Counted:
    """An item that counts every comparison made on it."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        Counted.calls += 1
        return self.value == other.value

    def __lt__(self, other):
        Counted.calls += 1
        return self.value < other.value

    def __gt__(self, other):
        Counted.calls += 1
        return self.value > other.value


class TestLeastRotation:
    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_matches_brute_force(self, items):
        assert _least_rotation(items) == brute_least_rotation(items)
        assert _least_rotation(tuple(items)) == brute_least_rotation(tuple(items))

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=5), st.integers(1, 12))
    def test_periodic(self, period, k):
        items = tuple(period) * k
        assert _least_rotation(items) == brute_least_rotation(items)

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_all_equal(self, n):
        assert _least_rotation((5,) * n) == (5,) * n

    def test_empty_and_single(self):
        assert _least_rotation(()) == ()
        assert _least_rotation([]) == []
        assert _least_rotation((Letter(2, -1),)) == (Letter(2, -1),)

    @given(words(max_len=12))
    def test_letters(self, w):
        assert _least_rotation(w.letters) == brute_least_rotation(w.letters)

    @pytest.mark.parametrize("kind", ["all_equal", "period_2", "random"])
    def test_linear_comparison_count(self, kind):
        n = 10_000
        rng = random.Random(5)
        values = {
            "all_equal": [0] * n,
            "period_2": [0, 1] * (n // 2),
            "random": [rng.randrange(3) for _ in range(n)],
        }[kind]
        items = tuple(map(Counted, values))
        Counted.calls = 0
        result = _least_rotation(items)
        assert Counted.calls <= 6 * n
        # The result is a rotation of the very same items, least among all.
        start = next(i for i, x in enumerate(items) if x is result[0])
        assert result == items[start:] + items[:start]
        assert [x.value for x in result] == brute_least_rotation(values)


class TestCyclicReduceOracle:
    @given(words(n=2, max_len=12), words(n=2, max_len=6))
    def test_matches_loop(self, w, g):
        for word in (w, g * w * g.inverse()):
            core, conj = cyclic_reduce(word)
            assert (core.letters, conj.letters) == loop_cyclic_reduce(word)


def brute_is_rotation(x, y):
    """Oracle: y equals one of the rotations of x, tried one by one."""
    return x == y or any(y == x[i:] + x[:i] for i in range(len(x)))


class TestIsRotation:
    @given(st.lists(st.integers(0, 2), max_size=12), st.lists(st.integers(0, 2), max_size=12))
    def test_matches_brute_force(self, x, y):
        x, y = tuple(x), tuple(y)
        assert _is_rotation(x, y) == brute_is_rotation(x, y)
        assert _is_rotation(x, y[3:] + y[:3]) == brute_is_rotation(x, y)

    def test_periodic_words(self):
        x = reduce_word([(1, 1), (2, 1)] * 2000 + [(1, 2), (2, 1)], 2).letters
        y = reduce_word([(1, 1), (2, 1)] * 2000 + [(1, 1), (2, 2)], 2).letters
        assert not _is_rotation(x, y)
        assert _is_rotation(x, x[1001:] + x[:1001])
        assert not _is_rotation(x[:-1], x[1:])

    def test_empty_and_single(self):
        a, b = Letter(1, 2), Letter(1, -2)
        assert _is_rotation((), ())
        assert not _is_rotation((), (a,))
        assert not _is_rotation((a,), ())
        assert _is_rotation((a,), (a,))
        assert not _is_rotation((a,), (b,))

    def test_code_point_fallback(self, monkeypatch):
        # More distinct items than code points: compare least rotations.
        calls = []

        def counted(seq):
            calls.append(seq)
            return _least_rotation(seq)

        monkeypatch.setattr("goldmanab.words._CODE_POINTS", 2)
        monkeypatch.setattr("goldmanab.words._least_rotation", counted)
        assert _is_rotation((1, 2, 3), (3, 1, 2))
        assert not _is_rotation((1, 2, 3), (1, 3, 2))
        assert len(calls) == 4
        assert _is_rotation((1, 2, 1), (1, 1, 2))  # two distinct items: no fallback
        assert len(calls) == 4


class TestConjugacyOracle:
    @given(words(), words(), words(max_len=1))
    @settings(max_examples=300)
    def test_matches_canonical_forms(self, u, g, one):
        empty = Word.identity(u.n)
        pairs = [
            (u, g * u * g.inverse()),
            (one, g * one * g.inverse()),
            (u, g),
            (u, u.inverse()),
            (u, u * one),
            (u, empty),
            (empty, empty),
            (one, u),
        ]
        for a, b in pairs:
            assert are_conjugate(a, b) == (conjugacy_canonical(a) == conjugacy_canonical(b))


class TestConcatOracle:
    @given(words(), words(), st.integers(0, 8))
    @settings(max_examples=300)
    def test_matches_reduce_word(self, u, v, k):
        suffix = inverse(reduce_word(u.letters[max(0, len(u.letters) - k):], u.n))
        for right in (v, inverse(u), inverse(u) * v, suffix, suffix * v):
            assert concat(u, right).letters == reduce_word(u.letters + right.letters, u.n).letters


class TestGrammar:
    def test_empty_string(self):
        assert parse_word("", 3).is_identity()

    def test_round_trip(self):
        text = "a1 a2^-3 a1^2"
        assert format_word(parse_word(text, 2)) == text

    def test_malformed(self):
        for bad in ("b1", "a1^", "a", "a1^2^3", "a-1"):
            with pytest.raises(ValueError, match="malformed"):
                parse_word(bad, 3)

    def test_first_fault_in_token_order(self):
        long = "a1^" + "1" * 5000  # more digits than int() converts
        with pytest.raises(ValueError, match="malformed word token 'b1'"):
            parse_word("a1 b1 " + long, 3)
        with pytest.raises(ValueError, match="digits"):
            parse_word(long + " b1", 3)

    @given(words())
    def test_parse_format_round_trip(self, w):
        assert parse_word(format_word(w), w.n) == w

    @given(st.lists(st.tuples(
        st.one_of(
            st.builds(operator.add, st.sampled_from(("a", "")),
                      st.text(alphabet="a^-0123456789\u0661", max_size=5)),
            st.builds("a{}^{}".format, st.integers(0, 4), st.integers(-3, 3)),
        ),
        st.text(alphabet=" \t\n\x1c\xa0", min_size=1, max_size=2),
    ), max_size=6), st.text(alphabet=" \t\n\x1c\xa0", max_size=2))
    @settings(max_examples=500)
    def test_matches_token_oracle(self, pieces, lead):
        text = lead + "".join(token + sep for token, sep in pieces)
        assert outcome(parse_word, text) == outcome(token_parse_word, text)


def token_parse_word(text, n):
    """Oracle: each whitespace-separated token matched on its own."""
    raw = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"malformed word token {token!r}")
        raw.append((int(m.group(1)), int(m.group(2)) if m.group(2) is not None else 1))
    return reduce_word(raw, n)


def outcome(parse, text):
    """The word ``parse`` gives over three generators, or its ValueError message."""
    try:
        return parse(text, 3)
    except ValueError as exc:
        return str(exc)


class TestImmutability:
    def test_word_is_immutable(self):
        w = parse_word("a1", 1)
        with pytest.raises(AttributeError):
            w.n = 5

    def test_word_hashable(self):
        assert len({parse_word("a1 a2", 2), parse_word("a1 a2", 2)}) == 1

    def test_computed_word_is_immutable(self):
        w = parse_word("a1 a2", 2) * parse_word("a2^-1 a1", 2)
        with pytest.raises(AttributeError, match="Word is immutable"):
            w.letters = ()

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError, match="not reduced"):
            Word(2, [(1, 1), (1, 2)])
        with pytest.raises(ValueError, match="nonnegative"):
            reduce_word([], -1)

    def test_exponents_must_be_exact_integers(self):
        with pytest.raises(TypeError, match="exact integer"):
            Word(1, [(1, 1.5)])
        with pytest.raises(TypeError, match="exact integer"):
            reduce_word([(1, 1.5)], 1)
