import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from goldmanab.chain import (
    QuotientWord,
    conjugate_in_quotient,
    kernel_element,
    project_word,
    separation_level,
    symmetric_residue,
    total_c_exponent,
)
from goldmanab.words import Letter, Word, are_conjugate, cyclic_reduce, parse_word, reduce_word

from conftest import words


def word(text, n=3):
    return parse_word(text, n)


class TestSymmetricResidue:
    def test_level_zero_kills_everything(self):
        assert all(symmetric_residue(e, 0) == 0 for e in range(-5, 6))

    def test_level_one(self):
        assert [symmetric_residue(e, 1) for e in (-2, -1, 0, 1, 2, 5)] == [0, 1, 0, 1, 0, 1]

    def test_boundary_value_kept(self):
        # +2^(level-1) stays, its negative folds up to +2^(level-1).
        assert symmetric_residue(4, 3) == 4
        assert symmetric_residue(-4, 3) == 4

    def test_range(self):
        for level in range(1, 6):
            half = 1 << (level - 1)
            for e in range(-40, 40):
                r = symmetric_residue(e, level)
                assert -half < r <= half
                assert (r - e) % (1 << level) == 0


class TestProjection:
    def test_residue_reduction(self):
        assert str(project_word(word("a1^5"), 1, 1).to_word()) == "a1"

    def test_power_of_two_wrap_dies(self):
        for level in (0, 1, 3, 6):
            w = reduce_word([(1, 1 << level)], 3)
            assert project_word(w, level, 1).is_identity()

    def test_kept_residue_inside_conjugation(self):
        out = project_word(word("a2 a1^6 a2^-1"), 2, 1)
        assert str(out.to_word()) == "a2 a1^2 a2^-1"

    def test_level_zero_erases_c(self):
        assert str(project_word(word("a2 a1^3 a3 a1"), 0, 1).to_word()) == "a2 a3"

    def test_cascade_after_residue(self):
        # c^2 between inverse words collapses entirely at level 1.
        w = word("a2 a3 a1^2 a3^-1 a2^-1")
        assert project_word(w, 1, 1).is_identity()

    def test_huge_exponents(self):
        w = reduce_word([(1, 2**64)], 2)
        assert project_word(w, 64, 1).is_identity()
        assert project_word(w, 65, 1).to_word() == reduce_word([(1, 2**64)], 2)

    def test_invalid_c(self):
        with pytest.raises(ValueError, match="out of range"):
            project_word(word("a1"), 1, 5)

    @given(words(3, max_len=6, max_exp=6), words(3, max_len=6, max_exp=6))
    @settings(max_examples=300)
    def test_homomorphism(self, u, v):
        for level in (0, 1, 2, 4):
            lhs = project_word(u * v, level, 1)
            rhs = project_word(u, level, 1) * project_word(v, level, 1)
            assert lhs == rhs

    @given(words(3, max_len=6, max_exp=6))
    @settings(max_examples=300)
    def test_projection_factors_through_finer_level(self, w):
        for level in (0, 1, 3):
            direct = project_word(w, level, 1)
            via_finer = project_word(project_word(w, level + 1, 1).to_word(), level, 1)
            assert direct == via_finer


class TestGroupOperations:
    def test_involution_at_level_one(self):
        c = project_word(word("a1"), 1, 1)
        assert (c * c).is_identity()

    def test_merge_across_product(self):
        x = project_word(word("a2 a1"), 1, 1)
        y = project_word(word("a1 a2"), 1, 1)
        assert str((x * y).to_word()) == "a2^2"

    def test_inverse_uses_residues(self):
        x = project_word(word("a2 a1"), 1, 1)
        assert str(x.inverse().to_word()) == "a1 a2^-1"

    def test_inverse_cancels(self):
        rng = random.Random(4)
        for _ in range(200):
            raw = [(rng.randint(1, 3), rng.randint(-6, 6)) for _ in range(rng.randint(0, 6))]
            x = project_word(reduce_word(raw, 3), rng.randint(0, 4), 1)
            assert (x * x.inverse()).is_identity()

    def test_level_mismatch(self):
        with pytest.raises(ValueError, match="level mismatch"):
            project_word(word("a1"), 1, 1) * project_word(word("a1"), 2, 1)

    def test_normal_form_validation(self):
        with pytest.raises(ValueError, match="residue range"):
            QuotientWord(1, 1, 2, [(1, 2)])


class TestConjugacy:
    def test_identity_cases(self):
        e = QuotientWord.identity(1, 1, 2)
        assert conjugate_in_quotient(project_word(reduce_word([(1, 2)], 2), 1, 1), e)

    def test_wrap_survives_one_level_up(self):
        for level in range(5):
            wrap = reduce_word([(1, 1 << level)], 2)
            above = project_word(wrap, level + 1, 1)
            e = QuotientWord.identity(level + 1, 1, 2)
            assert not conjugate_in_quotient(above, e)

    def test_explicit_conjugator(self):
        x = project_word(word("a2 a1 a2^-1"), 1, 1)
        y = project_word(word("a1"), 1, 1)
        assert conjugate_in_quotient(x, y)

    def test_free_factor_elements_use_free_conjugacy(self):
        x = project_word(word("a2 a3"), 2, 1)
        y = project_word(word("a3 a2"), 2, 1)
        z = project_word(word("a3 a2^-1"), 2, 1)
        assert conjugate_in_quotient(x, y)
        assert not conjugate_in_quotient(x, z)

    def test_c_powers_conjugate_iff_equal_residue(self):
        a = project_word(reduce_word([(1, 3)], 2), 3, 1)
        b = project_word(reduce_word([(1, 11)], 2), 3, 1)
        c = project_word(reduce_word([(1, 5)], 2), 3, 1)
        assert conjugate_in_quotient(a, b)  # 11 = 3 mod 8
        assert not conjugate_in_quotient(a, c)

    def test_mixed_vs_single_factor(self):
        mixed = project_word(word("a1 a2"), 2, 1)
        pure = project_word(word("a2"), 2, 1)
        assert not conjugate_in_quotient(mixed, pure)

    def test_syllable_rotation(self):
        x = project_word(word("a1 a2 a1 a3"), 2, 1)
        y = project_word(word("a1 a3 a1 a2"), 2, 1)
        assert conjugate_in_quotient(x, y)

    def test_respects_quotient_relation(self):
        # Words conjugate only after killing c^(2^level).
        x = project_word(word("a2 a1^4 a3"), 2, 1)
        y = project_word(word("a3 a2"), 2, 1)
        assert conjugate_in_quotient(x, y)

    def test_equivalence_on_random_conjugates(self):
        rng = random.Random(8)
        for _ in range(300):
            level = rng.randint(0, 4)
            raw = lambda: reduce_word(
                [(rng.randint(1, 3), rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))], 3
            )
            x = project_word(raw(), level, 1)
            g = project_word(raw(), level, 1)
            assert conjugate_in_quotient(x, g * x * g.inverse())


def loop_project_word(w, level, c):
    """Oracle: every letter through residue reduction and the merge stack."""
    stack = []
    for gen, exp in w.letters:
        if gen == c:
            exp = symmetric_residue(exp, level)
        if stack and stack[-1][0] == gen:
            gen, prev = stack.pop()
            exp += prev
            if gen == c:
                exp = symmetric_residue(exp, level)
        if exp:
            stack.append((gen, exp))
    return tuple(stack)


def scan_conjugate_in_quotient(x, y):
    """Oracle: syllable cycles compared by trying every rotation."""

    def cycle(q):
        syl, block = [], []
        for gen, exp in q.letters:
            if gen == q.c:
                syl += [tuple(block)] if block else []
                syl.append(exp)
                block = []
            else:
                block.append(Letter(gen, exp))
        syl += [tuple(block)] if block else []
        while len(syl) >= 2 and isinstance(syl[0], int) == isinstance(syl[-1], int):
            if isinstance(syl[0], int):
                merged = symmetric_residue(syl[-1] + syl[0], q.level) or None
            else:
                merged = reduce_word(syl[-1] + syl[0], q.alphabet).letters or None
            syl = syl[1:-1] if merged is None else [merged] + syl[1:-1]
        return syl

    sx, sy = cycle(x), cycle(y)
    if len(sx) <= 1 or len(sy) <= 1:
        if len(sx) != len(sy):
            return False
        if not sx:
            return True
        if isinstance(sx[0], int) or isinstance(sy[0], int):
            return sx[0] == sy[0]
        return are_conjugate(Word(x.alphabet, sx[0]), Word(y.alphabet, sy[0]))
    return len(sx) == len(sy) and any(sy == sx[i:] + sx[:i] for i in range(len(sx)))


def loop_separation_level(a, b, c, n_max):
    """Oracle: every level from 0 up, until the projections are not conjugate."""
    for level in range(n_max + 1):
        if not conjugate_in_quotient(project_word(a, level, c), project_word(b, level, c)):
            return level
    return None


def budget_level(a, b, c):
    """The least level S with 2^(S-1) above both words' total c-exponent."""
    budget = total_c_exponent(a, c) + total_c_exponent(b, c)
    return budget.bit_length() + 1 if budget else 0


def core_bound(a, b, c):
    """The proved bound T: one bit past the largest c-exponent of the cyclic cores."""
    m = max((abs(exp) for w in (a, b) for gen, exp in cyclic_reduce(w)[0].letters if gen == c),
            default=0)
    return m.bit_length() + 1 if m else 0


def stack_push(stack, letters, level, c):
    """Oracle: push letters onto a normal form, merging and reducing at the top."""
    for gen, exp in letters:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if gen == c:
            exp = symmetric_residue(exp, level)
        if exp:
            stack.append((gen, exp))
    return tuple(stack)


def stack_product(x, y):
    return stack_push(list(x.letters), y.letters, x.level, x.c)


def stack_inverse(x):
    return stack_push([], [(gen, -exp) for gen, exp in reversed(x.letters)], x.level, x.c)


def power_words(max_len):
    """Words whose exponents are ±2^k (k <= 8) or next to one.

    At levels 0..9 they straddle every residue boundary ±2^(level-1).
    """
    exp = st.builds(
        lambda k, d, sign: sign * ((1 << k) + d),
        st.integers(0, 8), st.integers(-1, 1), st.sampled_from((1, -1)),
    )
    raw = st.lists(st.tuples(st.integers(1, 3), exp), max_size=max_len)
    return raw.map(lambda r: reduce_word(r, 3))


def chain_words(max_len, max_exp):
    return st.one_of(words(3, max_len=max_len, max_exp=max_exp), power_words(max_len))


class TestAgainstLoopOracles:
    @given(chain_words(10, 9), st.integers(1, 3), st.integers(0, 9))
    @settings(max_examples=300)
    def test_project_word(self, w, c, level):
        assert project_word(w, level, c).letters == loop_project_word(w, level, c)

    @given(chain_words(10, 6), chain_words(6, 6), chain_words(10, 6), st.integers(0, 9))
    @settings(max_examples=300)
    def test_conjugate_in_quotient(self, w, g, v, level):
        x = project_word(w, level, 1)
        for other in (g * w * g.inverse(), v, w * g, g * w):
            y = project_word(other, level, 1)
            assert conjugate_in_quotient(x, y) == scan_conjugate_in_quotient(x, y)

    @given(
        chain_words(8, 9), chain_words(8, 9), st.data(),
        st.integers(0, 5), st.lists(chain_words(3, 4), min_size=1, max_size=2),
    )
    @settings(max_examples=300)
    def test_separation_level(self, w, v, data, level, xs):
        # A pair that agrees up to ``level`` (w against w times a kernel
        # element) and a random pair.
        kern = kernel_element(level, [level + i for i in range(len(xs))], xs, v, 1)
        for a, b in ((w, w * kern), (w, v)):
            assume(not are_conjugate(a, b))
            top = budget_level(a, b, 1)
            for n_max in (-1, 0, top - 1, top, top + 1, data.draw(st.integers(-1, top + 3))):
                assert separation_level(a, b, 1, n_max) == loop_separation_level(a, b, 1, n_max)
            assert separation_level(a, b, 1, 10**18) == separation_level(a, b, 1, top) is not None

    @given(power_words(8), power_words(8), st.integers(1, 3), st.integers(0, 9))
    @settings(max_examples=300)
    def test_product_and_inverse(self, u, v, c, level):
        x, y = project_word(u, level, c), project_word(v, level, c)
        assert (x * y).letters == stack_product(x, y)
        assert x.inverse().letters == stack_inverse(x)

    @pytest.mark.parametrize("level", range(10))
    def test_product_and_inverse_at_the_residue_boundary(self, level):
        h = max(1 << level >> 1, 1)  # 2^(level-1), the kept boundary residue
        raws = [[(1, s * h)] for s in (1, -1)]
        raws += [[(1, s * h), (2, 1), (1, t * h)] for s in (1, -1) for t in (1, -1)]
        raws += [[(2, -1), (1, s * h), (3, 2)] for s in (1, -1)]
        qs = [project_word(reduce_word(raw, 3), level, 1) for raw in raws]
        for x in qs:
            assert x.inverse().letters == stack_inverse(x)
            for y in qs + [x.inverse()]:
                assert (x * y).letters == stack_product(x, y)

    @given(
        chain_words(8, 9), chain_words(8, 9), st.integers(0, 5),
        st.lists(chain_words(3, 4), min_size=1, max_size=2),
    )
    @settings(max_examples=300)
    def test_separation_within_the_core_bound(self, w, v, level, xs):
        kern = kernel_element(level, [level + i for i in range(len(xs))], xs, v, 1)
        # w against its mirror, c-exponents negated, often separates exactly at T.
        mirror = Word(3, [(gen, -exp if gen == 1 else exp) for gen, exp in w.letters])
        for a, b in ((w, w * kern), (w, v), (w, mirror)):
            if are_conjugate(a, b):
                continue
            top = core_bound(a, b, 1)
            assert top <= budget_level(a, b, 1)
            found = separation_level(a, b, 1, top)
            assert found is not None
            assert found == loop_separation_level(a, b, 1, budget_level(a, b, 1))

    def test_long_conjugates(self):
        rng = random.Random(11)
        raw = [(rng.randint(1, 3), rng.choice((-3, -1, 1, 2, 4))) for _ in range(3000)]
        w, g = reduce_word(raw, 3), reduce_word(raw[:40], 3)
        for level in range(7):
            x, y = project_word(w, level, 1), project_word(g * w * g.inverse(), level, 1)
            assert conjugate_in_quotient(x, y) and scan_conjugate_in_quotient(x, y)


class TestKernelElement:
    def test_level_zero_commutator(self):
        out = kernel_element(0, [0], [word("a2")], Word.identity(3), 1)
        assert str(out) == "a1 a2 a1^-1 a2^-1"
        assert project_word(out, 0, 1).is_identity()

    def test_level_one_conjugated(self):
        out = kernel_element(1, [1], [word("a2")], word("a3"), 1)
        assert str(out) == "a3 a1^2 a2 a1^-2 a2^-1 a3^-1"
        assert project_word(out, 1, 1).is_identity()

    def test_empty_product_forbidden(self):
        with pytest.raises(ValueError, match="at least one"):
            kernel_element(0, [], [], Word.identity(3), 1)

    def test_exponent_below_level_forbidden(self):
        with pytest.raises(ValueError, match="exponent must be >= 3, got 2"):
            kernel_element(3, [2], [word("a2")], Word.identity(3), 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equally many"):
            kernel_element(0, [1, 2], [word("a2")], Word.identity(3), 1)

    def test_random_draws_project_to_identity(self):
        rng = random.Random(17)
        for _ in range(200):
            level = rng.randint(0, 5)
            k = rng.randint(1, 3)
            exps = [rng.randint(level, level + 4) for _ in range(k)]
            xs = [
                reduce_word(
                    [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))], 3
                )
                for _ in range(k)
            ]
            g = reduce_word(
                [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))], 3
            )
            out = kernel_element(level, exps, xs, g, 1)
            assert project_word(out, level, 1).is_identity()


class TestSeparation:
    def test_wrap_separates_one_level_past_its_exponent(self):
        for k in range(5):
            a = reduce_word([(1, 1 << k)], 2)
            assert separation_level(a, Word.identity(2), 1, 10) == k + 1

    def test_no_c_words_separate_at_zero(self):
        assert separation_level(word("a2"), word("a2^-1"), 1, 5) == 0

    def test_conjugate_inputs_rejected(self):
        with pytest.raises(ValueError, match="conjugate"):
            separation_level(word("a1 a2"), word("a2 a1"), 1, 5)

    def test_not_separated_within_small_budget(self):
        a = reduce_word([(1, 8)], 2)
        assert separation_level(a, Word.identity(2), 1, 2) is None

    def test_bound_from_the_cyclic_cores(self):
        # The cores merge the end runs a1^3 and a1^5 into a1^8, so T = 5;
        # the words' own largest exponent, 5, would give 4.
        a = word("a1^3 a2 a1^5")
        assert core_bound(a, word("a2 a1^-8"), 1) == 5
        assert separation_level(a, word("a2 a1^-8"), 1, 99) == 5
        assert separation_level(a, word("a2 a1^-8"), 1, 4) is None
        assert separation_level(a, word("a1^-3 a2 a1^-5"), 1, 99) == 5
        assert separation_level(a, word("a1^-3 a2 a1^-5"), 1, 4) is None

    def test_bound_attained_by_single_c_letters(self):
        # a1 and a1^-1 agree mod 2 and differ mod 4: T = 2 separates.
        assert separation_level(word("a1 a2"), word("a1^-1 a2"), 1, 99) == 2
        assert separation_level(word("a1 a2"), word("a1^-1 a2"), 1, 1) is None

    def test_total_c_exponent(self):
        assert total_c_exponent(word("a1^3 a2 a1^-2"), 1) == 5
        assert total_c_exponent(word("a2"), 1) == 0

    def test_bound_from_c_budget(self):
        rng = random.Random(23)
        done = 0
        while done < 150:
            raw = lambda: reduce_word(
                [(rng.randint(1, 3), rng.randint(-6, 6)) for _ in range(rng.randint(0, 5))], 3
            )
            a, b = raw(), raw()
            budget = total_c_exponent(a, 1) + total_c_exponent(b, 1)
            if budget > 32 or are_conjugate(a, b):
                continue
            done += 1
            bound = 0
            while (1 << bound) <= 2 * budget:
                bound += 1
            assert separation_level(a, b, 1, bound) is not None


class TestLevelSize:
    """Arithmetic at a level far above the words' exponents costs nothing extra."""

    HUGE = 10**12  # 2^HUGE would take about 125 GB as one int

    def test_projection_memory_does_not_grow_with_the_level(self):
        w = word("a1^3 a2 a1^-5")
        tracemalloc.start()
        try:
            image = project_word(w, 10**8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert image.letters == w.letters
        assert peak < 1 << 20

    def test_huge_level_keeps_the_letters(self):
        w = word("a1^3 a2 a1^-5 a3")
        x = project_word(w, self.HUGE, 1)
        assert x.letters == w.letters
        assert symmetric_residue(-7, self.HUGE) == -7
        assert QuotientWord(self.HUGE, 1, 3, w.letters) == x
        assert (x * x).letters == (w * w).letters
        assert x.inverse().letters == w.inverse().letters
        y = project_word(word("a3 a1^3 a2 a1^-5"), self.HUGE, 1)
        assert conjugate_in_quotient(x, y)
        assert not conjugate_in_quotient(x, project_word(word("a1^3 a2 a1^-4 a3"), self.HUGE, 1))


class TestSeparationSweepScript:
    def test_small_sweep_holds_both_bounds(self):
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "separation_sweep.py"
        proc = subprocess.run([sys.executable, str(script), "--seed", "7", "--pairs", "300"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("300 non-conjugate pairs")
        assert "BOUND VIOLATED" not in proc.stdout
