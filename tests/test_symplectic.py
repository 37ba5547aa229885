import tracemalloc

import pytest
from hypothesis import given

from goldmanab.abelian import Monomial
from goldmanab.symplectic import (
    MAX_RANK,
    SurfaceSignature,
    center_generators,
    intersection_pairing,
    is_central,
    pairing_vector,
    symplectic_product,
)
from goldmanab.words import parse_word

from conftest import monomials, signatures, words


class TestSignature:
    def test_rank(self):
        assert SurfaceSignature.closed(2).n == 4
        assert SurfaceSignature.with_boundary(1, 2).n == 3
        assert SurfaceSignature.with_boundary(0, 2).n == 1
        assert SurfaceSignature.with_boundary(0, MAX_RANK + 1).n == MAX_RANK

    def test_closed_needs_genus(self):
        with pytest.raises(ValueError):
            SurfaceSignature.closed(0)

    def test_disk_excluded(self):
        with pytest.raises(ValueError):
            SurfaceSignature.with_boundary(0, 1)

    def test_boundary_count_positive(self):
        with pytest.raises(ValueError):
            SurfaceSignature.with_boundary(1, 0)

    @pytest.mark.parametrize("genus, boundary", [(1.5, 1), (1, 1.0), (2.0, 0)])
    def test_non_integer_counts_refused(self, genus, boundary):
        with pytest.raises(TypeError, match="not an exact integer"):
            SurfaceSignature(genus, boundary)

    @pytest.mark.parametrize("genus, boundary, n", [
        (0, MAX_RANK + 2, MAX_RANK + 1), (99_999_999_999, 0, 199_999_999_998)])
    def test_rank_over_the_cap(self, genus, boundary, n):
        with pytest.raises(ValueError, match=f"rank n = {n} exceeds MAX_RANK = {MAX_RANK}"):
            SurfaceSignature(genus, boundary)


class TestSymplecticProduct:
    def test_generator_pair(self):
        sig = SurfaceSignature.closed(1)
        assert symplectic_product(sig, Monomial((1, 0)), Monomial((0, 1))) == 1

    def test_self_pairing_zero(self):
        sig = SurfaceSignature.closed(1)
        x = Monomial((3, -4))
        assert symplectic_product(sig, x, x) == 0

    def test_by_hand_expansion(self):
        sig = SurfaceSignature.closed(1)
        assert symplectic_product(sig, Monomial((2, 1)), Monomial((1, 3))) == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            symplectic_product(SurfaceSignature.closed(1), Monomial((1,)), Monomial((0, 1)))

    @given(signatures().flatmap(lambda s: monomials(s.n).flatmap(
        lambda x: monomials(s.n).map(lambda y: (s, x, y)))))
    def test_antisymmetry(self, data):
        sig, x, y = data
        assert symplectic_product(sig, x, y) == -symplectic_product(sig, y, x)

    @given(signatures().flatmap(lambda s: monomials(s.n).flatmap(
        lambda x: monomials(s.n).map(lambda y: (s, x, y)))))
    def test_matrix_route_agrees(self, data):
        sig, x, y = data
        assert symplectic_product(sig, x, y) == sum(
            b * m for b, m in zip(y, pairing_vector(sig, x))
        )

    @given(signatures().flatmap(lambda s: monomials(s.n).flatmap(
        lambda x: monomials(s.n).flatmap(
            lambda x2: monomials(s.n).map(lambda y: (s, x, x2, y))))))
    def test_biadditive(self, data):
        sig, x, x2, y = data
        assert symplectic_product(sig, x * x2, y) == symplectic_product(
            sig, x, y
        ) + symplectic_product(sig, x2, y)


class TestPairingVector:
    def test_torus_rotation(self):
        sig = SurfaceSignature.closed(1)
        assert pairing_vector(sig, Monomial((2, 1))) == (-1, 2)

    def test_zero(self):
        sig = SurfaceSignature.closed(2)
        assert pairing_vector(sig, Monomial.identity(4)) == (0, 0, 0, 0)

    def test_boundary_generator_silent(self):
        sig = SurfaceSignature.with_boundary(1, 2)
        assert pairing_vector(sig, Monomial((0, 0, 5))) == (0, 0, 0)

    @pytest.mark.parametrize("sig, vectors", [
        (SurfaceSignature.closed(1), [(0, 1), (-1, 0)]),
        (SurfaceSignature.with_boundary(0, 2), [(0,)]),
        (SurfaceSignature.with_boundary(1, 2), [(0, 1, 0), (-1, 0, 0), (0, 0, 0)]),
        (SurfaceSignature.closed(2), [(0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)]),
    ], ids=["torus", "genus0_b2", "genus1_b2", "closed2"])
    def test_unit_generators(self, sig, vectors):
        # pairing_vector(a_i)[j - 1] = <a_i, a_j>: +1 from a_2t-1 to a_2t, -1 back.
        units = [Monomial.unit(sig.n, i) for i in range(1, sig.n + 1)]
        assert [pairing_vector(sig, a) for a in units] == vectors


class TestCenter:
    def test_closed_center_trivial(self):
        assert list(center_generators(SurfaceSignature.closed(2))) == []

    def test_boundary_generators(self):
        gens = center_generators(SurfaceSignature.with_boundary(1, 3))
        assert list(gens) == [3, 4]

    def test_generators_cost_no_memory_per_boundary_component(self):
        sig = SurfaceSignature.with_boundary(1, 3000)
        tracemalloc.start()
        try:
            gens = center_generators(sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(gens) == 2999
        assert peak < 1 << 20

    def test_membership(self):
        sig = SurfaceSignature.with_boundary(1, 2)
        assert is_central(sig, Monomial((0, 0, 7)))
        assert not is_central(sig, Monomial((1, 0, 0)))

    @given(signatures().flatmap(lambda s: monomials(s.n).map(lambda x: (s, x))))
    def test_central_iff_pairing_vector_vanishes(self, data):
        sig, x = data
        by_vector = not any(pairing_vector(sig, x))
        by_units = all(
            symplectic_product(sig, x, Monomial.unit(sig.n, j)) == 0
            for j in range(1, sig.n + 1)
        )
        assert is_central(sig, x) == by_vector == by_units


class TestIntersectionPairing:
    def test_generator_loops(self):
        sig = SurfaceSignature.closed(1)
        assert intersection_pairing(sig, parse_word("a1", 2), parse_word("a2", 2)) == 1

    def test_self_intersection_number_zero(self):
        sig = SurfaceSignature.closed(1)
        w = parse_word("a1^2 a2^-1", 2)
        assert intersection_pairing(sig, w, w) == 0

    def test_worked_example(self):
        sig = SurfaceSignature.closed(1)
        assert intersection_pairing(
            sig, parse_word("a1^2 a2", 2), parse_word("a1 a2^3", 2)
        ) == 5

    @given(words(2), words(2), words(2), words(2))
    def test_splitting_decomposition(self, u1, u2, v1, v2):
        sig = SurfaceSignature.closed(1)
        assert intersection_pairing(sig, u1 * u2, v1 * v2) == sum(
            intersection_pairing(sig, a, b) for a in (u1, u2) for b in (v1, v2)
        )
