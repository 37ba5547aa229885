import copy
import pickle
from fractions import Fraction

import pytest

from goldmanab.abelian import ModuleElement, Monomial
from goldmanab.chain import project_word
from goldmanab.int_ideals import GcdSubmodule, TableSubmodule
from goldmanab.rat_ideals import PrimitiveLabel, RationalIdeal
from goldmanab.symplectic import SurfaceSignature
from goldmanab.words import conjugacy_canonical, parse_word

SIG = SurfaceSignature.with_boundary(1, 2)


def _values():
    w = parse_word("a1^2 a2 a3^-1 a1", 3)
    u = ModuleElement("Q", [(Monomial((1, 0, 2)), Fraction(3, 2)), (Monomial((0, 0, 1)), Fraction(1))])
    label = PrimitiveLabel.from_pairs(SIG, [(Monomial((0, 0, 0)), Fraction(2)), (Monomial((0, 0, 1)), Fraction(5))])
    return [
        w,
        conjugacy_canonical(w),
        project_word(w, 2, 1),
        u,
        label,
        RationalIdeal([label], [ModuleElement("Q", [(Monomial((0, 0, 3)), Fraction(1, 3))])]),
        GcdSubmodule(2, [(1, 0), (2, 2)]),
        SurfaceSignature.with_boundary(1, 2),
        TableSubmodule(2, 1, {(1, -1): 3}),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
class TestRoundTrip:
    def test_copy(self, value):
        assert copy.copy(value) == value

    def test_deepcopy(self, value):
        assert copy.deepcopy(value) == value

    def test_pickle(self, value):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
        assert hash(back) == hash(value)

    def test_copy_stays_immutable(self, value):
        with pytest.raises(AttributeError, match="immutable"):
            copy.copy(value).anything = 1
