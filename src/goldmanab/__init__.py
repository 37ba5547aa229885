"""Exact arithmetic for the abelianized Goldman Lie algebra of a surface.

Words in the fundamental group, the abelianization onto exponent vectors,
the symplectic Lie bracket, integer and rational ideal machinery, and the
chain of quotients by powers of a distinguished generator.
"""

from .abelian import (
    ModuleElement,
    Monomial,
    abelianize,
    exponent_vector,
    generator_exponent_sum,
)
from .bracket import bracket, bracket_monomials
from .chain import (
    QuotientWord,
    conjugate_in_quotient,
    kernel_element,
    project_word,
    separation_level,
    symmetric_residue,
)
from .int_ideals import (
    GcdSubmodule,
    TableSubmodule,
    bracket_closure_check,
    gcd_divisibility_check,
    gcd_submodule_family,
)
from .rat_ideals import (
    CentralDecomposition,
    PrimitiveLabel,
    RationalIdeal,
    decompose_by_center,
    ideal_closure,
    ideal_contains,
    label_bracket_identity_holds,
)
from .symplectic import (
    PairingMatrix,
    SurfaceSignature,
    center_generators,
    intersection_pairing,
    is_central,
    pairing_vector,
    symplectic_product,
)
from .words import (
    CyclicWord,
    Letter,
    Word,
    are_conjugate,
    concat,
    conjugacy_canonical,
    cyclic_reduce,
    format_word,
    inverse,
    parse_word,
    reduce_word,
)

__version__ = "0.1.0"
