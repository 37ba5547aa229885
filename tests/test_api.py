"""The public classes and functions that each goldmanab module defines.

Adding, renaming or removing one changes this list, so every change to the
public surface shows up here as a reviewed diff.
"""

import importlib
import inspect
import pkgutil

import goldmanab

PUBLIC = {
    "abelian": ["ModuleElement", "Monomial", "abelianize", "exponent_vector",
                "generator_exponent_sum"],
    "bracket": ["bracket", "bracket_monomials"],
    "chain": ["QuotientWord", "conjugate_in_quotient", "kernel_element", "project_word",
              "separation_level", "symmetric_residue", "total_c_exponent"],
    "cli": ["build_parser", "main"],
    "int_ideals": ["CheckReport", "GcdSubmodule", "GeometricSubmodule", "TableSubmodule",
                   "bracket_closure_check", "divides", "gcd_divisibility_check",
                   "gcd_submodule_family"],
    "rat_ideals": ["CentralDecomposition", "Part", "PrimitiveLabel", "RationalIdeal",
                   "closed_surface_classification_check", "decompose_by_center",
                   "ideal_closure", "ideal_contains", "label_bracket_identity_holds",
                   "verify_bracket_closure"],
    "sampling": ["random_central_monomial", "random_chain_word", "random_element",
                 "random_fraction", "random_label", "random_monomial",
                 "random_noncentral_monomial", "random_nonzero_int", "random_word"],
    "selftest": ["Property", "run_selftest"],
    "symplectic": ["SurfaceSignature", "center_generators", "intersection_pairing",
                   "is_central", "pairing_vector", "symplectic_product"],
    "words": ["CyclicWord", "Letter", "Word", "are_conjugate", "concat", "conjugacy_canonical",
              "cyclic_reduce", "format_word", "inverse", "parse_word", "reduce_word"],
}


def test_public_names_of_each_module():
    defined = {}
    for info in pkgutil.iter_modules(goldmanab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"goldmanab.{info.name}")
        defined[info.name] = sorted(
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__
        )
    assert defined == PUBLIC
