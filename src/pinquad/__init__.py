"""Exact cochain calculus with Steenrod cup_i products on ordered simplicial
complexes, quadratic functions on triangulated manifolds over Z/4, and the
abelian groups built from (w, p) cochain pairs, with a command line front
end and a fixture catalog of small manifolds.

The names below are re-exported from their submodules, each of which is
imported on the first use of one of its names (PEP 562), so that
``import pinquad`` and the command line load only what they use.
``pinquad.suspension`` is the submodule; the suspension of a complex is
``complexes.suspension``.
"""

import importlib

_EXPORTS = {
    "cochains": (
        "Cochain", "CohomologySolver", "INT", "PIN", "QMODZ", "SPIN", "Z2",
        "Z4", "cup", "cup_i", "d", "dual_cochain", "embed_z2_qmodz",
        "embed_z2_z4", "extend_by_zero", "integrate", "pullback", "sq",
        "wu_v2_check", "zero_cochain",
    ),
    "complexes": (
        "ComplexPair", "ManifoldPair", "OrderedComplex", "SimplicialMap",
        "absolute_pair", "barycentric_subdivide", "build_complex",
        "collapse_map", "cone", "cylinder", "disjoint_union",
        "identity_map", "validate_manifold",
    ),
    "fixtures": ("CATALOG_NAMES", "catalog", "raw_annulus_pair", "raw_mobius_pair"),
    "ggroups": (
        "GGroupStructure", "GPair", "g_identity", "g_inverse", "g_pair",
        "SpinProfile", "g_pin", "g_pin_bruteforce", "g_product", "g_pullback",
        "g_spin_profile", "linear_to_quad", "pin_to_spin", "qh_sh",
        "quad_to_linear",
    ),
    "quadratic": (
        "QuadraticFunction", "QuadValue", "act",
        "boundary_quadratic", "brown_gauss", "brown_invariants",
        "cylinder_extend", "cylinder_restrict", "disjoint_sum", "enumerate_quadratics",
        "eval_quadratic", "make_quadratic", "negate", "pushforward",
        "quadratic_from_prescribed", "restrict_codim0", "submanifold",
        "transfer_subdivision", "v1_witness", "verify_axioms",
    ),
    "suspension": ("boundary_transfer", "collapse_transfer", "desuspend", "suspend"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cochains", "complexes", "errors", "fixtures", "ggroups",
               "quadratic", "suspension", "textio")

__all__ = [*_MODULE_OF, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
