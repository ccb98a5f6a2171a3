"""Exact cochain calculus with Steenrod cup_i products on ordered simplicial
complexes, quadratic functions on triangulated manifolds over Z/4, and the
abelian groups built from (w, p) cochain pairs, with a command line front
end and a fixture catalog of small manifolds."""

from .cochains import (
    Cochain,
    CohomologySolver,
    INT,
    QMODZ,
    Z2,
    Z4,
    cup,
    cup_i,
    d,
    dual_cochain,
    embed_z2_qmodz,
    embed_z2_z4,
    extend_by_zero,
    integrate,
    pullback,
    sq,
    wu_v2_check,
    zero_cochain,
)
from .complexes import (
    ComplexPair,
    ManifoldPair,
    OrderedComplex,
    SimplicialMap,
    absolute_pair,
    barycentric_subdivide,
    build_complex,
    collapse_map,
    cone,
    cylinder,
    diagnose_manifold,
    disjoint_union,
    identity_map,
    suspension,
    validate_manifold,
)
from .fixtures import CATALOG_NAMES, catalog, raw_annulus_pair, raw_mobius_pair
from .ggroups import (
    GGroupStructure,
    GPair,
    g_identity,
    g_inverse,
    g_pair,
    g_pin,
    g_pin_bruteforce,
    g_product,
    g_pullback,
    g_spin_profile,
    linear_to_quad,
    pin_to_spin,
    qh_sh,
    quad_to_linear,
)
from .quadratic import (
    PIN,
    QuadraticFunction,
    QuadValue,
    SPIN,
    act,
    boundary_quadratic,
    brown_gauss,
    cylinder_extend,
    cylinder_restrict,
    disjoint_sum,
    enumerate_quadratics,
    eval_quadratic,
    make_quadratic,
    negate,
    pushforward,
    quadratic_from_prescribed,
    restrict_codim0,
    submanifold,
    transfer_subdivision,
    v1_witness,
    verify_axioms,
)
from .suspension import (
    SuspensionContext,
    boundary_transfer,
    collapse_transfer,
    cone_context,
    desuspend,
    suspend,
    suspension_context,
)

__version__ = "0.1.0"
