"""Twist / loop-complementation calculus on set systems, the semidirect
group action and its orbits, multimatroid lifts, and ribbon-graph medial
constructions."""

from .errors import BudgetError, ConsistencyError, TwualityError, ValidationError
from .set_system import (
    DeltaMatroidWitness,
    SetSystem,
    dual_twist,
    is_delta_matroid,
    is_vf_safe,
    loop_complement,
    mask_of,
    members_of,
    twist,
)
from .twuality_group import (
    BAR,
    FLIPS,
    Flip,
    ONE,
    PLUS,
    PLUS_STAR,
    Perm,
    STAR,
    STAR_PLUS,
    TwualityElement,
    act,
    apply_flip,
    flip_mul,
    flip_pow,
    parse_flip,
    parse_perm,
    reduce_word,
    sd_identity,
    sd_inv,
    sd_mul,
    uniform_flip,
    vec_inv,
    vec_mul,
    vec_reindex,
)
from .orbit_engine import (
    OrbitReport,
    StabilizerHit,
    UniformizationResult,
    cycle_condition,
    normalize_rep,
    orbit,
    stabilizer_search,
    transport,
    uniformize,
)
from .multimatroid import (
    Carrier,
    Multimatroid,
    Projection,
    Restriction,
    TransversalTriple,
    extract,
    is_multimatroid,
    is_tight,
    lift,
    orbit_via_lift,
    restrict,
    triple_flip,
    triple_word,
)
from .ribbon import (
    FourRegularGraph,
    RibbonEdge,
    RibbonGraph,
    MedialLiftReport,
    all_black,
    all_white,
    boundary_components,
    delta_matroid_of,
    medial,
    spanning_quasi_trees,
    split_components,
    transition_matroid,
    verify_medial_lift,
)

__version__ = "0.1.0"
