"""Exact arithmetic dynamics on the projective line over F_p(t).

The package provides exact arithmetic in F_p[t] and its residue fields
(:mod:`ffdyn.algebra`), the function field with its places and valuations
(:mod:`ffdyn.funcfield`), canonical projective points and the logarithmic
distance (:mod:`ffdyn.geometry`), endomorphisms of P^1 with resultant-based
good-reduction analysis (:mod:`ffdyn.dynamics`), orbit machinery and
structural checkers (:mod:`ffdyn.orbits`), and seeded verification
campaigns with a CLI (:mod:`ffdyn.harness`, :mod:`ffdyn.cli`).
"""

from .algebra import (
    FpPoly,
    ResidueElem,
    enumerate_monic_irreducibles,
    factor,
    is_irreducible,
    mult_order,
)
from .dynamics import HomogMap, ResidueMap, parse_map, sylvester_resultant
from .funcfield import (
    INFINITE_VALUATION,
    Place,
    RatFunc,
    eta_bound,
    valuation,
)
from .geometry import (
    ProjPoint,
    ResiduePoint,
    distance_poly,
    enumerate_points,
    log_distance,
    reduce_point,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    MapGenSpec,
    emit_report,
    gen_maps,
    orbit_bound,
    period_bound,
    run_bound_campaign,
    run_property_campaign,
)
from .orbits import (
    FunctionalGraph,
    MstDecomposition,
    OrbitReport,
    OrbitStatus,
    check_lemma_equal_distances,
    check_lemma_pab,
    check_prop_51,
    check_prop_52,
    check_prop_61,
    find_periodic_points,
    finite_orbits,
    iterate_orbit,
    residue_dynamics,
    verify_mst,
)

__version__ = "0.1.0"
