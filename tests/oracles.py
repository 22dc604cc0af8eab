"""Reference computations that only the tests use.

`multiplier` is the global chain-rule multiplier over F_p(t), the reference
for the residue-side `orbits.residue_cycle_multiplier`; `log_distance_raw`
applies the defining formula of the logarithmic distance, min-terms
included, to arbitrary (non-normalized) coordinates, the reference for
`geometry.log_distance` on canonical points.
"""

from ffdyn.algebra import FpPoly
from ffdyn.dynamics import HomogMap, _chain_rule
from ffdyn.funcfield import INFINITE_VALUATION, Place, RatFunc, valuation
from ffdyn.geometry import ProjPoint


def multiplier(phi: HomogMap, P: ProjPoint, n: int) -> RatFunc:
    """Chain-rule derivative of the n-th iterate of phi along the orbit of P.

    Each orbit point is read in its own affine chart (the standard one, or
    1/x at the point at infinity), so the product is always defined; for P
    periodic of period dividing n this is the cycle multiplier.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return RatFunc(*_chain_rule(phi.nf, phi.ng, P.x, P.y, n,
                                FpPoly.one(phi.p), FpPoly.zero(phi.p)))


def log_distance_raw(x1: RatFunc, y1: RatFunc, x2: RatFunc, y2: RatFunc,
                     place: Place) -> int:
    """Logarithmic distance from arbitrary homogeneous coordinates.

    Accepts non-normalized rational-function coordinates and applies the
    defining formula with its min-terms; the result agrees with
    `log_distance` on the corresponding canonical points.
    """
    cross = x1 * y2 - x2 * y1
    if cross.is_zero():
        raise ValueError("coordinates describe equal (or degenerate) points")
    m1 = min(valuation(x1, place), valuation(y1, place))
    m2 = min(valuation(x2, place), valuation(y2, place))
    if m1 is INFINITE_VALUATION or m2 is INFINITE_VALUATION:
        raise ValueError("(0, 0) is not a projective point")
    return valuation(cross, place) - m1 - m2
