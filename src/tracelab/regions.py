"""The theorem catalog: one record per claim, with its parameter region.

Each region predicate implements its quoted condition set verbatim,
boundaries included exactly as stated.  The paper states most regions
together with their counterpart for negative exponents, the image of the
conditions for positive exponents under (p, q, s) -> (-p, -q, -s): "-1<=p,q<=0
and 1/(p+q)<=s<=-1/2" is the image of "0<=p,q<=1 and 1/2<=s<=1/(p+q)".
``_mirrored`` adds that counterpart, so each predicate states one half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .families import ParameterPoint


@dataclass(frozen=True)
class Theorem:
    """One cataloged claim: its direction, its region predicate on (p, q, s),
    and the functional verify tests: a family (lieb, mean or epstein; None
    where there is none), its default mean, norm and anti-norm flags, and
    whether Phi must be completely positive."""

    direction: str
    family: str | None
    region: Callable[[float, float, float], bool]
    description: str
    mean: str | None = None
    norm: str | None = None
    antinorm: str | None = None
    cp_required: bool = False


def _mirrored(half):
    """The region stated by half, together with its counterpart for negative
    exponents: half(p, q, s) or half(-p, -q, -s)."""
    return lambda p, q, s: half(p, q, s) or half(-p, -q, -s)


def _box(p, q):
    return 0 <= p <= 1 and 0 <= q <= 1 and (p, q) != (0, 0)


def _t32(p, q, s):
    return 1 <= p <= 2 and s >= 1 / p


_t11_1 = _mirrored(lambda p, q, s: _box(p, q) and 0.5 <= s <= 1 / (p + q))
_t11_2 = _mirrored(lambda p, q, s: _box(p, q) and -1 / (p + q) <= s <= -0.5)
_t22 = _mirrored(lambda p, q, s: _box(p, q) and 0 < s <= 1 / max(p, q))
_t31_1 = _mirrored(lambda p, q, s: 0 < p <= 1 and 0 < s <= 1 / p)
#: -1<=p<0 and s>0, or its counterpart 0<p<=1 and s<0
_opposite_signs = _mirrored(lambda p, q, s: -1 <= p < 0 and s > 0)
_p44_1 = _mirrored(lambda p, q, s: _opposite_signs(p, q, s) or _t32(p, q, s))
_t51_1 = _mirrored(lambda p, q, s: _box(p, q) and 0 < s <= 1 / (p + q))
_t51_2 = _mirrored(lambda p, q, s: _box(-p, -q) and s > 0
                   or (-1 <= p <= 0 and 1 <= q <= 2 or 1 <= p <= 2 and -1 <= q <= 0)
                   and p + q > 0 and s >= 1 / (p + q))


def _t31_2_convex(p, q, s):
    return _opposite_signs(p, q, s) or 1 <= p <= 2 and s >= 1


# P4.1-2 and P4.4-2 state the regions of T5.2-1 and T5.2-2: those of T5.1-1
# and T5.1-2 off the axes p = 0 and q = 0
def _t52_1(p, q, s):
    return p != 0 and q != 0 and _t51_1(p, q, s)


def _t52_2(p, q, s):
    return p != 0 and q != 0 and _t51_2(p, q, s)


def power_mean_dominates(p: float, q: float) -> bool:
    """Whether ((A^p+B^p)/2)^{1/p} <= ((A^q+B^q)/2)^{1/q} for all PD pairs."""
    return (p == q or 1 <= p < q or p < q <= -1 or (p <= -1 and q >= 1)
            or 0.5 <= p < 1 <= q or p <= -1 < q <= -0.5)


# The catalog does not say which functional the statements of
# T3.1-2-concave-recip, P4.1-2 and P4.4-2 are about: the epstein functional
# has no q for the P4 regions to read, and T3.1-2-concave-recip would repeat
# T3.1-1.  Their records carry no family, so verify refuses them.
THEOREMS = {
    "T1.1-1": Theorem("concave", "lieb", _t11_1, "0<=p,q<=1 and 1/2<=s<=1/(p+q), "
                      "or -1<=p,q<=0 and 1/(p+q)<=s<=-1/2"),
    "T1.1-2": Theorem("convex", "lieb", _t11_2, "0<=p,q<=1 and -1/(p+q)<=s<=-1/2, "
                      "or -1<=p,q<=0 and 1/2<=s<=-1/(p+q)"),
    "T2.2": Theorem("concave", "mean", _t22, "0<=p,q<=1 and 0<s<=1/max(p,q), "
                    "or -1<=p,q<=0 and 1/min(p,q)<=s<0",
                    mean="geometric", antinorm="kyfan-anti:1"),
    "T3.1-1": Theorem("concave", "epstein", _t31_1,
                      "0<p<=1 and 0<s<=1/p, or -1<=p<0 and 1/p<=s<0"),
    "T3.1-2-concave-recip": Theorem("concave", None, _t31_1,
                                    "0<p<=1 and 0<s<=1/p, or -1<=p<0 and 1/p<=s<0"),
    "T3.1-2-convex": Theorem("convex", "epstein", _t31_2_convex, "-1<=p<0 and s>0, "
                             "or 0<p<=1 and s<0, or 1<=p<=2 and s>=1"),
    "T3.2": Theorem("convex", "epstein", _t32, "1<=p<=2 and s>=1/p (CP map required)",
                    cp_required=True),
    "P4.1-1": Theorem("concave", "epstein", _t31_1,
                      "0<p<=1 and 0<s<=1/p, or -1<=p<0 and 1/p<=s<0"),
    "P4.1-2": Theorem("concave", None, _t52_1, "0<p,q<=1 and 0<s<=1/(p+q), "
                      "or -1<=p,q<0 and 1/(p+q)<=s<0"),
    "P4.4-1": Theorem("convex", "epstein", _p44_1, "-1<=p<0 and s>0, or 1<=p<=2 and "
                      "s>=1/p, or the (-p,-s) counterparts"),
    "P4.4-2": Theorem("convex", None, _t52_2,
                      "six-case necessary condition list with (-p,-q,-s) counterparts"),
    "T5.1-1": Theorem("concave", "lieb", _t51_1, "0<=p,q<=1 and 0<s<=1/(p+q), "
                      "or -1<=p,q<=0 and 1/(p+q)<=s<0", antinorm="lambda-min"),
    "T5.1-2": Theorem("convex", "lieb", _t51_2,
                      "six-case condition list with (-p,-q,-s) counterparts",
                      norm="operator"),
    "T5.2-1": Theorem("concave", "lieb", _t52_1, "as T5.1-1, with p,q,s all non-zero",
                      antinorm="lambda-min"),
    "T5.2-2": Theorem("convex", "lieb", _t52_2, "as T5.1-2, with p,q,s all non-zero",
                      norm="operator"),
    "L5.4": Theorem("dominance", None, lambda p, q, s: power_mean_dominates(p, q),
                    "p=q, 1<=p<q, p<q<=-1, (p<=-1, q>=1), 1/2<=p<1<=q, "
                    "or p<=-1<q<=-1/2"),
}

THEOREM_IDS = tuple(THEOREMS)


def region_member(theorem_id: str, point: ParameterPoint) -> bool:
    return bool(THEOREMS[theorem_id].region(point.p, point.q, point.s))


def region_violation(theorem_id: str, point: ParameterPoint) -> str | None:
    """None on membership, otherwise a message naming the failed condition."""
    if region_member(theorem_id, point):
        return None
    return (
        f"({point.p:g}, {point.q:g}, {point.s:g}) is outside the {theorem_id} "
        f"region: requires {THEOREMS[theorem_id].description}"
    )
