"""Parameter-region predicates for every verified inequality."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab.cli import _verify_family, build_parser
from tracelab.families import ParameterPoint, eval_family
from tracelab.linalg import SamplerConfig, sample_posdef
from tracelab.regions import (
    THEOREM_IDS,
    THEOREMS,
    power_mean_dominates,
    region_member,
    region_violation,
)


def P(p, q, s):
    return ParameterPoint(p, q, s)


class TestMembership:
    def test_trace_concavity_region_boundaries(self):
        assert region_member("T1.1-1", P(0.5, 0.5, 1.0))  # s = 1/(p+q)
        assert region_member("T1.1-1", P(0.7, 0.7, 0.5))  # s = 1/2
        assert region_member("T1.1-1", P(0.7, 0.7, 1 / 1.4))
        assert not region_member("T1.1-1", P(0.7, 0.7, 0.9))  # s > 1/(p+q)
        assert not region_member("T1.1-1", P(0.7, 0.7, 0.4))  # s < 1/2
        # negative branch mirrors the positive one
        assert region_member("T1.1-1", P(-0.7, -0.7, -1 / 1.4))
        assert not region_member("T1.1-1", P(-0.7, 0.7, 0.5))  # mixed signs

    def test_trace_convexity_region(self):
        assert region_member("T1.1-2", P(0.7, 0.7, -0.6))    # s in [-1/(p+q), -1/2]
        assert region_member("T1.1-2", P(-0.7, -0.7, 0.6))
        assert not region_member("T1.1-2", P(0.5, 0.7, 1.0))
        assert not region_member("T1.1-2", P(0.7, 0.7, -0.4))

    def test_mean_antinorm_region(self):
        assert region_member("T2.2", P(0.6, 0.9, 1 / 0.9))  # s = 1/max(p,q)
        assert region_member("T2.2", P(0.6, 0.9, 0.3))
        assert not region_member("T2.2", P(0.6, 0.9, 1.2))
        assert region_member("T2.2", P(-0.6, -0.9, -1 / 0.9))

    def test_one_variable_concavity(self):
        assert region_member("T3.1-1", P(0.5, 0.0, 2.0))  # s = 1/p
        assert not region_member("T3.1-1", P(0.5, 0.0, 2.1))
        assert region_member("T3.1-1", P(-0.5, 0.0, -2.0))

    def test_one_variable_convexity(self):
        assert region_member("T3.1-2-convex", P(1.5, 0.0, 1.0))
        assert region_member("T3.1-2-convex", P(1.0, 0.0, 1.2))
        assert not region_member("T3.1-2-convex", P(2.5, 0.0, 1.0))

    def test_cp_convexity_region(self):
        assert region_member("T3.2", P(1.5, 0.0, 0.8))  # 0.8 >= 1/1.5
        assert region_member("T3.2", P(2.0, 0.0, 0.5))
        assert not region_member("T3.2", P(1.5, 0.0, 0.5))

    def test_necessity_regions(self):
        assert region_member("P4.1-1", P(1.0, 0.0, 1.0))
        assert not region_member("P4.1-1", P(1.0, 0.0, 1.2))
        assert region_member("P4.4-1", P(-0.5, 0.0, 1.0))
        assert region_member("P4.4-1", P(1.5, 0.0, 1.0))
        assert not region_member("P4.4-1", P(0.5, 0.0, 1.0))

    def test_two_variable_necessity_regions(self):
        assert region_member("P4.1-2", P(0.5, 0.5, 1.0))      # s = 1/(p+q)
        assert not region_member("P4.1-2", P(0.5, 0.5, 1.1))
        assert not region_member("P4.1-2", P(0.0, 0.5, 1.0))  # p = 0 excluded
        assert region_member("P4.1-2", P(-0.5, -0.5, -1.0))
        assert not region_member("P4.1-2", P(-0.5, -0.5, -1.1))
        assert not region_member("P4.1-2", P(0.5, -0.5, 1.0))  # mixed signs
        assert region_member("P4.4-2", P(-0.5, -0.5, 1.0))
        assert region_member("P4.4-2", P(-0.5, 1.5, 1.0))     # s = 1/(p+q)
        assert not region_member("P4.4-2", P(-0.5, 1.5, 0.9))
        assert region_member("P4.4-2", P(1.5, -0.5, 1.0))
        assert not region_member("P4.4-2", P(0.5, 0.5, 1.0))
        # (-p, -q, -s) counterparts
        assert region_member("P4.4-2", P(0.5, 0.5, -1.0))
        assert region_member("P4.4-2", P(0.5, -1.5, -1.0))
        assert not region_member("P4.4-2", P(0.5, -1.5, -0.9))
        assert region_member("P4.4-2", P(-1.5, 0.5, -1.0))

    def test_antinorm_norm_family_regions(self):
        assert region_member("T5.1-1", P(0.8, 0.8, 1 / 1.6))
        assert not region_member("T5.1-1", P(1.0, 1.0, 0.75))
        assert region_member("T5.1-2", P(-0.5, 1.5, 1.0))
        assert region_member("T5.2-1", P(0.8, 0.8, 1 / 1.6))
        assert not region_member("T5.2-1", P(1.0, 1.0, 0.75))

    def test_dominance_cases(self):
        assert power_mean_dominates(0.7, 0.7)        # p = q
        assert power_mean_dominates(1.0, 2.0)        # 1 <= p < q
        assert power_mean_dominates(-3.0, -1.0)      # p < q <= -1
        assert power_mean_dominates(-1.0, 1.0)       # p <= -1, q >= 1
        assert power_mean_dominates(0.5, 1.0)        # 1/2 <= p < 1 <= q
        assert power_mean_dominates(-1.0, -0.5)      # p <= -1 < q <= -1/2
        assert not power_mean_dominates(0.4, 1.0)
        assert not power_mean_dominates(0.3, 1.0)
        assert not power_mean_dominates(0.8, 0.9)
        assert region_member("L5.4", P(1.0, 2.0, 1.0))
        assert not region_member("L5.4", P(0.4, 1.0, 1.0))


class TestPlumbing:
    def test_all_ids_have_direction_and_description(self):
        for tid in THEOREM_IDS:
            assert THEOREMS[tid].direction in ("concave", "convex", "dominance")
            assert THEOREMS[tid].description

    def test_violation_message(self):
        msg = region_violation("T1.1-1", P(0.7, 0.7, 0.9))
        assert msg is not None and "T1.1-1" in msg
        assert region_violation("T1.1-1", P(0.7, 0.7, 0.5)) is None

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            region_member("T9.9", P(1.0, 1.0, 1.0))


_PQ_GRID = (-1.5, -0.5, 0.5, 1.5)
_S_GRID = (-2.0, -0.6, 0.6, 2.0)


def _verify_value(tid, p, q, s):
    """The functional verify tests for ``tid``, at fixed seeded inputs."""
    args = build_parser()[0].parse_args(
        ["verify", "--theorem", tid, "--p", str(p), "--q", str(q), "--s", str(s)])
    family = _verify_family(args, THEOREMS[tid], (2, 2, 2))
    A = sample_posdef(SamplerConfig(dim=2, seed=17))
    B = sample_posdef(SamplerConfig(dim=2, seed=17, stream_index=1))
    return eval_family(family, A, B)


@pytest.mark.parametrize("tid", [t for t in THEOREM_IDS if THEOREMS[t].family])
def test_functional_reads_q_where_the_region_does(tid):
    region = THEOREMS[tid].region
    for p, s in itertools.product(_PQ_GRID, _S_GRID):
        for q1, q2 in itertools.combinations(_PQ_GRID, 2):
            if region(p, q1, s) != region(p, q2, s):
                assert _verify_value(tid, p, q1, s) != _verify_value(tid, p, q2, s), \
                    f"{tid}: the region reads q but the functional does not"


#: exponents bounded away from 0 and from each other, boundaries of the regions included
_EXPONENTS = st.sampled_from((-2.5, -2.0, -1.5, -1.0, -0.7, -0.5, -0.3,
                              0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5))


@pytest.mark.parametrize("moving", ["p", "s"])
@pytest.mark.parametrize("tid", [t for t in THEOREM_IDS if THEOREMS[t].family])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(point=st.tuples(_EXPONENTS, _EXPONENTS, _EXPONENTS), other=_EXPONENTS)
def test_functional_reads_p_and_s_where_the_region_does(tid, moving, point, other):
    """Where region membership changes when only p (or only s) moves, the
    functional verify builds changes value too."""
    region = THEOREMS[tid].region
    moved = dict(zip("pqs", point), **{moving: other})
    if region(*point) != region(**moved):
        assert _verify_value(tid, *point) != _verify_value(tid, **moved), \
            f"{tid}: the region reads {moving} but the functional does not"
