"""Operator means: representing-function calculus and order properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import means
from tracelab.lab import SLACK_REL, loewner_midpoint_test
from tracelab.linalg import (PosDef, SamplerConfig, loewner_leq, matrix_exp_herm, matrix_log,
                             matrix_power, rng_for, sample_posdef, sample_unitary)
from tracelab.means import MeanSpec, eval_mean, power_mean
from tracelab.regions import power_mean_dominates


def _diag(*vals):
    return PosDef.from_matrix(np.diag(vals).astype(complex))


def _sample(seed, stream=0, dim=3):
    return sample_posdef(SamplerConfig(dim=dim, seed=seed, stream_index=stream))


KUBO_ANDO_SPECS = [
    MeanSpec(kind="arithmetic"),
    MeanSpec(kind="harmonic"),
    MeanSpec(kind="geometric", t=0.5),
    MeanSpec(kind="geometric", t=0.3),
    MeanSpec(kind="power", r=0.5),
    MeanSpec(kind="power", r=-0.5),
]


class TestFrozenValues:
    def test_arithmetic_diagonal(self):
        out = eval_mean(MeanSpec(kind="arithmetic"), _diag(1.0, 3.0), _diag(3.0, 1.0))
        assert np.allclose(out.mat, np.diag([2.0, 2.0]))

    def test_geometric_scalars(self):
        out = eval_mean(MeanSpec(kind="geometric", t=0.5),
                        PosDef.from_matrix(4 * np.eye(2, dtype=complex)),
                        PosDef.from_matrix(np.eye(2, dtype=complex)))
        assert np.allclose(out.mat, 2 * np.eye(2))

    @pytest.mark.parametrize("spec", KUBO_ANDO_SPECS, ids=lambda s: s.label())
    def test_commuting_scalar_formula(self, spec):
        a = np.array([1.0, 2.5, 4.0])
        b = np.array([3.0, 0.5, 4.0])
        out = eval_mean(spec, _diag(*a), _diag(*b))
        expected = a * spec.rep_function()(b / a)
        assert np.allclose(np.diag(out.mat).real, expected, rtol=1e-10)

    def test_sum_combiner(self):
        A, B = _sample(31), _sample(31, 1)
        out = eval_mean(MeanSpec(kind="sum"), A, B)
        assert np.allclose(out.mat, A.mat + B.mat)


class TestPowerMean:
    def test_p_one_is_arithmetic(self):
        A, B = _sample(32), _sample(32, 1)
        assert np.allclose(power_mean(A, B, 1.0).mat, (A.mat + B.mat) / 2, rtol=1e-10)

    def test_p_minus_one_is_harmonic(self):
        A, B = _sample(33), _sample(33, 1)
        harm = 2 * np.linalg.inv(np.linalg.inv(A.mat) + np.linalg.inv(B.mat))
        assert np.allclose(power_mean(A, B, -1.0).mat, harm, rtol=1e-9)

    def test_p_zero_commuting_is_geometric(self):
        out = power_mean(_diag(1.0, 4.0), _diag(4.0, 1.0), 0.0)
        assert np.allclose(out.mat, np.diag([2.0, 2.0]), rtol=1e-10)

    def test_continuity_at_zero(self):
        A, B = _sample(34), _sample(34, 1)
        at_zero = power_mean(A, B, 0.0).mat
        for p in (1e-6, -1e-6):
            assert np.allclose(power_mean(A, B, p).mat, at_zero, rtol=1e-5)

    def test_dominance_on_good_exponent_pairs(self):
        # monotone in the exponent when (p, q) falls in the dominance cases
        for p, q in ((0.5, 1.0), (1.0, 2.0), (0.7, 0.7), (-2.0, -1.0)):
            for stream in range(25):
                A, B = _sample(35, 2 * stream, dim=2), _sample(35, 2 * stream + 1, dim=2)
                ok, witness = loewner_leq(power_mean(A, B, p).mat,
                                          power_mean(A, B, q).mat, tol=1e-8)
                assert ok, (p, q, witness)


def _power_mean_composed(A, B, p):
    """The power mean composed of PosDef steps (two matrix_power calls,
    from_hermitian, matrix_power): the reference of its spectral core."""
    if p == 0:
        return matrix_exp_herm(0.5 * (matrix_log(A) + matrix_log(B)))
    M = PosDef.from_hermitian(0.5 * (matrix_power(A, p).mat + matrix_power(B, p).mat))
    return matrix_power(M, 1.0 / p)


@pytest.mark.parametrize("p", [0.0, 1.0, -1.0, 0.5, 2.0, -0.5, 0.6, 0.9, 3.0, 1e-6, -2.5])
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_power_mean_equals_its_posdef_composition(p, dim):
    for stream in range(0, 40, 2):
        A, B = _sample(50 + dim, stream, dim), _sample(50 + dim, stream + 1, dim)
        if stream % 4:  # stacks too, of the same matrices
            A, B = (PosDef.from_hermitian(np.stack([P.mat, 2.0 * P.mat])) for P in (A, B))
        got, ref = power_mean(A, B, p), _power_mean_composed(A, B, p)
        for x, y in ((got.mat, ref.mat), (got.eigs, ref.eigs), (got.vecs, ref.vecs)):
            assert x.tobytes() == y.tobytes(), (p, dim, stream)


_SEEDS = st.integers(0, 2**32 - 1)
_ORACLE = settings(max_examples=40, deadline=None, derandomize=True)
#: exponents away from 0 but for 0 itself: 1/p overflows for a p near 0
_POWERS = (st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]) | st.floats(0.05, 3.0)
           | st.floats(-3.0, -0.05))


class TestPowerMeanOracles:
    """Identities that hold exactly in mathematics, checked to rounding."""

    @_ORACLE
    @given(p=_POWERS, seed=_SEEDS, dim=st.integers(2, 4))
    def test_unitary_invariance(self, p, seed, dim):
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        U = sample_unitary(dim, seed, 2)
        conj = lambda P: PosDef.from_hermitian(U @ P.mat @ U.conj().T)
        lhs = power_mean(conj(A), conj(B), p).mat
        rhs = U @ power_mean(A, B, p).mat @ U.conj().T
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8 * np.abs(rhs).max())

    @_ORACLE
    @given(p=_POWERS, seed=_SEEDS, dim=st.integers(2, 4), t=st.floats(0.01, 100.0))
    def test_homogeneity(self, p, seed, dim, t):
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        scaled = lambda P: PosDef.from_hermitian(t * P.mat)
        lhs = power_mean(scaled(A), scaled(B), p).mat
        rhs = t * power_mean(A, B, p).mat
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8 * np.abs(rhs).max())

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=_POWERS, q=_POWERS, seed=_SEEDS, dim=st.integers(2, 3))
    def test_no_dominance_excess_on_the_region(self, p, q, seed, dim):
        p, q = min(p, q), max(p, q)
        if not power_mean_dominates(p, q):
            p, q = q, q  # M_q <= M_q holds for every q
        report = loewner_midpoint_test("power-mean-dominance", {"p": p, "q": q}, 20,
                                       SamplerConfig(dim=dim, seed=seed))
        assert report.failures == 0 and report.worst_violation <= SLACK_REL, (p, q)


class TestModifierOracles:
    """The transposed and adjoint means against their definitions, sigma'(A, B) =
    B sigma A and sigma*(A, B) = (A^-1 sigma B^-1)^-1, through means whose own
    code paths differ, within SLACK_REL of the largest entry."""

    @staticmethod
    def _agree(got, want):
        assert np.abs(got.mat - want.mat).max() <= SLACK_REL * np.abs(want.mat).max()

    @_ORACLE
    @given(t=st.floats(0.0, 1.0), seed=_SEEDS, dim=st.integers(2, 4))
    def test_transposed_geometric_is_the_complementary_weight(self, t, seed, dim):
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        self._agree(eval_mean(MeanSpec("geometric", t=t, modifier="transposed"), A, B),
                    eval_mean(MeanSpec("geometric", t=1 - t), A, B))

    @_ORACLE
    @given(seed=_SEEDS, dim=st.integers(2, 4))
    def test_adjoint_arithmetic_is_harmonic(self, seed, dim):
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        self._agree(eval_mean(MeanSpec("arithmetic", modifier="adjoint"), A, B),
                    eval_mean(MeanSpec("harmonic"), A, B))

    @_ORACLE
    @given(t=st.floats(0.0, 1.0), seed=_SEEDS, dim=st.integers(2, 4))
    def test_adjoint_geometric_is_self_adjoint(self, t, seed, dim):
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        self._agree(eval_mean(MeanSpec("geometric", t=t, modifier="adjoint"), A, B),
                    eval_mean(MeanSpec("geometric", t=t), A, B))


class TestKuboAndoProperties:
    @pytest.mark.parametrize("spec", KUBO_ANDO_SPECS, ids=lambda s: s.label())
    def test_idempotence(self, spec):
        A = _sample(36)
        assert np.allclose(eval_mean(spec, A, A).mat, A.mat, rtol=1e-9)

    @pytest.mark.parametrize("spec", KUBO_ANDO_SPECS, ids=lambda s: s.label())
    def test_transformer_equality(self, spec):
        rng = rng_for(37, 0)
        A, B = _sample(37), _sample(37, 1)
        C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        C += 3 * np.eye(3)  # keep it comfortably invertible
        lhs = C.conj().T @ eval_mean(spec, A, B).mat @ C
        rhs = eval_mean(spec,
                        PosDef.from_matrix(C.conj().T @ A.mat @ C),
                        PosDef.from_matrix(C.conj().T @ B.mat @ C)).mat
        assert np.allclose(lhs, rhs, rtol=1e-8)

    @pytest.mark.parametrize("spec", KUBO_ANDO_SPECS, ids=lambda s: s.label())
    def test_joint_monotonicity(self, spec):
        rng = rng_for(38, 0)
        for _ in range(20):
            A1, B1 = _sample(38, 2), _sample(38, 3)
            G1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            G2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            A2 = PosDef.from_matrix(A1.mat + G1 @ G1.conj().T)
            B2 = PosDef.from_matrix(B1.mat + G2 @ G2.conj().T)
            ok, witness = loewner_leq(eval_mean(spec, A1, B1).mat,
                                      eval_mean(spec, A2, B2).mat, tol=1e-8)
            assert ok, witness

    @pytest.mark.parametrize("spec", KUBO_ANDO_SPECS, ids=lambda s: s.label())
    def test_joint_midpoint_concavity(self, spec):
        for stream in range(20):
            A1, B1 = _sample(39, 4 * stream), _sample(39, 4 * stream + 1)
            A2, B2 = _sample(39, 4 * stream + 2), _sample(39, 4 * stream + 3)
            mid = eval_mean(spec, PosDef.from_matrix((A1.mat + A2.mat) / 2),
                            PosDef.from_matrix((B1.mat + B2.mat) / 2)).mat
            avg = (eval_mean(spec, A1, B1).mat + eval_mean(spec, A2, B2).mat) / 2
            ok, witness = loewner_leq(avg, mid, tol=1e-8)
            assert ok, witness

    def test_symmetric_mean_between_harmonic_and_arithmetic(self):
        A, B = _sample(40), _sample(40, 1)
        harm = eval_mean(MeanSpec(kind="harmonic"), A, B).mat
        arit = eval_mean(MeanSpec(kind="arithmetic"), A, B).mat
        symmetric = [s for s in KUBO_ANDO_SPECS if s.t in (None, 0.5)]
        for spec in symmetric:
            m = eval_mean(spec, A, B).mat
            assert loewner_leq(harm, m, tol=1e-8)[0], spec.label()
            assert loewner_leq(m, arit, tol=1e-8)[0], spec.label()


class TestModifiers:
    def test_adjoint_of_arithmetic_is_harmonic(self):
        A, B = _sample(41), _sample(41, 1)
        adj = eval_mean(MeanSpec(kind="arithmetic", modifier="adjoint"), A, B).mat
        harm = eval_mean(MeanSpec(kind="harmonic"), A, B).mat
        assert np.allclose(adj, harm, rtol=1e-9)

    def test_transposed_swaps_arguments(self):
        A, B = _sample(42), _sample(42, 1)
        spec = MeanSpec(kind="geometric", t=0.3)
        swapped = MeanSpec(kind="geometric", t=0.3, modifier="transposed")
        assert np.allclose(eval_mean(swapped, A, B).mat,
                           eval_mean(spec, B, A).mat)

    @pytest.mark.parametrize("modifier", ["transposed", "adjoint"])
    def test_modifier_builds_no_spec(self, modifier, monkeypatch):
        spec = MeanSpec(kind="power", r=0.5, modifier=modifier)
        A, B = _sample(44), _sample(44, 1)
        built = []
        original = MeanSpec.__post_init__
        monkeypatch.setattr(MeanSpec, "__post_init__",
                            lambda self: built.append(self) or original(self))
        eval_mean(spec, A, B)
        assert built == []


class TestSpecPlumbing:
    def test_roundtrip(self):
        specs = KUBO_ANDO_SPECS + [MeanSpec(kind="sum"),
                                   MeanSpec(kind="harmonic", modifier="adjoint")]
        assert {spec.kind for spec in specs} == set(means.PARAMETER)
        for spec in specs:
            assert MeanSpec.from_dict(spec.to_dict()) == spec
            if spec.modifier is None:
                assert MeanSpec.parse(spec.label()) == spec

    @pytest.mark.parametrize("kind, settings, refusal", [
        ("geometric", {"t": 1.5}, r"geometric mean requires t in \[0, 1\], got 1.5"),
        ("geometric", {"t": -0.1}, r"geometric mean requires t in \[0, 1\]"),
        ("geometric", {}, r"geometric mean requires t in \[0, 1\], got None"),
        ("power", {"r": 0.0}, r"power mean requires r in \[-1, 1\], r != 0, got 0.0"),
        ("power", {"r": 1.5}, r"power mean requires r in \[-1, 1\]"),
        ("power", {}, r"power mean requires r in \[-1, 1\], r != 0, got None"),
        ("harmonic", {"modifier": "inverted"}, "unknown modifier 'inverted'"),
    ])
    def test_out_of_range_parameters_and_unknown_modifiers_are_refused(self, kind, settings,
                                                                      refusal):
        with pytest.raises(ValueError, match=refusal):
            MeanSpec(kind=kind, **settings)

    def test_power_alone_is_refused(self):
        # unlike geometric, which alone is t = 1/2, power has no default r
        with pytest.raises(ValueError, match="power mean requires r"):
            MeanSpec.parse("power")

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="unknown mean kind"):
            MeanSpec(kind="custom")

    @pytest.mark.parametrize("kind, name", [("power", "r"), ("geometric", "t"),
                                            ("arithmetic", "t"), ("harmonic", "r")])
    @pytest.mark.parametrize("value", [True, False, "0.5", [0.5], 0.5j])
    def test_parameters_must_be_real_numbers(self, kind, name, value):
        # JSON's true would otherwise be read as r = 1 or t = 1
        with pytest.raises(ValueError, match=f"mean parameter {name} must be a real number"):
            MeanSpec(kind=kind, **{name: value})
        assert MeanSpec(kind="power", r=np.float64(0.5)).r == 0.5

    @pytest.mark.parametrize("text,spec", [
        ("geometric", MeanSpec(kind="geometric", t=0.5)),
        ("geometric:0.25", MeanSpec(kind="geometric", t=0.25)),
        ("power:-0.5", MeanSpec(kind="power", r=-0.5)),
        ("harmonic", MeanSpec(kind="harmonic")),
    ])
    def test_parse(self, text, spec):
        assert MeanSpec.parse(text) == spec

    def test_parse_refuses_a_parameter_of_a_kind_without_one(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            MeanSpec.parse("arithmetic:1")

    def test_power_mean_identities(self):
        A, B = _sample(43, dim=2), _sample(43, 1, dim=2)
        assert np.allclose(eval_mean(MeanSpec(kind="power", r=1.0), A, B).mat,
                           eval_mean(MeanSpec(kind="arithmetic"), A, B).mat, rtol=1e-9)
        assert np.allclose(eval_mean(MeanSpec(kind="power", r=-1.0), A, B).mat,
                           eval_mean(MeanSpec(kind="harmonic"), A, B).mat, rtol=1e-9)
