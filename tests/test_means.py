"""Operator means: representing-function calculus and order properties."""

import numpy as np
import pytest

from tracelab.linalg import PosDef, SamplerConfig, loewner_leq, rng_for, sample_posdef
from tracelab.means import MeanSpec, eval_mean, power_mean


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


class TestSpecPlumbing:
    def test_roundtrip(self):
        for spec in KUBO_ANDO_SPECS + [MeanSpec(kind="sum"),
                                       MeanSpec(kind="harmonic", modifier="adjoint")]:
            assert MeanSpec.from_dict(spec.to_dict()) == spec

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="unknown mean kind"):
            MeanSpec(kind="custom")

    def test_power_mean_identities(self):
        A, B = _sample(43, dim=2), _sample(43, 1, dim=2)
        assert np.allclose(eval_mean(MeanSpec(kind="power", r=1.0), A, B).mat,
                           eval_mean(MeanSpec(kind="arithmetic"), A, B).mat, rtol=1e-9)
        assert np.allclose(eval_mean(MeanSpec(kind="power", r=-1.0), A, B).mat,
                           eval_mean(MeanSpec(kind="harmonic"), A, B).mat, rtol=1e-9)
