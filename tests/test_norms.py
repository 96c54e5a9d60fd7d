"""Symmetric norm / anti-norm catalog: frozen values and axioms."""

import numpy as np
import pytest

from tracelab.linalg import PosDef, SamplerConfig, rng_for, sample_posdef, sample_unitary
from tracelab.norms import (
    NormSpec,
    catalog_antinorms,
    catalog_norms,
    derived_antinorm,
    eval_norm,
    eval_norm_from_eigs,
)


def _diag(*vals):
    return PosDef.from_matrix(np.diag(vals).astype(complex))


class TestFrozenValues:
    def test_kyfan_norm(self):
        assert eval_norm(NormSpec(kind="kyfan", k=2), _diag(3.0, 1.0, 2.0)) == 5.0

    def test_kyfan_antinorm(self):
        assert eval_norm(NormSpec(kind="kyfan-anti", k=2), _diag(3.0, 1.0, 2.0)) == 3.0

    def test_minkowski(self):
        v = eval_norm(NormSpec(kind="minkowski", k=2), _diag(1.0, 4.0))
        assert np.isclose(v, 2.0)  # det^{1/2}

    def test_schatten_quasi(self):
        v = eval_norm(NormSpec(kind="schatten-quasi", p=0.5), _diag(1.0, 4.0))
        assert np.isclose(v, 9.0)  # (1 + 2)^2

    def test_negative_schatten(self):
        v = eval_norm(NormSpec(kind="neg-schatten", p=1.0), _diag(1.0, 0.5))
        assert np.isclose(v, 1.0 / 3.0)  # (1 + 2)^{-1}

    def test_trace_operator_lambda_min(self):
        P = _diag(1.0, 4.0, 2.0)
        assert eval_norm(NormSpec(kind="trace"), P) == 7.0
        assert eval_norm(NormSpec(kind="operator"), P) == 4.0
        assert eval_norm(NormSpec(kind="lambda-min"), P) == 1.0

    def test_negative_schatten_singular_is_zero(self):
        eigs = np.array([0.0, 1.0, 2.0])
        assert eval_norm_from_eigs(NormSpec(kind="neg-schatten", p=1.0), eigs) == 0.0


class TestDerivedAntinorm:
    def test_from_operator_norm(self):
        # ||A^{-1}||_inf^{-1} is the smallest eigenvalue
        assert np.isclose(derived_antinorm(NormSpec(kind="operator"), _diag(2.0, 3.0)), 2.0)

    def test_from_trace(self):
        assert np.isclose(derived_antinorm(NormSpec(kind="trace"), _diag(1.0, 1.0)), 0.5)

    def test_from_kyfan_cross_check(self):
        P = sample_posdef(SamplerConfig(dim=4, seed=21))
        spec = NormSpec(kind="kyfan", k=2)
        # direct spectral evaluation: sum of the 2 largest inverse eigenvalues
        direct = 1.0 / np.sum(np.sort(1.0 / P.eigs)[-2:])
        assert np.isclose(derived_antinorm(spec, P), direct, rtol=1e-10)


@pytest.fixture(scope="module")
def psd_pairs():
    pairs = []
    for stream in range(300):
        rng = rng_for(22, stream)
        G1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        G2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pairs.append((G1 @ G1.conj().T, G2 @ G2.conj().T))
    return pairs


class TestAxioms:

    def test_antinorm_superadditivity(self, psd_pairs):
        for spec in catalog_antinorms(3):
            for A, B in psd_pairs:
                a = eval_norm_from_eigs(spec, np.linalg.eigvalsh(A))
                b = eval_norm_from_eigs(spec, np.linalg.eigvalsh(B))
                ab = eval_norm_from_eigs(spec, np.linalg.eigvalsh(A + B))
                scale = max(1.0, a, b, ab)
                assert ab - (a + b) >= -1e-10 * scale, spec.label()

    def test_norm_triangle_and_monotone(self, psd_pairs):
        for spec in catalog_norms(3):
            for A, B in psd_pairs:
                a = eval_norm_from_eigs(spec, np.linalg.eigvalsh(A))
                b = eval_norm_from_eigs(spec, np.linalg.eigvalsh(B))
                ab = eval_norm_from_eigs(spec, np.linalg.eigvalsh(A + B))
                scale = max(1.0, a, b, ab)
                assert a + b - ab >= -1e-10 * scale, spec.label()
                assert ab - a >= -1e-10 * scale, spec.label()

    def test_homogeneity(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=23))
        for spec in catalog_norms(3) + catalog_antinorms(3):
            for t in (0.2, 3.7):
                lhs = eval_norm_from_eigs(spec, t * P.eigs)
                rhs = t * eval_norm_from_eigs(spec, P.eigs)
                assert np.isclose(lhs, rhs, rtol=1e-10), spec.label()

    def test_unitary_invariance(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=24))
        U = sample_unitary(3, seed=24, stream_index=1)
        conj = PosDef.from_matrix(U @ P.mat @ U.conj().T)
        for spec in catalog_norms(3) + catalog_antinorms(3):
            assert np.isclose(eval_norm(spec, P), eval_norm(spec, conj),
                              rtol=1e-9), spec.label()


class TestKyFanDominance:
    def test_dominance_principle(self):
        # diagonal pairs built so every Ky Fan anti-norm of A dominates B's
        rng = rng_for(25, 0)
        for _ in range(200):
            b = np.sort(rng.uniform(0.1, 5.0, size=4))
            bumps = rng.uniform(0.0, 1.0, size=4)
            a = np.sort(b + bumps)  # a_j >= b_j pointwise, so the premise holds
            ky_a = np.cumsum(np.sort(a))
            ky_b = np.cumsum(np.sort(b))
            assert np.all(ky_a >= ky_b - 1e-12)
            for spec in catalog_antinorms(4):
                va = eval_norm_from_eigs(spec, a)
                vb = eval_norm_from_eigs(spec, b)
                assert va >= vb - 1e-10 * max(1.0, va, vb), spec.label()


class TestCompression:
    def test_projection_compression_interlacing(self):
        # for a rank-k compression, small eigenvalues rise and large ones fall
        rng = rng_for(26, 0)
        for _ in range(100):
            G = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            C = G @ G.conj().T
            k = int(rng.integers(1, 5))
            V = np.linalg.qr(rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k)))[0]
            inner = np.linalg.eigvalsh(V.conj().T @ C @ V)
            outer = np.linalg.eigvalsh(C)
            assert np.all(inner >= outer[:k] - 1e-10)          # ascending
            assert np.all(inner[::-1] <= outer[::-1][:k] + 1e-10)  # descending


class TestSpecPlumbing:
    def test_parse_and_roundtrip(self):
        for text in ("kyfan:2", "trace", "operator", "schatten-quasi:0.5",
                     "neg-schatten:1", "minkowski:3", "lambda-min", "kyfan-anti:1"):
            spec = NormSpec.parse(text)
            assert NormSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            NormSpec(kind="schatten-quasi", p=1.5)
        with pytest.raises(ValueError):
            NormSpec(kind="kyfan", k=0)
        with pytest.raises(ValueError):
            NormSpec(kind="no-such-kind")

    def test_k_out_of_range_at_eval(self):
        with pytest.raises(ValueError):
            eval_norm(NormSpec(kind="kyfan", k=5), _diag(1.0, 2.0))


@pytest.mark.parametrize("spec", catalog_norms(3) + catalog_antinorms(3)
                         + [NormSpec("schatten-quasi", p=0.3), NormSpec("neg-schatten", p=0.7)],
                         ids=NormSpec.label)
def test_a_stack_of_spectra_evaluates_row_by_row(spec):
    # unsorted rows, one of them rank deficient and one singular
    eigs = rng_for(94, 0).uniform(0.05, 6.0, size=(200, 3))
    eigs[4, 1] = 1e-20
    eigs[7, 2] = 0.0
    rows = [eval_norm_from_eigs(spec, row) for row in eigs]
    assert all(isinstance(v, float) for v in rows)
    assert np.array_equal(eval_norm_from_eigs(spec, eigs), rows)
    assert np.array_equal(eval_norm_from_eigs(spec, eigs.reshape(20, 10, 3)),
                          np.reshape(rows, (20, 10)))
