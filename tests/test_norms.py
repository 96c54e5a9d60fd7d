"""Symmetric norm / anti-norm catalog: frozen values and axioms."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tracelab import norms
from tracelab.linalg import PosDef, SamplerConfig, rng_for, sample_posdef, sample_unitary
from tracelab.norms import (
    NormSpec,
    _check_psd_eigs,
    catalog_antinorms,
    eval_norm_from_eigs,
)

#: the norm catalog at dimension 3
NORMS_3 = [NormSpec("trace"), NormSpec("operator"),
           *(NormSpec("kyfan", k=k) for k in range(1, 4))]


def _diag(*vals):
    return PosDef.from_matrix(np.diag(vals).astype(complex))


class TestFrozenValues:
    def test_kyfan_norm(self):
        v = eval_norm_from_eigs(NormSpec(kind="kyfan", k=2), _diag(3.0, 1.0, 2.0).eigs)
        assert v == 5.0

    def test_kyfan_antinorm(self):
        v = eval_norm_from_eigs(NormSpec(kind="kyfan-anti", k=2), _diag(3.0, 1.0, 2.0).eigs)
        assert v == 3.0

    def test_minkowski(self):
        v = eval_norm_from_eigs(NormSpec(kind="minkowski", k=2), _diag(1.0, 4.0).eigs)
        assert np.isclose(v, 2.0)  # det^{1/2}

    def test_schatten_quasi(self):
        v = eval_norm_from_eigs(NormSpec(kind="schatten-quasi", p=0.5), _diag(1.0, 4.0).eigs)
        assert np.isclose(v, 9.0)  # (1 + 2)^2

    def test_negative_schatten(self):
        v = eval_norm_from_eigs(NormSpec(kind="neg-schatten", p=1.0), _diag(1.0, 0.5).eigs)
        assert np.isclose(v, 1.0 / 3.0)  # (1 + 2)^{-1}

    def test_trace_operator_lambda_min(self):
        P = _diag(1.0, 4.0, 2.0)
        assert eval_norm_from_eigs(NormSpec(kind="trace"), P.eigs) == 7.0
        assert eval_norm_from_eigs(NormSpec(kind="operator"), P.eigs) == 4.0
        assert eval_norm_from_eigs(NormSpec(kind="lambda-min"), P.eigs) == 1.0

    def test_negative_schatten_singular_is_zero(self):
        eigs = np.array([0.0, 1.0, 2.0])
        assert eval_norm_from_eigs(NormSpec(kind="neg-schatten", p=1.0), eigs) == 0.0


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
        for spec in NORMS_3:
            for A, B in psd_pairs:
                a = eval_norm_from_eigs(spec, np.linalg.eigvalsh(A))
                b = eval_norm_from_eigs(spec, np.linalg.eigvalsh(B))
                ab = eval_norm_from_eigs(spec, np.linalg.eigvalsh(A + B))
                scale = max(1.0, a, b, ab)
                assert a + b - ab >= -1e-10 * scale, spec.label()
                assert ab - a >= -1e-10 * scale, spec.label()

    def test_homogeneity(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=23))
        for spec in NORMS_3 + catalog_antinorms(3):
            for t in (0.2, 3.7):
                lhs = eval_norm_from_eigs(spec, t * P.eigs)
                rhs = t * eval_norm_from_eigs(spec, P.eigs)
                assert np.isclose(lhs, rhs, rtol=1e-10), spec.label()

    def test_unitary_invariance(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=24))
        U = sample_unitary(3, seed=24, stream_index=1)
        conj = PosDef.from_matrix(U @ P.mat @ U.conj().T)
        for spec in NORMS_3 + catalog_antinorms(3):
            assert np.isclose(eval_norm_from_eigs(spec, P.eigs),
                              eval_norm_from_eigs(spec, conj.eigs), rtol=1e-9), spec.label()


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

    @pytest.mark.parametrize("kind", ["kyfan", "kyfan-anti", "minkowski"])
    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_k_must_be_an_int(self, kind, k):
        with pytest.raises(ValueError, match=f"{kind} requires an integer k >= 1"):
            NormSpec(kind=kind, k=k)
        assert NormSpec(kind=kind, k=2).k == 2

    @pytest.mark.parametrize("kind", ["schatten-quasi", "neg-schatten", "trace"])
    @pytest.mark.parametrize("p", [True, False, "0.5", [0.5], 0.5j])
    def test_p_must_be_a_real_number(self, kind, p):
        # JSON's true would otherwise be read as p = 1
        with pytest.raises(ValueError, match=f"{kind} requires a real p"):
            NormSpec(kind=kind, p=p)

    def test_neg_schatten_refuses_a_nan_p(self):
        with pytest.raises(ValueError, match="neg-schatten requires p > 0"):
            NormSpec(kind="neg-schatten", p=float("nan"))
        assert NormSpec(kind="neg-schatten", p=np.float64(0.5)).p == 0.5

    def test_k_out_of_range_at_eval(self):
        with pytest.raises(ValueError):
            eval_norm_from_eigs(NormSpec(kind="kyfan", k=5), _diag(1.0, 2.0).eigs)


@pytest.mark.parametrize("spec", NORMS_3 + catalog_antinorms(3)
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


def _check_psd_eigs_eager(eigs):
    """The PSD check as it was with its tolerance computed on every call: the
    reference that the lazy check must match byte for byte."""
    eigs = np.sort(np.asarray(eigs, dtype=float), axis=-1)
    scale = np.fmax(1.0, np.abs(eigs).max(axis=-1, keepdims=True))
    if (eigs[..., :1] < -1e-10 * scale).any():
        raise ValueError(f"input is not PSD: smallest eigenvalue {eigs[..., 0].min():.3e}")
    return np.clip(eigs, 0.0, None)


#: positive values, both zeros, negatives inside and outside the tolerance of
#: spectra whose largest |eigenvalue| is up to 1e6, NaN and +-inf
_EIGENVALUES = st.one_of(st.floats(1e-300, 1e6), st.sampled_from([0.0, -0.0]),
                         st.floats(-1e-4, -1e-300), st.floats(-1e3, -1e-12),
                         st.sampled_from([np.nan, np.inf, -np.inf]))
#: a spectrum (n,) or a stack (k, n) of them
_SPECTRA = st.one_of(st.integers(1, 4).map(lambda n: (n,)),
                     st.tuples(st.integers(0, 5), st.integers(1, 4))).flatmap(
    lambda shape: arrays(float, shape, elements=_EIGENVALUES))


class TestLazyTolerance:
    """The PSD tolerance is computed only for a spectrum with a negative value."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(eigs=_SPECTRA)
    def test_the_check_matches_the_eager_one_byte_for_byte(self, eigs):
        try:
            want = _check_psd_eigs_eager(eigs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _check_psd_eigs(eigs)
            if eigs.ndim == 1:
                assert str(got.value) == str(exc)
            return
        got = _check_psd_eigs(eigs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(eigs=_SPECTRA)
    def test_every_kind_evaluates_as_with_the_eager_check(self, eigs):
        n = eigs.shape[-1]
        specs = [*catalog_antinorms(n), NormSpec("operator"),
                 *(NormSpec("kyfan", k=k) for k in range(1, n + 1))]
        for spec in specs:
            with np.errstate(all="ignore"):
                with mock.patch.object(norms, "_check_psd_eigs", _check_psd_eigs_eager):
                    try:
                        want = eval_norm_from_eigs(spec, eigs)
                    except ValueError:
                        want = ValueError
                if want is ValueError:
                    with pytest.raises(ValueError):
                        eval_norm_from_eigs(spec, eigs)
                    continue
                got = eval_norm_from_eigs(spec, eigs)
            assert type(got) is type(want), spec.label()
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), spec.label()

    def test_the_error_names_the_first_failing_spectrum_of_a_stack(self):
        # row 0's -1e-9 is inside its threshold of -1e-7; row 1's -5e-10 is not
        # inside -1e-10, although it is the larger of the two smallest values
        stack = np.array([[-1e-9, 1e3], [-5e-10, 1.0]])
        with pytest.raises(ValueError, match=r"^input is not PSD: spectrum \[1\] of the stack "
                           r"has smallest eigenvalue -5\.000e-10, below -1\.000e-10$"):
            _check_psd_eigs(stack)
        with pytest.raises(ValueError, match=r"spectrum \[1, 0\] of the stack"):
            _check_psd_eigs(np.stack([stack[:1], stack[1:]]))
        with pytest.raises(ValueError, match=r"^input is not PSD: smallest eigenvalue "
                           r"-5\.000e-10$"):
            _check_psd_eigs(stack[1])
        assert np.array_equal(_check_psd_eigs(stack[0]), [0.0, 1e3])
