"""Positive linear maps, strict positivity, and the hat transform."""

import numpy as np
import pytest

from tracelab import linalg, posmaps
from tracelab.linalg import (
    DimensionMismatchError,
    MatrixError,
    PosDef,
    SamplerConfig,
    eigh,
    hermitize,
    loewner_leq,
    rng_for,
    sample_posdef,
)
from tracelab.posmaps import (
    MapSpec,
    apply_map,
    conjugation,
    hat_map,
    identity_map,
    is_strictly_positive,
    kraus_map,
    pinching,
    sample_kraus,
    transpose_then_kraus,
)


def _sample(seed, stream=0, dim=3):
    return sample_posdef(SamplerConfig(dim=dim, seed=seed, stream_index=stream))


def _gaussian(rng, n, m):
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


class TestApplyMap:
    def test_conjugation_by_identity(self):
        A = _sample(51)
        spec = conjugation(np.eye(3, dtype=complex))
        assert np.allclose(apply_map(spec, A.mat), A.mat)

    def test_kraus_on_identity_is_psd(self):
        rng = rng_for(52, 0)
        spec = kraus_map([_gaussian(rng, 3, 2), _gaussian(rng, 3, 2)])
        out = apply_map(spec, np.eye(3, dtype=complex))
        expected = sum(X.conj().T @ X for X in spec.kraus)
        assert np.allclose(out, expected)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_linearity(self):
        rng = rng_for(53, 0)
        spec = sample_kraus(3, 2, rank=2, seed=53)
        A, B = _sample(53).mat, _sample(53, 1).mat
        lhs = apply_map(spec, 2 * A + 3 * B)
        rhs = 2 * apply_map(spec, A) + 3 * apply_map(spec, B)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(lhs).max()))

    def test_pinching(self):
        P1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        P2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        spec = pinching([P1, P2])
        A = _sample(54).mat
        out = apply_map(spec, A)
        assert np.allclose(out, P1 @ A @ P1 + P2 @ A @ P2)

    @pytest.mark.parametrize("n,m,rank,transpose", [
        (3, 3, 1, False), (3, 2, 2, False), (2, 4, 6, False), (3, 3, 3, True),
        (3, 2, 2, True),
    ])
    def test_stacked_sum_equals_loop_reference(self, n, m, rank, transpose):
        rng = rng_for(70, rank)
        pieces = [_gaussian(rng, n, m) for _ in range(rank)]
        build = transpose_then_kraus if transpose else kraus_map
        A = _sample(70, rank, dim=n).mat
        src = A.T if transpose else A
        expected = np.zeros((m, m), dtype=complex)
        for X in pieces:
            expected += X.conj().T @ src @ X
        assert np.array_equal(apply_map(build(pieces), A), expected)

    @pytest.mark.parametrize("build", ["identity", "conjugation", "kraus", "pinching",
                                       "transpose-kraus"])
    def test_the_kept_adjoints_give_the_per_call_adjoints_bits(self, build):
        rng = rng_for(71, 0)
        spec = {"identity": lambda: identity_map(3),
                "conjugation": lambda: conjugation(_gaussian(rng, 3, 2)),
                "kraus": lambda: kraus_map([_gaussian(rng, 3, 4) for _ in range(3)]),
                "pinching": lambda: pinching([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]),
                "transpose-kraus": lambda: transpose_then_kraus([_gaussian(rng, 3, 3)
                                                                 for _ in range(2)])}[build]()
        for A in (_sample(71, 0).mat, np.stack([_sample(71, t).mat for t in range(5)])[None]):
            src = A.swapaxes(-1, -2) if spec.transpose else A
            adjoint = spec.kraus.conj().transpose(0, 2, 1)
            expected = (adjoint @ src[..., None, :, :] @ spec.kraus).sum(axis=-3)
            assert apply_map(spec, A).tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        spec = identity_map(2)
        with pytest.raises(DimensionMismatchError):
            apply_map(spec, np.eye(3, dtype=complex))


class TestStrictPositivity:
    def test_identity_strict(self):
        assert is_strictly_positive(identity_map(3))

    def test_rank_deficient_conjugation_not_strict(self):
        X = np.zeros((3, 3), dtype=complex)
        X[0, 0] = 1.0  # rank 1, output dim 3
        assert not is_strictly_positive(conjugation(X))

    def test_random_kraus_strict(self):
        spec = sample_kraus(3, 3, rank=2, seed=55)
        assert is_strictly_positive(spec)

    def test_map_on_identity(self):
        spec = sample_kraus(3, 2, rank=2, seed=56)
        out = spec.unit
        assert np.allclose(out, apply_map(spec, np.eye(3, dtype=complex)))


class TestHatMap:
    def test_identity_map_fixed(self):
        A = _sample(57)
        assert np.allclose(hat_map(identity_map(3), A).mat, A.mat, rtol=1e-10)

    def test_invertible_conjugation_closed_form(self):
        rng = rng_for(58, 0)
        X = _gaussian(rng, 3, 3) + 3 * np.eye(3)
        A = _sample(58)
        Xinv = np.linalg.inv(X)
        expected = Xinv @ A.mat @ Xinv.conj().T
        assert np.allclose(hat_map(conjugation(X), A).mat, expected, rtol=1e-8)

    def test_homogeneity(self):
        spec = sample_kraus(3, 3, rank=3, seed=59)
        A = _sample(59)
        for t in (0.3, 4.2):
            scaled = PosDef.from_matrix(t * A.mat)
            assert np.allclose(hat_map(spec, scaled).mat,
                               t * hat_map(spec, A).mat, rtol=1e-10)

    def test_a_singular_image_is_named_by_its_own_matrix(self):
        # the identity's image is A^-1: row 0's [1e-12, 2e-12] is above its floor of
        # 1e-13, row 1's [1e-11, 1e3] is not above its floor of 1e-10
        images = np.array([[1e-12, 2e-12], [1e-11, 1e3]])
        A = PosDef.from_spectrum(1.0 / images, np.broadcast_to(np.eye(2, dtype=complex),
                                                               (2, 2, 2)))
        hat_map(identity_map(2), A[0])
        with pytest.raises(MatrixError, match=r"^hat-map image is numerically singular: "
                                              r"eigenvalue 1\.000e-11$"):
            hat_map(identity_map(2), A[1])
        with pytest.raises(MatrixError, match=r"^hat-map image is numerically singular: "
                                              r"matrix \[1\] of the stack has smallest "
                                              r"eigenvalue 1\.000e-11, not above 1\.000e-10$"):
            hat_map(identity_map(2), A)
        with pytest.raises(MatrixError, match=r"matrix \[0, 1\] of the stack"):
            hat_map(identity_map(2), A[None])


class TestSampleKraus:
    def test_shape_that_cannot_be_strictly_positive_is_refused(self):
        # Phi(I) has rank at most rank * in_dim = 2 < out_dim = 3
        with pytest.raises(ValueError):
            sample_kraus(1, 3, rank=2, seed=0)

    def test_unit_spectral_norm_on_identity(self):
        spec = sample_kraus(3, 2, rank=2, seed=60)
        out = spec.unit
        assert np.isclose(np.linalg.eigvalsh(out)[-1], 1.0, rtol=1e-10)

    def test_deterministic(self):
        a = sample_kraus(3, 2, rank=2, seed=61, stream_index=4)
        b = sample_kraus(3, 2, rank=2, seed=61, stream_index=4)
        for Xa, Xb in zip(a.kraus, b.kraus):
            assert np.array_equal(Xa, Xb)

    @pytest.mark.parametrize("in_dim, out_dim, rank, seed, stream", [
        (2, 2, 1, 0, 0), (3, 2, 2, 61, 4), (2, 3, 2, 42, 1), (3, 3, 2, 71, 5), (4, 1, 3, 7, 9)])
    def test_one_draw_gives_the_bytes_of_a_draw_per_piece(self, monkeypatch, in_dim, out_dim,
                                                         rank, seed, stream):
        # the reference draws each piece's real part, then its imaginary part
        rng = rng_for(seed, stream)
        pieces = np.stack([(rng.standard_normal((in_dim, out_dim))
                            + 1j * rng.standard_normal((in_dim, out_dim))) / np.sqrt(2)
                           for _ in range(rank)])
        norm = float(eigh(hermitize(kraus_map(pieces).unit), vectors=False)[-1])
        ref = kraus_map(pieces / np.sqrt(norm))
        made = []
        monkeypatch.setattr(posmaps, "rng_for",
                            lambda *args: made.append(linalg.rng_for(*args)) or made[-1])
        got = sample_kraus(in_dim, out_dim, rank, seed, stream)
        assert got.kraus.tobytes() == ref.kraus.tobytes()
        assert len(made) == 1 and made[0].bit_generator.state == rng.bit_generator.state

    def test_preserves_psd(self):
        spec = sample_kraus(3, 2, rank=2, seed=62)
        rng = rng_for(62, 1)
        for _ in range(100):
            G = _gaussian(rng, 3, 3)
            out = apply_map(spec, G @ G.conj().T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestTransposeThenKraus:
    def test_positive_but_not_cp(self):
        rng = rng_for(63, 0)
        spec = transpose_then_kraus([_gaussian(rng, 3, 3)])
        assert not spec.cp
        for _ in range(50):
            G = _gaussian(rng, 3, 3)
            out = apply_map(spec, G @ G.conj().T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_cp_flag_on_other_kinds(self):
        assert identity_map(2).cp
        assert sample_kraus(2, 2, rank=1, seed=64).cp


class TestOperatorConcavityOfHatPowers:
    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_inverse_power_hat_midpoint_concave(self, p):
        # A -> Phi(A^{-p})^{-1} is operator concave for 0 <= p <= 1
        spec = sample_kraus(2, 2, rank=2, seed=65)
        for stream in range(300):
            A = _sample(65, 2 * stream, dim=2)
            B = _sample(65, 2 * stream + 1, dim=2)
            mid = PosDef.from_matrix((A.mat + B.mat) / 2)
            lhs = hat_map(spec, mid.power(p)).mat
            rhs = (hat_map(spec, A.power(p)).mat + hat_map(spec, B.power(p)).mat) / 2
            ok, witness = loewner_leq(rhs, lhs, tol=1e-8 * np.abs(lhs).max())
            assert ok, (p, stream, witness)


class TestHatConjugationIdentity:
    def test_inner_sandwich_inverse_power_identity(self):
        # hat maps turn negative exponents into positive ones inside the sandwich:
        # {hatPhi(A^p)^{1/2} hatPsi(B^q) hatPhi(A^p)^{1/2}}^s equals
        # {Phi(A^{-p})^{1/2} Psi(B^{-q}) Phi(A^{-p})^{1/2}}^{-s}
        phi = sample_kraus(3, 3, rank=3, seed=66)
        psi = sample_kraus(3, 3, rank=3, seed=67)
        A, B = _sample(66), _sample(66, 1)
        p, q, s = 0.6, 0.8, 0.7

        hp = hat_map(phi, A.power(p))
        hq = hat_map(psi, B.power(q))
        inner_hat = hp.power(0.5).mat @ hq.mat @ hp.power(0.5).mat
        lhs = PosDef.from_matrix(inner_hat).power(s).mat

        cp = PosDef.from_matrix(apply_map(phi, A.power(-p).mat))
        cq = PosDef.from_matrix(apply_map(psi, B.power(-q).mat))
        inner = cp.power(0.5).mat @ cq.mat @ cp.power(0.5).mat
        rhs = PosDef.from_matrix(inner).power(-s).mat
        assert np.allclose(np.sort(np.linalg.eigvalsh(lhs)),
                           np.sort(np.linalg.eigvalsh(rhs)), rtol=1e-8)


class TestSpecPlumbing:
    def test_serialization_roundtrip(self):
        specs = [identity_map(3),
                 conjugation(np.eye(3, dtype=complex)),
                 sample_kraus(3, 2, rank=2, seed=68),
                 pinching([np.diag([1.0, 0.0]).astype(complex),
                           np.diag([0.0, 1.0]).astype(complex)])]
        for spec in specs:
            back = MapSpec.from_dict(spec.to_dict())
            assert back.kind == spec.kind
            assert back.in_dim == spec.in_dim and back.out_dim == spec.out_dim

    def test_payload_layout_and_transpose_roundtrip(self):
        assert identity_map(2).to_dict() == {"kind": "identity", "in_dim": 2,
                                             "out_dim": 2, "cp": True}
        P = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        assert pinching(P).to_dict()["projections"][0]["dim"] == 2
        rng = rng_for(69, 0)
        spec = transpose_then_kraus([_gaussian(rng, 2, 3)])
        d = spec.to_dict()
        assert (d["cp"], d["kraus"][0]["rows"], d["kraus"][0]["cols"]) == (False, 2, 3)
        back = MapSpec.from_dict(d)
        A = _sample(69, dim=2).mat
        assert back.transpose and np.array_equal(apply_map(back, A), apply_map(spec, A))

    def test_pinching_rejects_oblique_projection(self):
        oblique = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            pinching([oblique, np.eye(2, dtype=complex) - oblique])

    def test_pinching_validation(self):
        bad = np.diag([1.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            pinching([bad, bad])
