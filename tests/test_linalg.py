"""Spectral calculus, Loewner comparisons, and seeded sampling."""

from unittest import mock

import numpy as np
import pytest

from tracelab import families, linalg, norms, posmaps
from tracelab.families import FamilySpec, ParameterPoint, eval_family
from tracelab.linalg import (
    DimensionMismatchError,
    MatrixError,
    NotHermitianError,
    NotPositiveDefiniteError,
    PosDef,
    SamplerConfig,
    loewner_leq,
    mat_from_json,
    mat_to_json,
    matrix_exp_herm,
    matrix_function,
    matrix_log,
    matrix_power,
    rng_for,
    sample_hermitian_rng,
    sample_posdef,
    sample_unitary,
)
from tracelab.means import power_mean
from tracelab.norms import NormSpec
from tracelab.posmaps import conjugation


def random_hermitian(rng, n, scale=1.0):
    return sample_hermitian_rng(rng, n, scale=scale)


class TestHermiticityChecks:
    def test_only_from_matrix_checks_hermiticity(self):
        M = np.array([[2.0, 1e-6], [0.0, 2.0]], dtype=complex)
        with pytest.raises(NotHermitianError, match="asymmetry"):
            PosDef.from_matrix(M)
        assert np.array_equal(PosDef.from_hermitian(M).mat, 0.5 * (M + M.conj().T))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(1.0, np.nan)])
    def test_a_non_finite_entry_is_refused(self, bad):
        M = np.eye(2, dtype=complex)
        M[0, 1] = M[1, 0] = bad
        with pytest.raises(MatrixError, match="non-finite"):
            linalg.check_hermitian(M)
        with pytest.raises(MatrixError, match="non-finite"):
            PosDef.from_matrix(np.full((2, 2), bad))

    def test_single_matrix_messages(self):
        with pytest.raises(NotHermitianError) as exc:
            linalg.check_hermitian(np.array([[2.0, 1e-6], [0.0, 2.0]]))
        assert str(exc.value) == ("matrix is not Hermitian: max asymmetry 1.000e-06 "
                                  "exceeds 2.000e-12")
        with pytest.raises(MatrixError) as exc:
            linalg.check_hermitian(np.full((2, 2), np.inf))
        assert str(exc.value) == "matrix has a non-finite entry (inf)"

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_a_non_square_input_is_refused(self, shape):
        with pytest.raises(DimensionMismatchError, match="expected a square matrix"):
            linalg.check_hermitian(np.zeros(shape))

    def test_each_matrix_of_a_stack_is_checked_against_its_own_scale(self):
        small = np.array([[1.0, 1e-9], [0.0, 1.0]])  # asymmetry 1e-9 > 1e-12 x 1
        stack = np.stack([np.eye(2), 1e6 * np.eye(2), small, small])
        linalg.check_hermitian(stack[:2])
        with pytest.raises(NotHermitianError) as exc:
            linalg.check_hermitian(stack)
        assert str(exc.value) == ("matrix [2] of the stack is not Hermitian: max asymmetry "
                                  "1.000e-09 exceeds 1.000e-12")
        with pytest.raises(NotHermitianError, match=r"matrix \[1, 0\] of the stack"):
            linalg.check_hermitian(stack.reshape(2, 2, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_a_non_finite_entry_anywhere_in_a_stack_is_refused(self, bad):
        stack = np.stack([np.eye(2, dtype=complex)] * 3)
        stack[1, 1, 1] = bad
        with pytest.raises(MatrixError, match=r"matrix \[1\] of the stack has a non-finite"):
            linalg.check_hermitian(stack)
        with pytest.raises(MatrixError, match="non-finite"):
            PosDef.from_matrix(stack)

    @pytest.mark.parametrize("name", ["matrix_exp_herm", "power_mean_at_0", "logexp"])
    def test_internal_constructions_run_no_hermiticity_check(self, name, monkeypatch):
        H = random_hermitian(rng_for(12, 0), 3)
        A = sample_posdef(SamplerConfig(dim=3, seed=12))
        B = sample_posdef(SamplerConfig(dim=3, seed=12, stream_index=1))
        half = conjugation(np.sqrt(0.5) * np.eye(3, dtype=complex))
        logexp = FamilySpec(family="logexp", phi=half, psi=half,
                            norm=NormSpec(kind="trace"),
                            params=ParameterPoint(1.0, 1.0, 1.0))
        call = {
            "matrix_exp_herm": lambda: matrix_exp_herm(H).mat,
            "power_mean_at_0": lambda: power_mean(A, B, 0.0).mat,
            "logexp": lambda: eval_family(logexp, A, B),
        }[name]
        expected = call()

        def refuse(M):
            raise AssertionError("check_hermitian called on an internal matrix")

        monkeypatch.setattr(linalg, "check_hermitian", refuse)
        assert np.array_equal(call(), expected)


class TestMatrixPower:
    def test_square_root_diagonal(self):
        P = PosDef.from_matrix(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(matrix_power(P, 0.5).mat, np.diag([2.0, 3.0]))

    def test_power_one_is_identity_map(self):
        rng = rng_for(12, 0)
        P = sample_posdef(SamplerConfig(dim=3, seed=5))
        assert np.allclose(matrix_power(P, 1.0).mat, P.mat, atol=1e-12)

    def test_power_zero_is_identity(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=6))
        assert np.allclose(matrix_power(P, 0.0).mat, np.eye(3))

    @pytest.mark.parametrize("t", [-1.5, 0.3, 2.0])
    def test_roundtrip(self, t):
        P = sample_posdef(SamplerConfig(dim=4, seed=7))
        back = matrix_power(matrix_power(P, t), 1.0 / t)
        assert np.allclose(back.mat, P.mat, rtol=1e-9)

    def test_power_addition_law(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=8))
        for a, b in [(0.5, 0.5), (-0.7, 1.3), (2.0, -0.5)]:
            lhs = matrix_power(P, a + b).mat
            rhs = matrix_power(P, a).mat @ matrix_power(P, b).mat
            assert np.allclose(lhs, rhs, rtol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_a_spectrum_out_of_order_is_sorted_as_argsort_sorts_it(self, dim):
        # a negative power's strictly descending spectrum, and one with a tie
        P = _stack(dim, 145)
        tied = P.eigs[..., ::-1].copy()
        tied[..., 1] = tied[..., 0]
        for eigs in (P.eigs**-0.5, tied):
            order = eigs.argsort(axis=-1)
            Q = PosDef.from_spectrum(eigs, P.vecs)
            assert Q.eigs.tobytes() == np.take_along_axis(eigs, order, axis=-1).tobytes()
            ref = np.take_along_axis(P.vecs, order[..., None, :], axis=-1)
            assert Q.vecs.tobytes() == ref.tobytes() and Q.vecs.flags.c_contiguous

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.9])
    def test_loewner_monotone_on_unit_interval(self, t):
        rng = rng_for(13, 0)
        for trial in range(50):
            A = sample_posdef(SamplerConfig(dim=3, seed=100 + trial))
            G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            B = PosDef.from_matrix(A.mat + G @ G.conj().T)
            ok, witness = loewner_leq(matrix_power(A, t).mat,
                                      matrix_power(B, t).mat, tol=1e-9)
            assert ok, f"witness {witness} at trial {trial}"


class TestMatrixFunction:
    def test_log_diagonal(self):
        P = PosDef.from_matrix(np.diag([1.0, np.e]).astype(complex))
        assert np.allclose(matrix_log(P), np.diag([0.0, 1.0]), atol=1e-12)

    def test_exp_of_zero(self):
        Z = np.zeros((3, 3), dtype=complex)
        out = matrix_function(PosDef.from_matrix(np.eye(3, dtype=complex)),
                              lambda x: 1.0)
        assert np.allclose(out, np.eye(3))
        from tracelab.linalg import matrix_exp_herm

        assert np.allclose(matrix_exp_herm(Z).mat, np.eye(3))

    def test_exp_log_roundtrip(self):
        P = sample_posdef(SamplerConfig(dim=4, seed=9))
        from tracelab.linalg import matrix_exp_herm

        assert np.allclose(matrix_exp_herm(matrix_log(P)).mat, P.mat, rtol=1e-9)

    def test_power_cross_check(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=10))
        for s in (0.3, -1.2, 2.5):
            via_fn = matrix_function(P, lambda x: x**s)
            assert np.allclose(via_fn, matrix_power(P, s).mat, rtol=1e-12)

    def test_nonfinite_value_names_eigenvalue(self):
        P = PosDef.from_matrix(np.diag([1.0, 2.0]).astype(complex))
        with np.errstate(divide="ignore"), pytest.raises(MatrixError, match="1.0"):
            matrix_function(P, lambda x: np.log(x - 1.0))

    def test_unitary_equivariance(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=11))
        U = sample_unitary(3, seed=11, stream_index=1)
        conj = PosDef.from_matrix(U @ P.mat @ U.conj().T)
        lhs = matrix_function(conj, np.sqrt)
        rhs = U @ matrix_function(P, np.sqrt) @ U.conj().T
        assert np.allclose(lhs, rhs, rtol=1e-9)


def _built(P: PosDef) -> bool:
    """Whether P's matrix has been built (PosDef keeps it in its _mat slot)."""
    return P._mat is not None


def _stack(dim, seed):
    """A (2, 7, dim, dim) stack, as the Loewner blocks build their inputs."""
    rng = rng_for(seed, dim)
    draws = [[linalg.draw_posdef(rng, dim) for _ in range(7)] for _ in range(2)]
    return linalg.build_posdef(*(np.array([[d[i] for d in row] for row in draws])
                                 for i in (0, 1)))


class TestLazyMatrix:
    """A PosDef builds its matrix on the first read of .mat, and only then."""

    @pytest.mark.parametrize("name", ["from_spectrum", "matrix_exp_herm", "power",
                                      "inverse", "row", "rows"])
    def test_a_matrix_is_built_on_its_first_read(self, name):
        P = _stack(3, 141)
        H = random_hermitian(rng_for(141, 1), 3)
        Q = {"from_spectrum": lambda: P,
             "matrix_exp_herm": lambda: matrix_exp_herm(H),
             "power": lambda: matrix_power(P, 0.3),
             "inverse": lambda: P.inv(),
             "row": lambda: P[1, 4],
             "rows": lambda: P[0]}[name]()
        assert (Q.dim, Q.shape) == (3, Q.vecs.shape) and not _built(Q)
        expected = linalg.hermitize((Q.vecs * Q.eigs[..., None, :])
                                    @ Q.vecs.conj().swapaxes(-1, -2))
        M = Q.mat
        assert _built(Q) and Q.mat is M and M.tobytes() == expected.tobytes()

    def test_a_constructor_that_has_the_matrix_keeps_it(self):
        M = sample_posdef(SamplerConfig(dim=3, seed=142)).mat
        P = PosDef.from_hermitian(M)
        assert _built(P) and np.array_equal(P.mat, M)
        assert matrix_power(P, 1.0) is P
        assert _built(matrix_power(P, 0.0))
        assert np.array_equal(matrix_power(P, 0.0).mat, np.eye(3))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("stack_first", [False, True])
    def test_a_row_matrix_equals_the_row_of_the_stack_matrix(self, dim, stack_first):
        P, ref = _stack(dim, 143), _stack(dim, 143).mat
        if stack_first:
            assert P.mat.tobytes() == ref.tobytes()
        for j in range(2):
            assert P[j].mat.tobytes() == ref[j].tobytes()
            for t in range(7):
                assert P[j, t].mat.tobytes() == ref[j, t].tobytes()
                assert P[j][t].mat.tobytes() == ref[j, t].tobytes()
        assert _built(P) == stack_first

    def test_logexp_builds_no_matrix_of_its_exponential(self, monkeypatch):
        made = []

        def recorded(H):
            made.append(matrix_exp_herm(H))
            return made[-1]

        monkeypatch.setattr(families, "matrix_exp_herm", recorded)
        half = conjugation(np.sqrt(0.5) * np.eye(3, dtype=complex))
        logexp = FamilySpec(family="logexp", phi=half, psi=half, norm=NormSpec(kind="trace"),
                            params=ParameterPoint(1.0, 1.0, 1.0))
        A = sample_posdef(SamplerConfig(dim=3, seed=144))
        B = sample_posdef(SamplerConfig(dim=3, seed=144, stream_index=1))
        value = eval_family(logexp, A, B)
        assert len(made) == 1 and not _built(made[0])
        assert np.isclose(value, np.sum(made[0].eigs), rtol=1e-12)


class TestLoewnerLeq:
    def test_zero_below_identity(self):
        ok, witness = loewner_leq(np.zeros((2, 2), dtype=complex),
                                  np.eye(2, dtype=complex), tol=0.0)
        assert ok and np.isclose(witness, 1.0)

    def test_identity_not_below_zero(self):
        ok, witness = loewner_leq(np.eye(2, dtype=complex),
                                  np.zeros((2, 2), dtype=complex), tol=0.0)
        assert not ok and np.isclose(witness, -1.0)

    def test_psd_shift_respected(self):
        rng = rng_for(14, 0)
        for trial in range(30):
            A = random_hermitian(rng, 3)
            G = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            ok, _ = loewner_leq(A, A + G @ G.conj().T, tol=1e-10)
            assert ok

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_leq(np.eye(2, dtype=complex), np.eye(3, dtype=complex), tol=0.0)


class TestSampling:
    def test_posdef_invariants(self):
        P = sample_posdef(SamplerConfig(dim=4, seed=1))
        assert P.eigs[0] > 0
        assert np.allclose(P.vecs @ np.diag(P.eigs) @ P.vecs.conj().T, P.mat,
                           rtol=1e-10)
        assert np.allclose(P.vecs.conj().T @ P.vecs, np.eye(4), atol=1e-10)

    def test_determinism(self):
        a = sample_posdef(SamplerConfig(dim=3, seed=2, stream_index=5))
        b = sample_posdef(SamplerConfig(dim=3, seed=2, stream_index=5))
        assert np.array_equal(a.mat, b.mat)
        c = sample_posdef(SamplerConfig(dim=3, seed=2, stream_index=6))
        assert not np.array_equal(a.mat, c.mat)

    def test_eigenvalue_range(self):
        lo, hi = np.inf, -np.inf
        for stream in range(10_000):
            rng = rng_for(3, stream)
            eigs = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
            lo, hi = min(lo, eigs.min()), max(hi, eigs.max())
        assert lo >= 0.1 and hi <= 10.0
        # and the sampler itself respects the configured range
        for stream in range(200):
            P = sample_posdef(SamplerConfig(dim=3, seed=3, stream_index=stream))
            assert P.eigs[0] >= 0.1 - 1e-9 and P.eigs[-1] <= 10.0 + 1e-9

    def test_unitary_scalar_case(self):
        u = sample_unitary(1, seed=4, stream_index=0)
        assert np.isclose(np.abs(u[0, 0]), 1.0)

    def test_unitary_is_unitary(self):
        U = sample_unitary(5, seed=4, stream_index=1)
        assert np.allclose(U @ U.conj().T, np.eye(5), atol=1e-10)

    def test_unitary_conjugation_preserves_spectrum(self):
        D = np.diag([1.0, 2.0, 3.0]).astype(complex)
        U = sample_unitary(3, seed=4, stream_index=2)
        eigs = np.linalg.eigvalsh(U @ D @ U.conj().T)
        assert np.allclose(np.sort(eigs), [1.0, 2.0, 3.0], atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_complex_draws_equal_two_generator_calls(self, dim):
        # one standard_normal((2, n, n)) per complex Gaussian gives the bytes and
        # the generator state of a call for the real part, then one for the imaginary
        for seed, stream in ((0, 0), (7, 3), (2**40 + 1, 12345), (99, 2**20)):
            one, two = rng_for(seed, stream), rng_for(seed, stream)
            re, im = two.standard_normal((dim, dim)), two.standard_normal((dim, dim))
            assert (linalg._complex_gaussian(dim, one).tobytes()
                    == ((re + 1j * im) / np.sqrt(2)).tobytes())
            assert one.bit_generator.state == two.bit_generator.state
            re, im = two.standard_normal((dim, dim)), two.standard_normal((dim, dim))
            assert (sample_hermitian_rng(one, dim, 0.7).tobytes()
                    == (linalg.hermitize(re + 1j * im) * 0.7).tobytes())
            assert one.bit_generator.state == two.bit_generator.state

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_a_block_of_raw_draws_builds_each_matrix_as_alone(self, dim):
        # draw_posdef keeps its draws raw; build_posdef forms the complex Gaussians of a
        # whole block, whose rows are the matrices built one by one from the same stream
        log_low, log_high = np.log(linalg.EIG_LOW), np.log(linalg.EIG_HIGH)
        for seed, stream in ((0, 0), (7, 3), (2**40 + 1, 12345), (99, 2**20)):
            one, two = rng_for(seed, stream), rng_for(seed, stream)
            draws = [linalg.draw_posdef(one, dim) for _ in range(5)]
            block = linalg.build_posdef(*(np.array([d[i] for d in draws]) for i in (0, 1)))
            for t in range(5):
                u = two.uniform(log_low, log_high, dim)
                re, im = two.standard_normal((dim, dim)), two.standard_normal((dim, dim))
                alone = PosDef.from_spectrum(
                    np.exp(u), linalg._haar_unitary((re + 1j * im) / np.sqrt(2)))
                assert block.eigs[t].tobytes() == alone.eigs.tobytes()
                assert block.vecs[t].tobytes() == alone.vecs.tobytes()
                assert block.mat[t].tobytes() == alone.mat.tobytes()
            assert one.bit_generator.state == two.bit_generator.state


def _vec_to_herm_loops(v, dim):
    """The entry-by-entry vec_to_herm, kept as its reference."""
    M = np.zeros((dim, dim), dtype=complex)
    M[np.diag_indices(dim)] = v[:dim]
    idx = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            a, b = v[idx], v[idx + 1]
            M[i, j] = a + 1j * b
            M[j, i] = a - 1j * b
            idx += 2
    return M


def _herm_grad_to_vec_loops(K):
    """The entry-by-entry herm_grad_to_vec, kept as its reference."""
    dim = K.shape[0]
    v = np.empty(dim * dim)
    v[:dim] = np.diagonal(K).real
    idx = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            v[idx] = 2.0 * K[i, j].real
            v[idx + 1] = 2.0 * K[i, j].imag
            idx += 2
    return v


def _with_signed_zeros(rng, shape):
    """Gaussian entries, about a quarter of them +0.0 and a quarter -0.0."""
    x = rng.normal(size=shape)
    pick = rng.integers(0, 4, size=shape)
    x[pick == 0] = 0.0
    x[pick == 1] = -0.0
    return x


def _bitwise_equal(x, y):
    parts = lambda z: (z.real, z.imag) if np.iscomplexobj(z) else (z,)
    return x.dtype == y.dtype and all(
        np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        for a, b in zip(parts(x), parts(y)))


class TestHermitianParametrization:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_vec_to_herm_equals_the_loops(self, dim):
        rng = rng_for(131, dim)
        for _ in range(50):
            v = _with_signed_zeros(rng, dim * dim)
            assert _bitwise_equal(linalg.vec_to_herm(v, dim), _vec_to_herm_loops(v, dim))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_vec_to_herm_of_a_stack_is_that_of_its_rows(self, dim):
        V = _with_signed_zeros(rng_for(133, dim), (6, 5, dim * dim))
        M = linalg.vec_to_herm(V, dim)
        assert M.shape == (6, 5, dim, dim)
        assert all(_bitwise_equal(M[i, j], _vec_to_herm_loops(V[i, j], dim))
                   for i in range(6) for j in range(5))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_herm_grad_to_vec_equals_the_loops(self, dim):
        rng = rng_for(132, dim)
        for _ in range(50):
            K = np.empty((dim, dim), dtype=complex)
            K.real = _with_signed_zeros(rng, (dim, dim))
            K.imag = _with_signed_zeros(rng, (dim, dim))
            assert _bitwise_equal(linalg.herm_grad_to_vec(K), _herm_grad_to_vec_loops(K))


def _vec_to_herm_assign(v, dim):
    """vec_to_herm by index assignment (zeros, then the diagonal and the two
    triangles), kept as the reference of its gather table."""
    M = np.zeros((*v.shape[:-1], dim, dim), dtype=complex)
    M[(..., *np.diag_indices(dim))] = v[..., :dim]
    i, j = np.triu_indices(dim, 1)
    re, im = v[..., dim::2], v[..., dim + 1::2]
    M[..., i, j] = re + 1j * im
    M[..., j, i] = re - 1j * im
    return M


def _same_outcome(fn, reference):
    """fn() and reference() give the same arrays byte for byte, or fn raises the
    MatrixError that wraps reference's LinAlgError."""
    try:
        expected = reference()
    except np.linalg.LinAlgError as exc:
        with pytest.raises(MatrixError, match=f"^eigensolver failed: {exc}$"):
            fn()
        return
    got = fn()
    expected = tuple(expected) if isinstance(expected, tuple) else (expected,)
    got = got if isinstance(got, tuple) else (got,)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _from_spectrum_methods(eigs, vecs):
    """PosDef.from_spectrum's checks and ordering written with the ndarray methods,
    as they were: the reference of its ufunc reductions."""
    eigs = np.asarray(eigs, dtype=float)
    if (eigs <= 0).any():
        raise NotPositiveDefiniteError(f"spectrum contains a non-positive value: {eigs.min():.3e}")
    vecs = np.asarray(vecs, dtype=complex)
    if not (eigs[..., 1:] > eigs[..., :-1]).all():
        if (eigs[..., 1:] < eigs[..., :-1]).all():
            eigs, vecs = eigs[..., ::-1].copy(), vecs[..., ::-1].copy()
        else:
            vecs = np.take_along_axis(vecs, eigs.argsort(axis=-1)[..., None, :], axis=-1)
            eigs = np.sort(eigs, axis=-1)
    return eigs, vecs


def _check_psd_eigs_methods(eigs):
    """norms._check_psd_eigs with its negative test written as ``.any()``."""
    eigs = np.sort(np.asarray(eigs, dtype=float), axis=-1)
    if (eigs[..., :1] < 0).any():
        low = eigs[..., 0]
        threshold = -1e-10 * np.fmax(1.0, np.abs(eigs).max(axis=-1))
        bad = np.flatnonzero(low < threshold)
        if bad.size:
            if eigs.ndim == 1:
                raise ValueError(f"input is not PSD: smallest eigenvalue {low:.3e}")
            at = np.unravel_index(bad[0], low.shape)
            raise ValueError(
                f"input is not PSD: spectrum {list(map(int, at))} of the stack has "
                f"smallest eigenvalue {low[at]:.3e}, below {threshold[at]:.3e}")
    return np.maximum(eigs, 0.0)


def _norm_methods(spec, eigs):
    """eval_norm_from_eigs with _check_psd_eigs_methods, and the sums of trace and
    the Ky Fan kinds written as ``.sum(axis=-1)``."""
    if spec.kind not in ("trace", "kyfan", "kyfan-anti"):
        with mock.patch.object(norms, "_check_psd_eigs", _check_psd_eigs_methods):
            return norms.eval_norm_from_eigs(spec, eigs)
    lam = _check_psd_eigs_methods(eigs)
    n = lam.shape[-1]
    if spec.k is not None and spec.k > n:
        raise ValueError(f"k = {spec.k} out of range for dimension {n}")
    part = {"trace": lambda: lam, "kyfan": lambda: lam[..., n - spec.k:],
            "kyfan-anti": lambda: lam[..., :spec.k]}[spec.kind]()
    value = part.sum(axis=-1)
    return float(value) if value.ndim == 0 else value


def _same_result(fn, reference, message=True):
    """fn() raises what reference() raises, with its message unless message is
    False, or returns the same values byte for byte (a tuple of arrays, an array
    or a float)."""
    try:
        expected = reference()
    except Exception as exc:  # the reference's exception, whichever it is
        with pytest.raises(type(exc)) as got:
            fn()
        assert type(got.value) is type(exc)
        if message:
            assert str(got.value) == str(exc)
        return
    got = fn()
    assert type(got) is type(expected)
    for a, b in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, expected))):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: the values of the edge-value spectra: both zeros, a subnormal, huge, +-inf, NaN
_EDGE_VALUES = np.array([np.nan, 0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0, 3.0, 1e308, np.inf,
                         -1.0, -np.inf, -1e-11])
#: shapes of spectra (n,) and stacks (..., n), n = 0 and empty stacks among them
_EDGE_SHAPES = [(0,), (1,), (3,), (0, 0), (0, 3), (4, 0), (1, 1), (5, 2), (6, 3), (2, 0, 3),
                (2, 3, 0), (2, 4, 3)]


def _edge_spectra(seed):
    """Spectra of every shape in _EDGE_SHAPES: drawn from _EDGE_VALUES, from its
    positive values, ascending and descending rows with ties among them, and stacks
    of ascending and descending rows mixed."""
    rng = rng_for(seed, 0)
    positive = _EDGE_VALUES[(_EDGE_VALUES > 0) | np.isnan(_EDGE_VALUES)]
    for shape in _EDGE_SHAPES:
        for _ in range(40):
            yield rng.choice(_EDGE_VALUES, size=shape)
            yield rng.choice(positive, size=shape)
            up = np.sort(rng.choice(positive[1:], size=shape), axis=-1)
            yield up
            yield up[..., ::-1].copy()
            mixed = up.copy()
            if mixed.ndim > 1:
                mixed[..., ::2, :] = mixed[..., ::2, ::-1]
            yield mixed


class TestLeanSpectralCore:
    """Each trim of the spectral core against the code it replaced, byte for byte."""

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 2), (5, 3, 3), (2, 4, 2, 2)])
    @pytest.mark.parametrize("special", [None, np.nan, np.inf, -np.inf, 1e300])
    def test_eigh_equals_numpy(self, dtype, shape, special):
        rng = rng_for(140, len(shape))
        for _ in range(10):
            M = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)
            H = (M + M.conj().swapaxes(-1, -2)).astype(dtype)
            if special is not None:
                H[..., -1, 0] = special
            with np.errstate(all="ignore"):
                _same_outcome(lambda: linalg.eigh(H), lambda: np.linalg.eigh(H))
                _same_outcome(lambda: linalg.eigh(H, vectors=False),
                              lambda: np.linalg.eigvalsh(H))

    def test_eigh_of_an_all_nan_matrix_is_what_numpy_gives(self):
        H = np.full((3, 3), np.nan, dtype=complex)
        _same_outcome(lambda: linalg.eigh(H), lambda: np.linalg.eigh(H))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_vec_to_herm_equals_index_assignment(self, dim):
        rng = rng_for(142, dim)
        V = _with_signed_zeros(rng, (7, 2, dim * dim))
        assert linalg.vec_to_herm(V, dim).tobytes() == _vec_to_herm_assign(V, dim).tobytes()
        W = V.swapaxes(0, 1)  # not contiguous, as lab._log_pairs passes it
        assert linalg.vec_to_herm(W, dim).tobytes() == _vec_to_herm_assign(W, dim).tobytes()

    @pytest.mark.parametrize("dim", [3, 4])
    def test_matrix_exp_herm_reprojects_because_hermitize_is_not_idempotent(self, dim):
        # with exact zeros, some outputs of hermitize and of vec_to_herm are moved by
        # hermitize (a zero's sign changes triangle), and eigh's eigenvalues can
        # follow; so matrix_exp_herm keeps hermitizing what it is given
        rng = rng_for(143, dim)
        moved = {"hermitize": 0, "vec_to_herm": 0}
        for _ in range(300):
            M = np.empty((dim, dim), dtype=complex)
            M.real = _with_signed_zeros(rng, (dim, dim))
            M.imag = _with_signed_zeros(rng, (dim, dim))
            for source, H in (
                    ("hermitize", linalg.hermitize(M)),
                    ("vec_to_herm", linalg.vec_to_herm(_with_signed_zeros(rng, dim * dim), dim))):
                w = linalg.eigh(linalg.hermitize(H))[0]
                moved[source] += w.tobytes() != linalg.eigh(H)[0].tobytes()
                assert matrix_exp_herm(H).eigs.tobytes() == np.exp(w).tobytes()
        assert moved["hermitize"] > 0 and moved["vec_to_herm"] > 0

    def test_from_spectrum_reduces_as_the_methods_did(self):
        rng = rng_for(146, 0)
        for eigs in _edge_spectra(146):
            n = eigs.shape[-1]
            vecs = rng.normal(size=(*eigs.shape, n)) + 1j * rng.normal(size=(*eigs.shape, n))
            # with NaN in a failing stack, the error now names the smallest other value
            message = not (np.isnan(eigs).any() and (eigs <= 0).any())
            _same_result(lambda: (lambda P: (P.eigs, P.vecs))(PosDef.from_spectrum(eigs, vecs)),
                         lambda: _from_spectrum_methods(eigs, vecs), message)

    def test_from_spectrum_names_the_non_positive_value_next_to_nan(self):
        vecs = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2))
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^spectrum contains a non-positive value: -1\.000e\+00$"):
            PosDef.from_spectrum(np.array([[np.nan, 1.0], [-1.0, 2.0]]), vecs)
        with pytest.raises(NotPositiveDefiniteError, match=r": -0\.000e\+00$"):
            PosDef.from_spectrum(np.array([0.0, -0.0]), vecs[0])  # min's zero, as before

    def test_the_psd_check_and_every_norm_kind_reduce_as_the_methods_did(self):
        for eigs in _edge_spectra(147):
            n = eigs.shape[-1]
            specs = [*norms.catalog_antinorms(max(n, 2)), NormSpec("operator"),
                     NormSpec("schatten-quasi", p=0.3), NormSpec("neg-schatten", p=2.5),
                     *(NormSpec("kyfan", k=k) for k in range(1, max(n, 2) + 1))]
            with np.errstate(all="ignore"):
                _same_result(lambda: norms._check_psd_eigs(eigs),
                             lambda: _check_psd_eigs_methods(eigs))
                for spec in specs:
                    _same_result(lambda: norms.eval_norm_from_eigs(spec, eigs),
                                 lambda: _norm_methods(spec, eigs))

    @pytest.mark.parametrize("n,m,rank", [(1, 1, 1), (3, 3, 1), (3, 2, 2), (2, 4, 3)])
    def test_kraus_sum_of_a_stack_is_the_method_sum(self, n, m, rank):
        rng = rng_for(148, rank)
        values = _EDGE_VALUES[~np.isin(_EDGE_VALUES, [5e-324, 1e-310])]
        kraus = rng.normal(size=(rank, n, m)) + 1j * rng.normal(size=(rank, n, m))
        adjoint = kraus.conj().transpose(0, 2, 1)
        for shape in [(n, n), (5, n, n), (2, 3, n, n), (0, n, n)]:
            src = np.empty(shape, dtype=complex)
            src.real, src.imag = rng.choice(values, size=(2, *shape))
            with np.errstate(all="ignore"):
                expected = (adjoint @ src[..., None, :, :] @ kraus).sum(axis=-3)
                got = posmaps._kraus_sum(adjoint, src, kraus)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("outer", ["ignore", "warn", "raise"])
    @pytest.mark.parametrize("special", [None, np.nan, np.inf, 1e300])
    @pytest.mark.filterwarnings("error")  # eigh warns of nothing, as np.linalg.eigh
    def test_eigh_ignores_the_callers_error_state_and_restores_it(self, outer, special):
        rng = rng_for(149, 0)
        for shape in [(3, 3), (4, 2, 2)]:
            M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            H = M + M.conj().swapaxes(-1, -2)
            if special is not None:
                H[..., -1, 0] = special
            for dtype in (complex, float):
                A = H.astype(dtype) if dtype is complex else H.real.copy()
                with np.errstate(all=outer):
                    before = np.geterr()
                    _same_outcome(lambda: linalg.eigh(A), lambda: np.linalg.eigh(A))
                    _same_outcome(lambda: linalg.eigh(A, vectors=False),
                                  lambda: np.linalg.eigvalsh(A))
                    assert np.geterr() == before

    def test_haar_unitary_fixes_phases_in_place_as_the_two_array_formula(self):
        Z = np.stack([linalg._complex_gaussian(8, rng_for(145, t)) for t in range(60)])
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R, axis1=-2, axis2=-1)
        expected = Q * (d / np.abs(d))[..., None, :]
        assert linalg._haar_unitary(Z).tobytes() == expected.tobytes()
        assert linalg._haar_unitary(Z[0]).tobytes() == expected[0].tobytes()


class TestSerialization:
    def test_json_roundtrip(self):
        P = sample_posdef(SamplerConfig(dim=3, seed=5))
        d = mat_to_json(P.mat)
        assert d["dim"] == 3 and "re" in d and "im" in d
        assert np.array_equal(mat_from_json(d), P.mat)
