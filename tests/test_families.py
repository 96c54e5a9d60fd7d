"""Functional families and the variational trace formula."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import means, norms
from tracelab.families import (
    READS,
    EvaluationError,
    FamilySpec,
    ParameterPoint,
    _floored_eigs,
    eval_family,
    variational_min,
    variational_value,
)
from tracelab.linalg import (
    NotPositiveDefiniteError,
    PosDef,
    SamplerConfig,
    rng_for,
    sample_posdef,
    sample_unitary,
)
from tracelab.means import MeanSpec
from tracelab.norms import NormSpec
from tracelab.posmaps import (
    apply_map,
    conjugation,
    identity_map,
    pinching,
    sample_kraus,
    transpose_then_kraus,
)


def _sample(seed, stream=0, dim=2):
    return sample_posdef(SamplerConfig(dim=dim, seed=seed, stream_index=stream))


def _diag(*vals):
    return PosDef.from_matrix(np.diag(vals).astype(complex))


TRACE = NormSpec(kind="trace")


def lieb_family(p, q, s, phi=None, psi=None, norm=TRACE, dim=2):
    return FamilySpec(family="lieb", phi=phi or identity_map(dim),
                      psi=psi or identity_map(dim), norm=norm,
                      params=ParameterPoint(p, q, s))


class TestLieb:
    def test_identity_maps_at_identity_inputs(self):
        fam = lieb_family(1.0, 1.0, 1.0)
        I2 = PosDef.from_matrix(np.eye(2, dtype=complex))
        assert np.isclose(eval_family(fam, I2, I2), 2.0)

    def test_conjugation_direct_formula(self):
        # with a conjugation map and s = 1 the sandwich collapses under the
        # trace to Tr X*A^p X B^q
        rng = rng_for(71, 0)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A, B = _sample(71), _sample(71, 1)
        p, q = 0.7, 1.3
        fam = lieb_family(p, q, 1.0, phi=conjugation(X))
        direct = np.trace(X.conj().T @ A.power(p).mat @ X @ B.power(q).mat).real
        assert np.isclose(eval_family(fam, A, B), direct, rtol=1e-10)

    def test_homogeneity_degree(self):
        p, q, s = 0.6, 0.9, 0.5
        fam = lieb_family(p, q, s, phi=sample_kraus(2, 2, rank=2, seed=72),
                          psi=sample_kraus(2, 2, rank=2, seed=73))
        A, B = _sample(72), _sample(72, 1)
        base = eval_family(fam, A, B)
        for t in (0.4, 2.5):
            scaled = eval_family(fam, PosDef.from_matrix(t * A.mat),
                                 PosDef.from_matrix(t * B.mat))
            assert np.isclose(scaled, t ** ((p + q) * s) * base, rtol=1e-9)

    def test_trace_and_opnorm_swap_symmetry(self):
        phi = sample_kraus(2, 2, rank=2, seed=74)
        psi = sample_kraus(2, 2, rank=2, seed=75)
        A, B = _sample(74), _sample(74, 1)
        p, q, s = 0.8, 0.5, 0.9
        for norm_kind in ("trace", "operator"):
            norm = NormSpec(kind=norm_kind)
            fwd = FamilySpec(family="lieb", phi=phi, psi=psi, norm=norm,
                             params=ParameterPoint(p, q, s))
            rev = FamilySpec(family="lieb", phi=psi, psi=phi, norm=norm,
                             params=ParameterPoint(q, p, s))
            assert np.isclose(eval_family(fwd, A, B), eval_family(rev, B, A),
                              rtol=1e-9)


class TestMeanFamily:
    def test_arithmetic_same_input_collapses(self):
        p, s = 0.7, 1.3
        fam = FamilySpec(family="mean", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, mean=MeanSpec(kind="arithmetic"),
                         params=ParameterPoint(p, p, s))
        A = _sample(76)
        expected = np.sum(A.eigs ** (p * s))
        assert np.isclose(eval_family(fam, A, A), expected, rtol=1e-10)

    def test_sum_combiner_matches_block_epstein(self):
        # Tr(A^p + B^p)^{1/p} through the sum combiner equals the same value
        # computed by embedding (A, B) as a block diagonal and compressing
        p = 0.7
        fam = FamilySpec(family="mean", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, mean=MeanSpec(kind="sum"),
                         params=ParameterPoint(p, p, 1.0 / p))
        A, B = _sample(77), _sample(77, 1)
        via_sum = eval_family(fam, A, B)

        X = np.vstack([np.eye(2), np.eye(2)]).astype(complex)  # 4x2 embedding
        block = PosDef.from_matrix(
            np.block([[A.mat, np.zeros((2, 2))], [np.zeros((2, 2)), B.mat]])
        )
        eps = FamilySpec(family="epstein", phi=conjugation(X), norm=TRACE,
                         params=ParameterPoint(p, 0.0, 1.0 / p))
        assert np.isclose(via_sum, eval_family(eps, block), rtol=1e-10)

    def test_sum_is_scaled_arithmetic(self):
        p, q, s = 0.5, 0.8, 1.2
        common = dict(phi=identity_map(2), psi=identity_map(2), norm=TRACE,
                      params=ParameterPoint(p, q, s))
        fam_sum = FamilySpec(family="mean", mean=MeanSpec(kind="sum"), **common)
        fam_avg = FamilySpec(family="mean", mean=MeanSpec(kind="arithmetic"), **common)
        A, B = _sample(78), _sample(78, 1)
        assert np.isclose(eval_family(fam_sum, A, B),
                          2.0**s * eval_family(fam_avg, A, B), rtol=1e-10)


class TestEpstein:
    def test_identity_map_trace(self):
        p, s = 0.6, 1.4
        fam = FamilySpec(family="epstein", phi=identity_map(2), norm=TRACE,
                         params=ParameterPoint(p, 0.0, s))
        A = _sample(79)
        assert np.isclose(eval_family(fam, A), np.sum(A.eigs ** (p * s)), rtol=1e-10)

    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_block_identity(self, p):
        # direct formula for Tr(A^p + B^p)^{1/p} vs the block evaluation
        X = np.vstack([np.eye(2), np.eye(2)]).astype(complex)
        fam = FamilySpec(family="epstein", phi=conjugation(X), norm=TRACE,
                         params=ParameterPoint(p, 0.0, 1.0 / p))
        A, B = _sample(80), _sample(80, 1)
        block = PosDef.from_matrix(
            np.block([[A.mat, np.zeros((2, 2))], [np.zeros((2, 2)), B.mat]])
        )
        direct = np.sum(np.linalg.eigvalsh(
            PosDef.from_matrix(A.power(p).mat + B.power(p).mat).power(1 / p).mat))
        assert np.isclose(eval_family(fam, block), direct, rtol=1e-10)

    def test_operator_norm_gives_top_eigenvalue_power(self):
        p, s = 0.8, 1.5
        fam = FamilySpec(family="epstein", phi=identity_map(2),
                         norm=NormSpec(kind="operator"),
                         params=ParameterPoint(p, 0.0, s))
        A = _sample(81)
        assert np.isclose(eval_family(fam, A), A.eigs[-1] ** (p * s), rtol=1e-10)

    def test_homogeneity_degree(self):
        p, s = 1.3, 0.6
        fam = FamilySpec(family="epstein", phi=sample_kraus(2, 2, rank=2, seed=82),
                         norm=TRACE, params=ParameterPoint(p, 0.0, s))
        A = _sample(82)
        base = eval_family(fam, A)
        for t in (0.3, 5.0):
            scaled = eval_family(fam, PosDef.from_matrix(t * A.mat))
            assert np.isclose(scaled, t ** (p * s) * base, rtol=1e-9)


class TestLogExp:
    def _family(self, norm=TRACE):
        half = conjugation(np.sqrt(0.5) * np.eye(2, dtype=complex))
        return FamilySpec(family="logexp", phi=half, psi=half, norm=norm,
                          params=ParameterPoint(1.0, 1.0, 1.0))

    def test_identity_inputs(self):
        I2 = PosDef.from_matrix(np.eye(2, dtype=complex))
        assert np.isclose(eval_family(self._family(), I2, I2), 2.0)

    def test_commuting_diagonal_geometric_spectrum(self):
        A, B = _diag(1.0, 4.0), _diag(9.0, 1.0)
        val = eval_family(self._family(), A, B)
        assert np.isclose(val, 3.0 + 2.0, rtol=1e-10)  # sqrt(1*9) + sqrt(4*1)

    def test_unitality_enforced(self):
        fam = FamilySpec(family="logexp", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, params=ParameterPoint(1.0, 1.0, 1.0))
        A = _sample(83)
        with pytest.raises(Exception, match=r"Phi\(I\) \+ Psi\(I\)"):
            eval_family(fam, A, A)

    def test_small_exponent_limit(self):
        # exp{Phi(log A)+Psi(log B)} is the p->0 limit of {Phi(A^p)+Psi(B^p)}^{1/p}
        fam = self._family()
        A, B = _sample(84), _sample(84, 1)
        at_limit = eval_family(fam, A, B)
        p = 1e-4
        half = conjugation(np.sqrt(0.5) * np.eye(2, dtype=complex))
        approx_mat = PosDef.from_matrix(
            apply_map(half, A.power(p).mat) + apply_map(half, B.power(p).mat)
        ).power(1.0 / p)
        approx = float(np.sum(approx_mat.eigs))
        assert np.isclose(approx, at_limit, rtol=1e-3)

    def test_homogeneity_degree_one(self):
        fam = self._family()
        A, B = _sample(85), _sample(85, 1)
        base = eval_family(fam, A, B)
        t = 3.3
        scaled = eval_family(fam, PosDef.from_matrix(t * A.mat),
                             PosDef.from_matrix(t * B.mat))
        assert np.isclose(scaled, t * base, rtol=1e-9)


_SEEDS = st.integers(0, 2**32 - 1)
_ORACLE = settings(max_examples=30, deadline=None, derandomize=True)
_EXPONENTS = st.floats(-1.5, 1.5)
_S = st.floats(0.1, 1.5) | st.floats(-1.5, -0.1)
#: norms and anti-norms of every kind, with k <= 2
_NORM_LIST = [TRACE, NormSpec("operator"), NormSpec("kyfan", k=2), NormSpec("lambda-min"),
              NormSpec("kyfan-anti", k=1), NormSpec("minkowski", k=2),
              NormSpec("schatten-quasi", p=0.5), NormSpec("neg-schatten", p=1.0)]
_MEAN_LIST = [MeanSpec("geometric", t=0.5), MeanSpec("geometric", t=0.2),
              MeanSpec("arithmetic"), MeanSpec("harmonic"), MeanSpec("power", r=0.3),
              MeanSpec("sum")]
_NORMS, _MEANS = st.sampled_from(_NORM_LIST), st.sampled_from(_MEAN_LIST)


def _oracle_family(family, p, q, s, norm, mean, dim):
    """family at (p, q, s) with identity maps, halved for logexp (whose premise
    is Phi(I) + Psi(I) = I), given psi and mean only where it reads them; None
    where (p, q, s) is not a valid point."""
    phi = (conjugation(np.sqrt(0.5) * np.eye(dim, dtype=complex)) if family == "logexp"
           else identity_map(dim))
    read = {name: spec for name, spec in (("psi", phi), ("mean", mean)) if name in READS[family]}
    try:
        return FamilySpec(family=family, phi=phi, norm=norm, params=ParameterPoint(p, q, s),
                          **read)
    except ValueError:
        return None


@pytest.mark.parametrize("family", sorted(READS))
def test_the_oracles_build_every_family_at_a_valid_point(family):
    # _oracle_family answers None, and an oracle example then checks nothing, only
    # where (p, q, s) is outside the family's domain, never for a spec it passed
    for norm in _NORM_LIST:
        for mean in _MEAN_LIST:
            assert _oracle_family(family, 0.5, 0.5, 1.0, norm, mean, 2) is not None


def _close(x, y):
    return np.isclose(x, y, rtol=1e-7, atol=0.0)


class TestFamilyOracles:
    """Identities that hold exactly in mathematics, checked to rounding."""

    @_ORACLE
    @given(family=st.sampled_from(["lieb", "mean", "epstein", "logexp"]), p=_EXPONENTS,
           q=_EXPONENTS, s=_S, norm=_NORMS, mean=_MEANS, seed=_SEEDS, dim=st.integers(2, 3))
    def test_unitary_invariance(self, family, p, q, s, norm, mean, seed, dim):
        fam = _oracle_family(family, p, q, s, norm, mean, dim)
        if fam is None:
            return
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        U = sample_unitary(dim, seed, 2)
        conj = lambda P: PosDef.from_hermitian(U @ P.mat @ U.conj().T)
        assert _close(eval_family(fam, conj(A), conj(B)), eval_family(fam, A, B))

    @_ORACLE
    @given(family=st.sampled_from(["lieb", "mean", "epstein"]), p=_EXPONENTS, q=_EXPONENTS,
           s=_S, norm=_NORMS, mean=_MEANS, seed=_SEEDS, dim=st.integers(2, 3),
           t=st.floats(0.1, 10.0))
    def test_homogeneity(self, family, p, q, s, norm, mean, seed, dim, t):
        # lieb has degree s(p + q) and epstein ps; mean has degree ps only at
        # p = q, where the mean of t^p S and t^p T is t^p (S sigma T)
        if family == "mean":
            q = p
        fam = _oracle_family(family, p, q, s, norm, mean, dim)
        if fam is None:
            return
        degree = s * (p + q) if family == "lieb" else p * s
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        scaled = lambda P: PosDef.from_hermitian(t * P.mat)
        assert _close(eval_family(fam, scaled(A), scaled(B)),
                      t ** degree * eval_family(fam, A, B))

    @_ORACLE
    @given(p=_EXPONENTS, q=_EXPONENTS, s=_S, norm=_NORMS, seed=_SEEDS, dim=st.integers(2, 3))
    def test_lieb_is_symmetric_in_its_two_inputs(self, p, q, s, norm, seed, dim):
        # S^{1/2} T S^{1/2} and T^{1/2} S T^{1/2} are both similar to S T
        fam, swapped = (_oracle_family("lieb", *pq, s, norm, None, dim) for pq in [(p, q), (q, p)])
        if fam is None:
            return
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        assert _close(eval_family(swapped, B, A), eval_family(fam, A, B))

    @_ORACLE
    @given(p=_EXPONENTS, s=_S, seed=_SEEDS, dim=st.integers(1, 3))
    def test_epstein_trace_is_additive_over_direct_sums(self, p, s, seed, dim):
        one, two = (_oracle_family("epstein", p, 0.0, s, TRACE, None, n) for n in (dim, 2 * dim))
        if one is None:
            return
        A, B = _sample(seed, 0, dim), _sample(seed, 1, dim)
        block = np.zeros((2 * dim, 2 * dim), dtype=complex)
        block[:dim, :dim], block[dim:, dim:] = A.mat, B.mat
        assert _close(eval_family(two, PosDef.from_hermitian(block)),
                      eval_family(one, A) + eval_family(one, B))


class TestEigenvalueDomination:
    def test_midpoint_spectrum_dominates_mixed_powers(self):
        # for 0 < p,q <= 1, 0 < s <= 1 the sandwich at averaged inputs
        # spectrally dominates the sandwich built from averaged powers
        p, q, s = 0.7, 0.5, 0.8
        for stream in range(100):
            A1, B1 = _sample(86, 4 * stream), _sample(86, 4 * stream + 1)
            A2, B2 = _sample(86, 4 * stream + 2), _sample(86, 4 * stream + 3)
            Am = PosDef.from_matrix((A1.mat + A2.mat) / 2)
            Bm = PosDef.from_matrix((B1.mat + B2.mat) / 2)
            Cp = Am.power(p)
            lhs_core = Cp.power(0.5).mat @ Bm.power(q).mat @ Cp.power(0.5).mat
            Pav = PosDef.from_matrix((A1.power(p).mat + A2.power(p).mat) / 2)
            Qav = PosDef.from_matrix((B1.power(q).mat + B2.power(q).mat) / 2)
            rhs_core = Pav.power(0.5).mat @ Qav.mat @ Pav.power(0.5).mat
            lhs = np.linalg.eigvalsh(lhs_core)[::-1] ** s
            rhs = np.linalg.eigvalsh(rhs_core)[::-1] ** s
            assert np.all(lhs >= rhs * (1 - 1e-9)), stream


def _stack_case(name, n):
    """The family of one stacked-evaluation case at dimension n."""
    kraus = sample_kraus(n, n, rank=2, seed=91)
    proj = np.diag([1.0] + [0.0] * (n - 1))
    rng = rng_for(91, n)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
    maps = {"kraus": kraus, "transpose-kraus": transpose_then_kraus(kraus.kraus),
            "pinching": pinching([proj, np.eye(n) - proj]), "conjugation": conjugation(X)}
    means = {"sum": MeanSpec("sum"), "arithmetic": MeanSpec("arithmetic"),
             "harmonic": MeanSpec("harmonic"), "geometric": MeanSpec("geometric", t=0.3),
             "power": MeanSpec("power", r=-0.4),
             "transposed": MeanSpec("power", r=0.6, modifier="transposed"),
             "adjoint": MeanSpec("geometric", t=0.7, modifier="adjoint")}
    norms = {"trace": NormSpec("trace"), "operator": NormSpec("operator"),
             "kyfan": NormSpec("kyfan", k=2), "kyfan-anti": NormSpec("kyfan-anti", k=2),
             "lambda-min": NormSpec("lambda-min"),
             "schatten-quasi": NormSpec("schatten-quasi", p=0.3),
             "neg-schatten": NormSpec("neg-schatten", p=0.7),
             "minkowski": NormSpec("minkowski", k=2)}
    kind, what = name.split(":")
    point = ParameterPoint(0.7, 1.3, 0.8)
    if kind == "map":
        return FamilySpec("lieb", maps[what], TRACE, point, psi=kraus)
    if kind == "zero-power":  # A^0 = I, a constant stack
        return FamilySpec("lieb", maps[what], TRACE, ParameterPoint(0.0, 1.3, 0.8), psi=kraus)
    if kind == "epstein":
        return FamilySpec("epstein", maps[what], TRACE, ParameterPoint(-0.6, 0.0, 1.7))
    if kind == "mean":
        return FamilySpec("mean", maps["pinching"], TRACE, point, psi=identity_map(n),
                          mean=means[what])
    if kind == "norm":
        return FamilySpec("lieb", identity_map(n), norms[what], point, psi=maps["conjugation"])
    half = conjugation(np.sqrt(0.5) * np.eye(n, dtype=complex))
    return FamilySpec("logexp", half, norms[what], ParameterPoint(1.0, 1.0, 1.0), psi=half)


_STACK_CASES = (["map:kraus", "map:transpose-kraus", "map:pinching", "map:conjugation",
                 "zero-power:kraus", "epstein:conjugation", "epstein:transpose-kraus",
                 "logexp:trace", "logexp:operator"]
                + [f"mean:{m}" for m in ("sum", "arithmetic", "harmonic", "geometric",
                                         "power", "transposed", "adjoint")]
                + [f"norm:{k}" for k in ("trace", "operator", "kyfan", "kyfan-anti",
                                         "lambda-min", "schatten-quasi", "neg-schatten",
                                         "minkowski")])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", _STACK_CASES)
def test_a_stack_evaluates_as_its_pairs_one_by_one(case, n):
    fam = _stack_case(case, n)
    pairs = [(_sample(92, 2 * k, dim=n).mat, _sample(92, 2 * k + 1, dim=n).mat)
             for k in range(40)]
    one_by_one = np.array([eval_family(fam, PosDef.from_hermitian(a),
                                       PosDef.from_hermitian(b)) for a, b in pairs])
    stacked = eval_family(fam, *(PosDef.from_hermitian(np.stack(m)) for m in zip(*pairs)))
    assert stacked.shape == (40,)
    assert np.array_equal(stacked, one_by_one)


def test_a_stack_fails_with_the_error_of_its_failing_matrix():
    mats = np.stack([_sample(93, k).mat for k in range(5)])
    mats[3] -= 20.0 * np.eye(2)  # sampled eigenvalues are at most 10
    for bad in (mats[3], mats):
        with pytest.raises(NotPositiveDefiniteError):
            PosDef.from_hermitian(bad)
    eigs = np.exp(rng_for(93, 9).normal(size=(5, 2)))
    eigs[2, 1] = 0.0
    for bad in (eigs[2], eigs):
        with pytest.raises(NotPositiveDefiniteError):
            PosDef.from_spectrum(bad, np.broadcast_to(np.eye(2), bad.shape + (2,)))


class TestVariational:
    def test_identity_collapse(self):
        I2 = PosDef.from_matrix(np.eye(2, dtype=complex))
        for r in (1.2, 1.7, 2.0):
            v = variational_value(identity_map(2), 1.0, r, I2, I2)
            assert np.isclose(v, 2.0)

    def test_stationary_point_attains_closed_form(self):
        phi = sample_kraus(3, 3, rank=2, seed=87)
        A = _sample(87, dim=3)
        for r in (1.1, 1.5, 2.0):
            C = PosDef.from_matrix(apply_map(phi, A.mat))  # p = 1
            Bstar = C.power(1.0 / r)
            v = variational_value(phi, 1.0, r, A, Bstar)
            target = float(np.sum(C.eigs ** (1.0 / r)))
            assert np.isclose(v, target, rtol=1e-10)

    def test_infimum_property(self):
        phi = sample_kraus(2, 2, rank=2, seed=88)
        A = _sample(88)
        r = 1.5
        C = PosDef.from_matrix(apply_map(phi, A.mat))
        target = float(np.sum(C.eigs ** (1.0 / r)))
        for stream in range(300):
            B = _sample(88, stream + 1)
            v = variational_value(phi, 1.0, r, A, B)
            assert v >= target - 1e-9 * max(1.0, abs(v), abs(target))

    def test_r_equal_one_collapses(self):
        phi = sample_kraus(2, 2, rank=2, seed=89)
        A, B = _sample(89), _sample(89, 1)
        C = PosDef.from_matrix(apply_map(phi, A.mat))
        assert np.isclose(variational_value(phi, 1.0, 1.0, A, B),
                          float(np.sum(C.eigs)), rtol=1e-12)

    def test_minimization_reaches_closed_form(self):
        phi = sample_kraus(3, 3, rank=2, seed=90)
        A = _sample(90, dim=3)
        res = variational_min(phi, 1.0, 1.5, A)
        assert res.converged
        assert abs(res.value - res.target) <= 1e-6 * max(1.0, abs(res.target))

    def test_scalar_case(self):
        phi = identity_map(1)
        A = PosDef.from_matrix(np.array([[2.7]], dtype=complex))
        r = 1.4
        res = variational_min(phi, 1.0, r, A)
        assert np.isclose(res.value, 2.7 ** (1.0 / r), rtol=1e-6)


class TestValidation:
    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            lieb_family(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            lieb_family(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            FamilySpec(family="epstein", phi=identity_map(2), norm=TRACE,
                       params=ParameterPoint(0.0, 0.0, 1.0))

    def test_k_must_not_exceed_the_spectrum_dimension(self):
        for kind in ("kyfan", "kyfan-anti", "minkowski"):
            with pytest.raises(ValueError, match="needs k <= 2"):
                lieb_family(1.0, 1.0, 1.0, norm=NormSpec(kind=kind, k=3))
        with pytest.raises(ValueError, match="needs k <= 3"):
            FamilySpec(family="epstein", phi=sample_kraus(2, 3, rank=2, seed=92),
                       norm=NormSpec(kind="kyfan", k=4),
                       params=ParameterPoint(1.0, 0.0, 1.0))

    def test_maps_must_be_strictly_positive(self):
        singular = conjugation(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="strictly positive phi"):
            FamilySpec(family="epstein", phi=singular, norm=TRACE,
                       params=ParameterPoint(1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="strictly positive psi"):
            lieb_family(1.0, 1.0, 1.0, psi=singular)
        with pytest.raises(ValueError, match="strictly positive phi"):
            FamilySpec(family="mean", phi=singular, psi=identity_map(2), norm=TRACE,
                       mean=MeanSpec(kind="geometric", t=0.5),
                       params=ParameterPoint(1.0, 1.0, 1.0))
        # logexp's premise is Phi(I) + Psi(I) = I, which a singular piece can meet
        other = conjugation(np.diag([0.0, 1.0]).astype(complex))
        FamilySpec(family="logexp", phi=singular, psi=other, norm=TRACE,
                   params=ParameterPoint(1.0, 1.0, 1.0))

    def test_two_variable_families_require_psi(self):
        for family in ("lieb", "logexp"):
            with pytest.raises(ValueError, match=f"^{family} family requires psi$"):
                FamilySpec(family, identity_map(2), TRACE, ParameterPoint(1.0, 1.0, 1.0))

    def test_phi_and_psi_must_agree_in_output_dimension(self):
        with pytest.raises(ValueError, match="phi and psi output dimensions must agree"):
            lieb_family(1.0, 1.0, 1.0, psi=sample_kraus(2, 3, rank=2, seed=93))

    def test_an_indefinite_inner_matrix_aborts(self):
        with pytest.raises(EvaluationError, match="inner matrix is indefinite: eigenvalue "
                                                  r"-1\.000e\+00 below floor"):
            _floored_eigs(np.diag([2.0, -1.0]).astype(complex))

    def test_serialization_roundtrip(self):
        fam = lieb_family(0.5, 0.7, 0.9, phi=sample_kraus(2, 2, rank=2, seed=91))
        back = FamilySpec.from_dict(fam.to_dict())
        assert back.family == fam.family
        assert back.params == fam.params
        A, B = _sample(91), _sample(91, 1)
        assert np.isclose(eval_family(back, A, B), eval_family(fam, A, B), rtol=1e-12)


#: every setting that a spec's kind does not take, as (spec class, kind, field): a norm
#: or mean parameter other than its kind's own, and a spec that a family does not read
_FOREIGN_SETTINGS = (
    [(NormSpec, kind, "p") for kind in ("kyfan", "kyfan-anti", "minkowski", "trace",
                                        "operator", "lambda-min")]
    + [(NormSpec, kind, "k") for kind in ("schatten-quasi", "neg-schatten", "trace",
                                          "operator", "lambda-min")]
    + [(MeanSpec, kind, "t") for kind in ("power", "arithmetic", "harmonic", "sum")]
    + [(MeanSpec, kind, "r") for kind in ("geometric", "arithmetic", "harmonic", "sum")]
    + [(FamilySpec, family, "mean") for family in ("lieb", "epstein", "logexp")]
    + [(FamilySpec, "epstein", "psi")])
_SETTING = {"k": 2, "p": 0.5, "t": 0.5, "r": 0.5, "psi": identity_map(2),
            "mean": MeanSpec("sum")}


def _valid_spec(cls, kind):
    """A spec of kind that sets exactly what its kind takes."""
    if cls is FamilySpec:
        return _oracle_family(kind, 0.5, 0.5, 1.0, TRACE, _SETTING["mean"], 2)
    own = (norms if cls is NormSpec else means).PARAMETER[kind]
    return cls(kind, **({own: _SETTING[own]} if own else {}))


def test_the_foreign_settings_are_those_that_no_table_declares():
    declared = (
        {(NormSpec, kind, name) for kind, own in norms.PARAMETER.items()
         for name in ("k", "p") if name != own}
        | {(MeanSpec, kind, name) for kind, own in means.PARAMETER.items()
           for name in ("t", "r") if name != own}
        | {(FamilySpec, family, name) for family, reads in READS.items()
           for name in ("psi", "mean") if name not in reads})
    assert len(_FOREIGN_SETTINGS) == 23 and set(_FOREIGN_SETTINGS) == declared


@pytest.mark.parametrize("cls, kind, field", _FOREIGN_SETTINGS,
                         ids=lambda v: v.__name__ if isinstance(v, type) else v)
def test_a_spec_refuses_a_setting_its_kind_lacks(cls, kind, field):
    spec = _valid_spec(cls, kind)
    refusal = "family reads no" if cls is FamilySpec else "takes no parameter"
    with pytest.raises(ValueError, match=f"^{kind} .*{refusal} {field}"):
        dataclasses.replace(spec, **{field: _SETTING[field]})
