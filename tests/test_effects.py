import math
import random

import numpy as np
import pytest

from gea.algebra import check_gea_axioms
from gea.effects import (EffectMatrix, demo_excd, effect_sum, gdh_sum,
                         generalized_vector_state, hermitian_spectrum,
                         is_positive, projector_demo_matrices,
                         projector_table, random_positive_matrix, random_vector,
                         table_from_effects, vector_witness)
from gea.errors import InputError


def jacobi_eigh(sym, sweep_tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi diagonalization of a real symmetric matrix: the
    independent oracle for ``hermitian_spectrum``.

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors as columns.
    """
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(a * a) - np.sum(np.diag(a) ** 2))))
        if off <= sweep_tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for mat, rows in ((a, True), (a, False), (v, False)):
                    if rows:
                        col_p, col_q = mat[p, :].copy(), mat[q, :].copy()
                        mat[p, :] = c * col_p - s * col_q
                        mat[q, :] = s * col_p + c * col_q
                    else:
                        col_p, col_q = mat[:, p].copy(), mat[:, q].copy()
                        mat[:, p] = c * col_p - s * col_q
                        mat[:, q] = s * col_p + c * col_q
                a[p, q] = a[q, p] = 0.0
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]


def _real_embedding(mat):
    """The real symmetric 2d x 2d matrix [[Re A, -Im A], [Im A, Re A]]: every
    eigenvalue of a Hermitian A appears twice, and eigenvectors split into
    real and imaginary parts."""
    x, y = mat.real, mat.imag
    return np.block([[x, -y], [y, x]])


def jacobi_spectrum(h):
    """Oracle spectrum of an EffectMatrix: eigenvalues each twice, and
    complex eigenvectors recombined from the embedding's."""
    w, v = jacobi_eigh(_real_embedding(h.mat))
    return w, v[:h.dim, :] + 1j * v[h.dim:, :]


def diag(*entries):
    return EffectMatrix(np.diag(entries).astype(complex))


def random_hermitian(rng, dim):
    g = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(dim)] for _ in range(dim)])
    return EffectMatrix((g + g.conj().T) / 2)


def degenerate_matrices():
    mats = dict(projector_demo_matrices())
    mats["zero3"] = EffectMatrix(np.zeros((3, 3)))
    mats["id4"] = EffectMatrix(np.eye(4, dtype=complex))
    return mats


class TestJacobi:
    """The oracle itself, against numpy's eigenvalues."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
    def test_matches_numpy_on_random_hermitian(self, dim):
        rng = random.Random(100 + dim)
        for _ in range(10):
            h = random_hermitian(rng, dim)
            eigvals, _ = jacobi_eigh(_real_embedding(h.mat))
            expected = np.sort(np.repeat(np.linalg.eigvalsh(h.mat), 2))
            assert np.max(np.abs(eigvals - expected)) < 1e-10

    def test_eigenvectors_diagonalize(self):
        rng = random.Random(3)
        h = random_hermitian(rng, 5)
        sym = _real_embedding(h.mat)
        eigvals, vectors = jacobi_eigh(sym)
        residual = sym @ vectors - vectors * eigvals
        assert np.max(np.abs(residual)) < 1e-10

    def test_spectrum_pairs_into_complex_eigenvectors(self):
        rng = random.Random(4)
        h = random_hermitian(rng, 4)
        eigvals, vectors = jacobi_spectrum(h)
        for k in range(eigvals.size):
            x = vectors[:, k]
            assert np.max(np.abs(h.mat @ x - eigvals[k] * x)) < 1e-9


class TestSpectrum:
    """``hermitian_spectrum`` cross-checked against the Jacobi oracle."""

    @staticmethod
    def assert_matches_oracle(h):
        eigvals, vectors = hermitian_spectrum(h)
        oracle, _ = jacobi_spectrum(h)
        assert eigvals.shape == (h.dim,) and vectors.shape == (h.dim, h.dim)
        assert np.all(np.diff(eigvals) >= 0)
        # The embedding lists each eigenvalue twice; pair them up.
        assert np.max(np.abs(oracle[0::2] - oracle[1::2])) < 1e-10
        assert np.max(np.abs(eigvals - oracle[0::2])) < 1e-10
        residual = h.mat @ vectors - vectors * eigvals
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-9
        assert np.allclose(vectors.conj().T @ vectors, np.eye(h.dim), atol=1e-12)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_random_hermitian_matches_oracle(self, dim):
        rng = random.Random(200 + dim)
        for _ in range(10):
            self.assert_matches_oracle(random_hermitian(rng, dim))

    @pytest.mark.parametrize("name", ["0", "pi1", "pi2", "id", "zero3", "id4"])
    def test_degenerate_spectrum_matches_oracle(self, name):
        self.assert_matches_oracle(degenerate_matrices()[name])

    def test_reads_the_hermitian_part(self):
        # A defect below the tolerance in the lower triangle only: the
        # spectrum is that of (A + A^H)/2, whichever triangle eigh reads.
        mat = np.array([[1.0, 0.5], [0.5 + 4e-10, 2.0]], dtype=complex)
        eigvals, _ = hermitian_spectrum(EffectMatrix(mat))
        expected = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        assert np.max(np.abs(eigvals - expected)) < 1e-15

    def test_overflowing_spectrum_rejected(self):
        huge = EffectMatrix(np.full((2, 2), 1e308, dtype=complex))
        with pytest.raises(InputError, match="overflows"):
            hermitian_spectrum(huge)

    def test_entries_near_float_max_do_not_overflow(self):
        eigvals, _ = hermitian_spectrum(diag(1.7e308, -1.7e308))
        assert list(eigvals) == [-1.7e308, 1.7e308]

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_matrix_rejected(self, entry):
        with pytest.raises(InputError, match="finite"):
            EffectMatrix(np.array([[1.0, 0.0], [0.0, entry]], dtype=complex))

    def test_nan_written_after_construction_rejected(self):
        # The array stays writable; a NaN defect must not pass as Hermitian.
        h = diag(1.0, 0.0)
        h.mat[0, 1] = np.nan
        with pytest.raises(InputError, match="not Hermitian"):
            hermitian_spectrum(h)


class TestPositivity:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_identity_is_positive(self, dim):
        assert is_positive(EffectMatrix(np.eye(dim, dtype=complex)))

    def test_indefinite_diagonal_is_not(self):
        assert not is_positive(diag(1.0, -1.0))

    def test_projector_is_positive(self):
        assert is_positive(projector_demo_matrices()["pi1"])

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            is_positive(EffectMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_quadratic_form_spot_check(self):
        rng = random.Random(21)
        for _ in range(20):
            a = random_positive_matrix(rng, 3)
            assert is_positive(a)
            for _ in range(10):
                x = random_vector(rng, 3)
                norm_sq = float(np.real(np.vdot(x, x)))
                assert generalized_vector_state(x, a) >= -a.psd_tol * norm_sq


class TestEffectSum:
    def test_projectors_sum_to_identity(self):
        mats = projector_demo_matrices()
        total = effect_sum(mats["pi1"], mats["pi2"])
        assert total is not None
        assert np.allclose(total.mat, np.eye(2))

    def test_identity_plus_identity_undefined(self):
        ident = EffectMatrix(np.eye(2, dtype=complex))
        assert effect_sum(ident, ident) is None

    def test_half_identities_sum_to_identity(self):
        half = diag(0.5, 0.5)
        total = effect_sum(half, half)
        assert total is not None and np.allclose(total.mat, np.eye(2))

    def test_non_effect_rejected(self):
        with pytest.raises(InputError):
            effect_sum(diag(2.0, 0.0), diag(1.0, 0.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            effect_sum(diag(1.0, 0.0), diag(1.0, 0.0, 0.0))

    def test_overflowing_operand_rejected(self):
        with pytest.raises(InputError):
            effect_sum(EffectMatrix(np.full((2, 2), 1e308, dtype=complex)),
                       diag(1.0, 0.0))

    def test_defined_effect_sum_agrees_with_total_sum(self):
        rng = random.Random(31)
        for _ in range(25):
            a = EffectMatrix(random_positive_matrix(rng, 2).mat / 4)
            b = EffectMatrix(random_positive_matrix(rng, 2).mat / 4)
            partial = effect_sum(a, b)
            if partial is not None:
                assert np.allclose(partial.mat, gdh_sum(a, b).mat, atol=1e-12)


class TestGdhSum:
    def test_zero_is_neutral(self):
        rng = random.Random(41)
        a = random_positive_matrix(rng, 3)
        zero = EffectMatrix(np.zeros((3, 3)))
        assert np.allclose(gdh_sum(a, zero).mat, a.mat)

    def test_projector_sum(self):
        mats = projector_demo_matrices()
        assert np.allclose(gdh_sum(mats["pi1"], mats["pi2"]).mat, np.eye(2))

    def test_overflowing_sum_rejected(self):
        huge = diag(1e308, 1e308)
        with pytest.raises(InputError, match="finite"):
            gdh_sum(huge, huge)

    def test_diagonal_sum(self):
        total = gdh_sum(diag(2.0, 0.0), diag(0.0, 3.0))
        assert np.allclose(total.mat, np.diag([2.0, 3.0]))

    def test_sum_of_positives_is_positive(self):
        rng = random.Random(43)
        for _ in range(20):
            total = gdh_sum(random_positive_matrix(rng, 3),
                            random_positive_matrix(rng, 3))
            assert is_positive(total)


class TestVectorWitness:
    def test_diagonal_example(self):
        witness = vector_witness(diag(2.0, 0.0), diag(1.0, 5.0))
        assert witness is not None
        assert abs(generalized_vector_state(witness, diag(2.0, 0.0)) - 2.0) < 1e-9
        assert abs(generalized_vector_state(witness, diag(1.0, 5.0)) - 1.0) < 1e-9

    def test_overflowing_difference_rejected(self):
        # At entries near the float maximum B - A overflows; a NaN spectrum
        # must not pass for a witness.
        with pytest.raises(InputError, match="finite"):
            vector_witness(diag(1e308, 0.0), diag(-1e308, 0.0))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_witness_phase_is_canonical(self, dim):
        rng = random.Random(80 + dim)
        found = 0
        for _ in range(20):
            a = random_positive_matrix(rng, dim)
            b = random_positive_matrix(rng, dim)
            x = vector_witness(a, b)
            if x is None:
                continue
            found += 1
            k = int(np.argmax(np.abs(x)))
            assert x[k].imag == 0.0 and x[k].real > 0.0
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12
            # Any phase of an eigenvector is one; the rotation keeps the gap.
            w, _ = hermitian_spectrum(EffectMatrix(b.mat - a.mat))
            gap = generalized_vector_state(x, a) - generalized_vector_state(x, b)
            assert abs(gap + w[0]) < 1e-9
        assert found > 0

    def test_witness_phase_ties_pick_the_first_coordinate(self):
        # B - A has the single negative eigenvector (1, -i)/sqrt(2).
        a = EffectMatrix(np.array([[1.0, 1j], [-1j, 1.0]]))
        x = vector_witness(a, EffectMatrix(np.zeros((2, 2))))
        assert x is not None
        assert x[0] == abs(x[0]) and np.allclose(x, np.array([1, -1j]) / np.sqrt(2))

    def test_zero_below_anything_positive(self):
        rng = random.Random(51)
        zero = EffectMatrix(np.zeros((3, 3)))
        assert vector_witness(zero, random_positive_matrix(rng, 3)) is None

    def test_projector_pair(self):
        mats = projector_demo_matrices()
        witness = vector_witness(mats["pi1"], mats["pi2"])
        assert witness is not None
        assert abs(generalized_vector_state(witness, mats["pi1"]) - 1.0) < 1e-9
        assert abs(generalized_vector_state(witness, mats["pi2"])) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_none_iff_difference_positive(self, dim):
        rng = random.Random(60 + dim)
        for trial in range(50):
            a = random_positive_matrix(rng, dim)
            if trial % 2 == 0:
                b = EffectMatrix(a.mat + random_positive_matrix(rng, dim).mat)
            else:
                b = random_positive_matrix(rng, dim)
            witness = vector_witness(a, b)
            diff = EffectMatrix(b.mat - a.mat)
            assert (witness is None) == is_positive(diff)
            if witness is not None:
                gap = (generalized_vector_state(witness, a)
                       - generalized_vector_state(witness, b))
                assert gap > a.psd_tol

    def test_vector_state_additivity(self):
        rng = random.Random(71)
        for _ in range(50):
            a = random_positive_matrix(rng, 3)
            b = random_positive_matrix(rng, 3)
            x = random_vector(rng, 3)
            lhs = generalized_vector_state(x, gdh_sum(a, b))
            rhs = generalized_vector_state(x, a) + generalized_vector_state(x, b)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


class TestDemo:
    def test_projector_table_is_gea(self):
        assert check_gea_axioms(projector_table()).passed

    def test_extended_table_recovers_diamond_shape(self):
        mats = projector_demo_matrices()
        extended = table_from_effects(["0", "pi1", "pi2", "id"], mats, unit="id")
        assert extended.sum_of(1, 2) == 3
        assert extended.sum_of(1, 1) is None
        assert check_gea_axioms(extended).passed

    def test_demo_flags(self):
        demo = demo_excd()
        assert demo["gea_axioms_pass"]
        assert demo["order_determining_found"]
        assert demo["is_morphism"] and demo["injective"] and demo["order_reflecting"]
        assert not demo["embedding"]
        assert demo["sub_gea_violation"] == ["pi1", "pi2", "id"]
        assert demo["sum_pi1_pi2"] == "id"

    def test_demo_vector_state_values(self):
        demo = demo_excd()
        assert demo["vector_states"]["e1"] == {"0": "0", "pi1": "1", "pi2": "0"}
        assert demo["vector_states"]["e2"] == {"0": "0", "pi1": "0", "pi2": "1"}

    def test_demo_representation_closes_the_loop(self):
        demo = demo_excd()
        assert demo["representation"] == {
            "morphism": True, "injective": True, "order_reflecting": True}
