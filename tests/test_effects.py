import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from gea import cli, corpus, effects
from gea.algebra import check_gea_axioms
from gea.effects import (PSD_TOL, EffectMatrix, demo_excd, generalized_vector_state,
                         projector_demo_matrices, spectral_flags, table_from_effects,
                         vector_witness)
from gea.errors import InputError
from reference import random_positive_matrix, random_vector, reference_table_from_effects


def jacobi_eigh(sym, sweep_tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi diagonalization of a real symmetric matrix: the
    independent oracle for ``effects._spectra``.

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


def checked_spectrum(h):
    """The spectrum of one matrix as the program takes it: ``_spectra`` after
    ``_require_hermitian``."""
    effects._require_hermitian(h.mat)
    return effects._spectra(h.mat)


def diag(*entries):
    return EffectMatrix(np.diag(entries).astype(complex))


def random_hermitian(rng, dim):
    g = random_vector(rng, dim * dim).reshape(dim, dim)
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
    """``_spectra`` after ``_require_hermitian``, cross-checked against the
    Jacobi oracle."""

    @staticmethod
    def assert_matches_oracle(h):
        eigvals, vectors = checked_spectrum(h)
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
        eigvals, _ = checked_spectrum(EffectMatrix(mat))
        expected = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        assert np.max(np.abs(eigvals - expected)) < 1e-15

    def test_overflowing_spectrum_rejected(self):
        huge = EffectMatrix(np.full((2, 2), 1e308, dtype=complex))
        with pytest.raises(InputError, match="overflows"):
            checked_spectrum(huge)

    def test_entries_near_float_max_do_not_overflow(self):
        eigvals, _ = checked_spectrum(diag(1.7e308, -1.7e308))
        assert list(eigvals) == [-1.7e308, 1.7e308]

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_matrix_rejected(self, entry):
        with pytest.raises(InputError, match="finite"):
            EffectMatrix(np.array([[1.0, 0.0], [0.0, entry]], dtype=complex))

    def test_matrix_stored_as_complex_array_with_its_dimension(self):
        h = EffectMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert h.dim == 3 and h.mat.dtype == complex
        with pytest.raises(InputError, match="^effect matrices must be square$"):
            EffectMatrix(np.zeros((2, 3)))

    def test_empty_matrix_rejected(self):
        # A 0 x 0 matrix has no spectrum and no entry to take a defect from.
        with pytest.raises(InputError, match="^effect matrices must be at least 1 x 1$"):
            EffectMatrix(np.zeros((0, 0)))

    def test_nan_written_after_construction_rejected(self):
        # The array stays writable; a NaN defect must not pass as Hermitian.
        h = diag(1.0, 0.0)
        h.mat[0, 1] = np.nan
        with pytest.raises(InputError, match="not Hermitian"):
            checked_spectrum(h)


class TestPositivity:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_identity_is_positive(self, dim):
        assert spectral_flags(EffectMatrix(np.eye(dim, dtype=complex)))[0]

    def test_indefinite_diagonal_is_not(self):
        assert not spectral_flags(diag(1.0, -1.0))[0]

    def test_projector_is_positive(self):
        assert spectral_flags(projector_demo_matrices()["pi1"])[0]

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            spectral_flags(EffectMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))[0]

    def test_quadratic_form_spot_check(self):
        rng = random.Random(21)
        for _ in range(20):
            a = random_positive_matrix(rng, 3)
            assert spectral_flags(a)[0]
            for _ in range(10):
                x = random_vector(rng, 3)
                norm_sq = float(np.real(np.vdot(x, x)))
                assert generalized_vector_state(x, a) >= -PSD_TOL * norm_sq


class TestGdhSum:
    """G_D(H)'s sum of positive operators is operator addition."""

    def test_sum_of_positives_is_positive(self):
        rng = random.Random(43)
        for _ in range(20):
            a, b = random_positive_matrix(rng, 3), random_positive_matrix(rng, 3)
            assert spectral_flags(EffectMatrix(a.mat + b.mat))[0]


class TestVectorWitness:
    def test_diagonal_example(self):
        witness = vector_witness(diag(2.0, 0.0), diag(1.0, 5.0))
        assert witness is not None
        assert abs(generalized_vector_state(witness, diag(2.0, 0.0)) - 2.0) < 1e-9
        assert abs(generalized_vector_state(witness, diag(1.0, 5.0)) - 1.0) < 1e-9

    @pytest.mark.parametrize("swap", [False, True])
    def test_overflowing_difference_rejected(self, swap):
        # At entries near the float maximum B - A overflows, to -inf or to
        # +inf; a NaN spectrum must not pass for a witness.
        operands = (diag(1e308, 0.0), diag(-1e308, 0.0))
        with pytest.raises(InputError, match="finite"):
            vector_witness(*(operands[::-1] if swap else operands))

    @pytest.mark.parametrize("swap", [False, True])
    def test_non_hermitian_input_rejected(self, swap):
        # B - A is the identity, Hermitian, though neither A nor B is; the
        # inner products of a witness would drop an imaginary part.
        a = EffectMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = EffectMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InputError, match="not Hermitian"):
            vector_witness(*((b, a) if swap else (a, b)))

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
            w, _ = checked_spectrum(EffectMatrix(b.mat - a.mat))
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
            assert (witness is None) == spectral_flags(diff)[0]
            if witness is not None:
                gap = (generalized_vector_state(witness, a)
                       - generalized_vector_state(witness, b))
                assert gap > PSD_TOL

    def test_vector_state_additivity(self):
        rng = random.Random(71)
        for _ in range(50):
            a = random_positive_matrix(rng, 3)
            b = random_positive_matrix(rng, 3)
            x = random_vector(rng, 3)
            lhs = generalized_vector_state(x, EffectMatrix(a.mat + b.mat))
            rhs = generalized_vector_state(x, a) + generalized_vector_state(x, b)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


class TestDemo:
    def test_projector_table_is_gea(self):
        # The demo's {0, pi1, pi2} keeps the fragment's sums inside it: the corpus excd.
        extended = table_from_effects(["0", "pi1", "pi2", "id"], projector_demo_matrices())
        inside = {ij: k for ij, k in extended.sums.items() if max(*ij, k) < 3}
        excd = corpus.load("excd")
        assert (excd.elements, excd.sums) == (extended.elements[:3], inside)
        assert check_gea_axioms(excd).passed

    def test_extended_table_recovers_diamond_shape(self):
        mats = projector_demo_matrices()
        extended = table_from_effects(["0", "pi1", "pi2", "id"], mats, unit="id")
        assert extended.sums.get((1, 2)) == 3
        assert extended.sums.get((1, 1)) is None
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

    def test_one_vector_state_does_not_determine_the_order(self, monkeypatch, capsys):
        # Both vector states read the diagonal at e1, so they are one state.
        # It gives pi2 the value of 0, though pi2 is not below 0, so the
        # representation on it does not reflect the order, and the demo
        # reports that its states do not determine the order.
        real = effects.generalized_vector_state
        monkeypatch.setattr(effects, "generalized_vector_state",
                            lambda x, a: real(np.eye(2)[0], a))
        demo = demo_excd()
        assert demo["vector_states"]["e1"] == demo["vector_states"]["e2"]
        assert demo["order_determining_found"] is False
        assert demo["representation"] == {
            "morphism": True, "injective": False, "order_reflecting": False}
        assert cli.main(["effects", "demo-excd", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["demo"] == demo


class TestSpectrumCount:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """The number of matrices each numpy.linalg.eigh call decides."""
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(math.prod(a.shape[:-2]))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_demo_decides_each_effect_once(self, eigh_calls):
        demo_excd()
        # One stacked call decides the four labels and one the sums of the
        # 16 ordered pairs; pi1 + pi2 is read off the table they made.
        assert eigh_calls == [4, 16]

    @pytest.mark.parametrize("command, names", [("check", ["mat_a"]),
                                                ("witness", ["mat_a", "mat_b"])],
                             ids=["check", "witness"])
    def test_effects_command_takes_one_spectrum(self, eigh_calls, capsys, command, names):
        # witness takes the spectrum of B - A alone; A and B are only checked Hermitian.
        paths = [str(corpus.path(name)) for name in names]
        assert cli.main(["effects", command, *paths, "--json"]) == 0
        assert eigh_calls == [1]

    def test_table_from_effects_rejects_a_non_effect_operand(self):
        mats = projector_demo_matrices()
        mats["two"] = diag(2.0, 0.0)
        with pytest.raises(InputError, match="^every label must be an effect between 0 "
                                             "and the identity$"):
            table_from_effects(["0", "pi1", "two"], mats)


def rank_one(theta, phi):
    """The projector onto (cos theta, e^{i phi} sin theta)."""
    v = np.array([math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta)])
    return EffectMatrix(np.outer(v, v.conj()))


def diagonal_projectors(dim):
    """The 2^dim diagonal 0/1 projectors of C^dim, the null one labelled "0"."""
    mats = {}
    for bits in itertools.product((0.0, 1.0), repeat=dim):
        label = "".join(str(int(b)) for b in bits) if any(bits) else "0"
        mats[label] = diag(*bits)
    return mats


def rank_one_fragment():
    """0, I, two rank-one projectors with their complements, and their halves:
    P + P-perp lands on I and P/2 + P/2 on P, inside the set; P/2 + Q/2 is
    defined but outside it; P + Q is undefined."""
    p, p_perp = rank_one(0.3, 0.7), rank_one(0.3 + math.pi / 2, 0.7)
    q, q_perp = rank_one(1.1, -0.4), rank_one(1.1 + math.pi / 2, -0.4)
    return {"0": EffectMatrix(np.zeros((2, 2))), "id": EffectMatrix(np.eye(2)),
            "p": p, "p_perp": p_perp, "q": q, "q_perp": q_perp,
            "p/2": EffectMatrix(p.mat / 2), "q/2": EffectMatrix(q.mat / 2)}


def random_diagonal_fragment(rng):
    """Random diagonal effects on a grid of quarters, so that many sums land
    back in the set, with the null matrix among them."""
    dim = rng.randint(1, 4)
    mats = {"0": EffectMatrix(np.zeros((dim, dim)))}
    for k in range(rng.randint(1, 7)):
        mats[f"e{k}"] = diag(*(rng.randint(0, 4) / 4 for _ in range(dim)))
    return mats


class TestTableMatchesReference:
    """``table_from_effects`` against the per-pair walk it replaced."""

    @staticmethod
    def assert_same_table(labels, mats, unit=None):
        table = table_from_effects(labels, mats, unit)
        expected = reference_table_from_effects(labels, mats, unit)
        assert (table.elements, table.zero, table.unit) == \
            (expected.elements, expected.zero, expected.unit)
        assert list(table.sums.items()) == list(expected.sums.items())
        return table

    @staticmethod
    def assert_same_error(labels, mats):
        with pytest.raises(Exception) as expected:
            reference_table_from_effects(labels, mats)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            table_from_effects(labels, mats)

    @pytest.mark.parametrize("unit", [None, "id"])
    def test_demo_labels(self, unit):
        self.assert_same_table(["0", "pi1", "pi2", "id"], projector_demo_matrices(), unit)

    def test_diagonal_projectors_of_c4(self):
        mats = diagonal_projectors(4)
        table = self.assert_same_table(list(mats), mats, unit="1111")
        # x + y is defined iff the supports are disjoint: 3^4 ordered pairs.
        assert len(table.sums) == 81

    def test_rank_one_projectors(self):
        mats = rank_one_fragment()
        labels = list(mats)
        table = self.assert_same_table(labels, mats, unit="id")
        at = labels.index
        assert table.sums[(at("p"), at("p_perp"))] == at("id")
        assert table.sums[(at("p/2"), at("p/2"))] == at("p")
        assert (at("p/2"), at("q/2")) not in table.sums
        assert (at("p"), at("q")) not in table.sums

    def test_random_diagonal_effects(self):
        rng = random.Random(91)
        for _ in range(40):
            mats = random_diagonal_fragment(rng)
            labels = list(mats)
            rng.shuffle(labels)
            self.assert_same_table(labels, mats)

    def test_sums_at_the_identity(self):
        # Every sum below is within np.allclose of pi1; those past 1 + PSD_TOL
        # are undefined and must not be recorded.
        mats = projector_demo_matrices()
        mats["over"] = diag(0.5 + 1.5e-9, 0.0)
        mats["under"] = diag(0.5 + 0.25e-9, 0.0)
        labels = ["0", "pi1", "over", "under"]
        table = self.assert_same_table(labels, mats)
        assert table.sums[(3, 3)] == 1
        assert not {(2, 2), (2, 3), (3, 2)} & set(table.sums)

    def test_sums_at_and_past_the_identity(self):
        # half + half is defined at the identity; id + id and half + id are not.
        mats = {"0": EffectMatrix(np.zeros((2, 2))), "half": diag(0.5, 0.5),
                "id": EffectMatrix(np.eye(2))}
        table = self.assert_same_table(list(mats), mats, unit="id")
        assert table.sums == {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 2, (2, 0): 2}

    @pytest.mark.parametrize("labels", [["0", "pi1", "skew", "id"], ["0", "skew", "pi1", "id"]],
                             ids=["after-pi1", "before-pi1"])
    @pytest.mark.parametrize("skew, defect", [([[0.5, 0.1], [0.0, 0.5]], "1.000e-01"),
                                              ([[1.0, 1.0], [0.0, 1.0]], "1.000e+00")],
                             ids=["small", "unit"])
    def test_non_hermitian_label(self, labels, skew, defect):
        # Wherever it sits in the stack, the label is refused with its defect.
        mats = projector_demo_matrices()
        mats["skew"] = EffectMatrix(np.array(skew))
        self.assert_same_error(labels, mats)
        message = f"matrix is not Hermitian (defect {defect})"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            table_from_effects(labels, mats)

    @pytest.mark.parametrize("labels", [["0", "pi1", "bad"], ["0", "bad", "pi1"]],
                             ids=["after-pi1", "before-pi1"])
    @pytest.mark.parametrize("entries", [(2.0, 0.0), (-0.5, 0.0)])
    def test_non_effect_operand(self, entries, labels):
        # Above the identity, or not positive, wherever it sits in the stack.
        mats = projector_demo_matrices()
        mats["bad"] = diag(*entries)
        self.assert_same_error(labels, mats)

    def test_sum_defects_add_past_the_tolerance(self):
        # Each label is Hermitian within HERMITIAN_TOL; a + a (1.6e-9) is the
        # first pair past it, though b + b's defect (1.8e-9) is larger.
        a = np.diag([0.25, 0.25]).astype(complex)
        b = a.copy()
        a[0, 1], b[0, 1] = 0.8e-9, 0.9e-9
        mats = {"0": EffectMatrix(np.zeros((2, 2))), "a": EffectMatrix(a), "b": EffectMatrix(b)}
        self.assert_same_error(["0", "a", "b"], mats)
        with pytest.raises(InputError, match=r"^matrix is not Hermitian \(defect 1\.600e-09\)$"):
            table_from_effects(["0", "a", "b"], mats)

    def test_overflowing_label(self):
        # Finite entries whose spectrum overflows double precision.
        mats = projector_demo_matrices()
        mats["huge"] = EffectMatrix(np.full((2, 2), 1e308, dtype=complex))
        self.assert_same_error(["0", "pi1", "huge"], mats)
        with pytest.raises(InputError, match="^matrix spectrum overflows double precision$"):
            table_from_effects(["0", "pi1", "huge"], mats)

    @pytest.mark.parametrize("labels, message", [
        (["0", "pi1", "id3", "id"], "A is 2 x 2, B is 3 x 3"),
        (["0", "pi1", "id", "id3"], "A is 2 x 2, B is 3 x 3"),
        (["id3", "0", "pi1"], "A is 3 x 3, B is 2 x 2"),
    ], ids=["inside", "last", "first"])
    def test_dimension_mismatch(self, labels, message):
        # The first label is A; the first label of another dimension is B.
        mats = projector_demo_matrices()
        mats["id3"] = EffectMatrix(np.eye(3))
        self.assert_same_error(labels, mats)
        with pytest.raises(InputError, match=f"^dimension mismatch: {message}$"):
            table_from_effects(labels, mats)

    @pytest.mark.parametrize("fragment", [projector_demo_matrices, lambda: diagonal_projectors(3),
                                          rank_one_fragment], ids=["demo", "c3", "rank-one"])
    def test_zero_is_neutral(self, fragment):
        # The null operator adds to every label, on either side, and gives it back.
        mats = fragment()
        labels = list(mats)
        table = self.assert_same_table(labels, mats)
        for i in range(len(labels)):
            assert table.sums[(table.zero, i)] == i and table.sums[(i, table.zero)] == i

    def test_labels_without_zero(self):
        self.assert_same_error(["pi1", "pi2"], projector_demo_matrices())


class TestStackedNumerics:
    """The stacked routines give the numbers of the calls they replace."""

    @staticmethod
    def assert_matches_allclose(totals, mats):
        match = effects._matches(totals, mats)
        for j, k in np.ndindex(*match.shape):
            assert match[j, k] == np.allclose(totals[j], mats[k], atol=1e-12)

    def test_match_rule_is_allclose_on_random_arrays(self):
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3, 5):
            mats = rng.uniform(-1, 1, (4, dim, dim)) + 1j * rng.uniform(-1, 1, (4, dim, dim))
            # Near copies of the labels, some within the tolerance and some not.
            noise = rng.uniform(-2e-5, 2e-5, (4, dim, dim)) * rng.integers(0, 2, (4, dim, dim))
            totals = np.concatenate([mats + noise, mats, mats[::-1]])
            self.assert_matches_allclose(totals, mats)

    @pytest.mark.parametrize("label", [0.0, 1.0, -0.37, 0.6 + 0.8j, 1e-3j])
    def test_match_rule_is_allclose_at_the_boundary(self, label):
        # Walk the entry over the floats around label + 1e-12 + 1e-05|label|:
        # the tolerance exactly, and the ulps on either side of it.
        mats = np.full((1, 1, 1), label, dtype=complex)
        edge = label.real + (1e-12 + 1e-05 * abs(label))
        entries = [edge]
        for direction in (-np.inf, np.inf):
            x = edge
            for _ in range(3):
                x = np.nextafter(x, direction)
                entries.append(x)
        totals = np.array([[[complex(x, label.imag)]] for x in entries])
        verdicts = {bool(np.allclose(t, mats[0], atol=1e-12)) for t in totals}
        assert verdicts == {True, False}
        self.assert_matches_allclose(totals, mats)

    def test_match_rule_exactly_at_the_tolerance(self):
        # Against a zero label the test reads |T| <= 1e-12 with no rounding.
        mats = np.zeros((1, 1, 1), dtype=complex)
        totals = np.array([1e-12, np.nextafter(1e-12, 0), np.nextafter(1e-12, 1)],
                          dtype=complex).reshape(3, 1, 1)
        assert effects._matches(totals, mats)[:, 0].tolist() == [True, True, False]
        self.assert_matches_allclose(totals, mats)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_stacked_spectrum_is_bit_identical(self, dim):
        # Against the checked spectrum of one matrix alone, and against eigh
        # of its Hermitian part as the one-matrix spectrum computed it before stacks.
        rng = random.Random(300 + dim)
        stack = np.stack([random_hermitian(rng, dim).mat for _ in range(6)]).reshape(
            2, 3, dim, dim)
        w, vectors = effects._spectra(stack)
        for idx in np.ndindex(2, 3):
            mat = stack[idx]
            for w1, vectors1 in (checked_spectrum(EffectMatrix(mat)),
                                 np.linalg.eigh(mat / 2 + mat.conj().T / 2)):
                assert np.array_equal(w[idx], w1) and np.array_equal(vectors[idx], vectors1)
