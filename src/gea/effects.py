"""Concrete finite-dimensional models: effects and positive operators on C^d.

Positivity and the partial effect sum are decided spectrally, from the
eigenvalues of the Hermitian matrix as LAPACK computes them through
``numpy.linalg.eigh``; each eigenvalue appears once, in ascending order.
One routine, ``_spectra``, computes the spectra of a stack of matrices in one
call: ``spectral_flags`` hands it one matrix, ``gdh_sum`` its two operands,
and ``table_from_effects``, the one place E(H)'s partial sum is decided,
every label, then every pair sum.  Each caller first checks with
``_require_hermitian`` that they are Hermitian; ``vector_witness`` checks A and
B, and not B - A, whose defect can be the sum of theirs.  Matrix entries must
be finite, so an overflowing sum or difference is rejected as input out of
range instead of yielding a NaN verdict.

The projector demo decides each fact once, in two ``eigh`` calls: it reads
pi1 + pi2 off the effect table, and whether its vector states determine the
order off the order check of the representation on them, the same fact.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

import numpy as np

from .algebra import AlgebraTable, MorphismSpec, classify_morphism, is_sub_gea, require_gea
from .errors import InputError
from .represent import build_representation, verify_injective, verify_morphism, \
    verify_order_reflecting
from .states import GeneralizedState

HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9


class EffectMatrix(namedtuple("EffectMatrix", "mat")):
    """Hermitian matrix; its checks use the tolerances HERMITIAN_TOL and
    PSD_TOL."""

    __slots__ = ()

    def __new__(cls, mat: np.ndarray) -> EffectMatrix:
        arr = np.asarray(mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("effect matrices must be square")
        if arr.shape[0] == 0:
            raise InputError("effect matrices must be at least 1 x 1")
        if not np.isfinite(arr).all():
            raise InputError("matrix entries must be finite; a sum or difference "
                             "of finite inputs can overflow double precision")
        return super().__new__(cls, arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _require_hermitian(mats: np.ndarray, name: str = "matrix") -> float:
    """Reject the first matrix of a stack (..., d, d), in C order, whose
    Hermitian defect (its largest entry of |A - A^H|) is not within
    HERMITIAN_TOL, as a NaN never is; else the largest defect of the stack."""
    # Entries of opposite sign near the float maximum give an infinite
    # defect, which no tolerance accepts.
    with np.errstate(over="ignore"):
        gaps = np.abs(mats - mats.conj().swapaxes(-1, -2))
    defect = float(gaps.max())
    if not defect <= HERMITIAN_TOL:
        defects = gaps.max(axis=(-2, -1)).ravel()
        first = defects[~(defects <= HERMITIAN_TOL)][0]
        raise InputError(f"{name} is not Hermitian (defect {first:.3e})")
    return defect


def _require_same_dim(a: EffectMatrix, b: EffectMatrix,
                      names: tuple[str, str] = ("A", "B")) -> None:
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {names[0]} is {a.dim} x {a.dim}, "
                         f"{names[1]} is {b.dim} x {b.dim}")


def _spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (..., d) and orthonormal eigenvectors (..., d, d),
    as columns, of every matrix of a stack (..., d, d) in one ``eigh`` call,
    bit for bit what a call on each matrix alone gives.  eigh reads one
    triangle only, so it gets the Hermitian part (A + A^H)/2, halved before
    the sum so that entries near the float maximum cannot overflow; a spectrum
    that overflows is rejected.  The caller checks the stack first with
    ``_require_hermitian``."""
    w, vectors = np.linalg.eigh(mats / 2 + mats.conj().swapaxes(-1, -2) / 2)
    if not np.isfinite(w).all():
        raise InputError("matrix spectrum overflows double precision")
    return w, vectors


def _bounds(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From ascending eigenvalues (..., d): whether each matrix is positive
    and whether it is at or below the identity, both within PSD_TOL."""
    return w[..., 0] >= -PSD_TOL, w[..., -1] <= 1.0 + PSD_TOL


def spectral_flags(a: EffectMatrix) -> tuple[bool, bool, float]:
    """Whether A is positive (its least eigenvalue clears -PSD_TOL) and
    whether it is an effect, between the null operator and the identity,
    from one spectrum, and its Hermitian defect from the check before it."""
    defect = _require_hermitian(a.mat)
    positive, below_identity = _bounds(_spectra(a.mat)[0])
    return bool(positive), bool(positive and below_identity), defect


def gdh_sum(a: EffectMatrix, b: EffectMatrix) -> EffectMatrix:
    """Total sum in the algebra of positive operators."""
    _require_same_dim(a, b)
    operands = np.stack([a.mat, b.mat])
    _require_hermitian(operands)
    if not _bounds(_spectra(operands)[0])[0].all():
        raise InputError("gdh_sum needs two positive operators")
    with np.errstate(over="ignore"):  # an infinite entry is rejected below
        total = a.mat + b.mat
    return EffectMatrix(total)


def vector_witness(a: EffectMatrix, b: EffectMatrix,
                   names: tuple[str, str] = ("A", "B")) -> Optional[np.ndarray]:
    """Unit vector x with <x, A x> > <x, B x> when A is not below B.

    Returns None exactly when B - A is positive.  Raises InputError unless A
    and B have one dimension and are both Hermitian, so <x, A x> and <x, B x>
    are real; its message calls them names[0] and names[1].  The witness is
    an eigenvector of B - A for its most negative eigenvalue, in the phase
    that makes its largest-modulus coordinate (the first, on ties) real and
    positive, so it does not depend on the LAPACK build's phase convention.
    """
    _require_same_dim(a, b, names)
    _require_hermitian(a.mat, f"matrix {names[0]}")
    _require_hermitian(b.mat, f"matrix {names[1]}")
    with np.errstate(over="ignore"):  # an infinite entry is rejected below
        diff = b.mat - a.mat
    # B - A is not checked again: its defect can be the sum of theirs.
    w, vectors = _spectra(EffectMatrix(diff).mat)
    if _bounds(w)[0]:
        return None
    x = vectors[:, 0]
    k = int(np.argmax(np.abs(x)))
    x = x * (abs(x[k]) / x[k])
    x[k] = abs(x[k])  # the rotation leaves a rounding-level imaginary part
    return x


def generalized_vector_state(x: np.ndarray, a: EffectMatrix) -> float:
    """The value <x, A x>, real for Hermitian A."""
    return float(np.real(np.vdot(x, a.mat @ x)))


def _exact_diag_value(mat: np.ndarray, k: int) -> int:
    value = float(mat[k, k].real)
    nearest = round(value)
    if abs(value - nearest) >= 1e-12:
        raise AssertionError(f"diagonal entry {value!r} is not an integer")
    return nearest


def projector_demo_matrices() -> dict[str, EffectMatrix]:
    zero = EffectMatrix(np.zeros((2, 2)))
    pi1 = EffectMatrix(np.diag([1.0, 0.0]).astype(complex))
    pi2 = EffectMatrix(np.diag([0.0, 1.0]).astype(complex))
    ident = EffectMatrix(np.eye(2, dtype=complex))
    return {"0": zero, "pi1": pi1, "pi2": pi2, "id": ident}


def _matches(totals: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """match[j, k]: whether totals[j] equals mats[k] by ``np.allclose(totals[j],
    mats[k], atol=1e-12)``'s test on finite arrays, |T - M| <= 1e-12 + 1e-05 |M|
    at every entry, in one broadcast comparison of two stacks (n, d, d)."""
    close = np.abs(totals[:, None] - mats) <= 1e-12 + 1e-05 * np.abs(mats)
    return close.all(axis=(-2, -1))


def table_from_effects(labels: list[str], mats: dict[str, EffectMatrix],
                       unit: Optional[str] = None) -> AlgebraTable:
    """Restrict the effect-algebra partial sum to a finite set of matrices:
    a sum is recorded when it is defined and lands back in the set, on the
    first label it equals within ``np.allclose(..., atol=1e-12)``.

    The labels are decided effects in one stacked spectrum call, and all n^2
    pair sums in one more; each row of sums is matched against the labels in
    one comparison.  On faulty input the first fault raises, in this order:
    "0" or unit not among the labels (ValueError), then mismatched dimensions
    (the first label against the others), then a label that is not a
    Hermitian effect, then the first pair, in row order, whose sum is not
    Hermitian within HERMITIAN_TOL.
    """
    zero = labels.index("0")
    unit_index = labels.index(unit) if unit is not None else None
    for label in labels:
        _require_same_dim(mats[labels[0]], mats[label])
    stack = np.stack([mats[label].mat for label in labels])
    _require_hermitian(stack)
    positive, below_identity = _bounds(_spectra(stack)[0])
    if not (positive & below_identity).all():
        raise InputError("every label must be an effect between 0 and the identity")
    # Entries of effects have modulus at most about 1, so no sum overflows.
    totals = stack[:, None] + stack[None, :]
    _require_hermitian(totals)
    defined = _bounds(_spectra(totals)[0])[1]
    triples = []
    for i in range(len(labels)):
        match = _matches(totals[i], stack)
        first, hits = match.argmax(axis=1).tolist(), defined[i] & match.any(axis=1)
        triples += [(i, j, first[j]) for j in np.flatnonzero(hits).tolist()]
    return AlgebraTable(tuple(labels), zero, triples, unit_index)


def demo_excd() -> dict:
    """End-to-end demonstration on the two orthogonal projectors of C^2.

    The three-element projector algebra has an order determining set of
    vector states, and its inclusion into the surrounding four-element effect
    fragment is an order reflecting morphism but not an embedding.
    """
    mats = projector_demo_matrices()
    extended = table_from_effects(["0", "pi1", "pi2", "id"], mats, unit="id")
    # {0, pi1, pi2} carries the fragment's sums that stay inside it: only zero sums.
    table = AlgebraTable(extended.elements[:3], 0,
                         [ijk for ijk in extended.triples() if max(ijk) < 3])
    gea = require_gea(table)

    basis_states = []
    inner_products: dict[str, dict[str, str]] = {}
    for k, name in ((0, "e1"), (1, "e2")):
        values = tuple(_exact_diag_value(mats[lab].mat, k) for lab in table.elements)
        basis_states.append(GeneralizedState(values))
        inner_products[name] = {lab: str(v) for lab, v in zip(table.elements, values)}

    inclusion = classify_morphism(MorphismSpec(gea, require_gea(extended), (0, 1, 2)))
    closed, triple = is_sub_gea([0, 1, 2], extended)

    rep = build_representation(gea, basis_states)
    rep_morphism, _ = verify_morphism(rep, table)
    rep_injective, _ = verify_injective(rep)
    rep_order, _ = verify_order_reflecting(rep, gea)

    total = extended.rows[1][2]  # pi1 + pi2, as table_from_effects matched it
    return {
        "gea_axioms_pass": True,  # require_gea raised otherwise
        "order_determining_found": rep_order,  # both: the states cover each a not <= b
        "vector_states": inner_products,
        "sum_pi1_pi2": extended.elements[total] if total >= 0 else None,
        "is_morphism": inclusion.is_morphism,
        "injective": inclusion.injective,
        "order_reflecting": inclusion.order_reflecting,
        "embedding": inclusion.embedding,
        "sub_gea_closed": closed,
        "sub_gea_violation": [extended.elements[i] for i in triple] if triple else None,
        "representation": {
            "morphism": rep_morphism,
            "injective": rep_injective,
            "order_reflecting": rep_order,
        },
    }
