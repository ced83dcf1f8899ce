"""Concrete finite-dimensional models: effects and positive operators on C^d.

Positivity and the partial effect sum are decided spectrally, from the
eigenvalues of the Hermitian matrix as LAPACK computes them through
``numpy.linalg.eigh``; each eigenvalue appears once, in ascending order.
Matrix entries must be finite, so an overflowing sum or difference is
rejected as input out of range instead of yielding a NaN verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import AlgebraTable, MorphismSpec, classify_morphism, is_sub_gea, require_gea
from .errors import InputError
from .represent import build_representation, verify_injective, verify_morphism, \
    verify_order_reflecting
from .states import GeneralizedState, StateWitnessSet, assign_witnesses

HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-9


@dataclass(frozen=True)
class EffectMatrix:
    """Hermitian matrix; its checks use the tolerances HERMITIAN_TOL and
    PSD_TOL."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("effect matrices must be square")
        if not np.isfinite(arr).all():
            raise InputError("matrix entries must be finite; a sum or difference "
                             "of finite inputs can overflow double precision")
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def hermitian_defect(self) -> float:
        # Entries of opposite sign near the float maximum give an infinite
        # defect, which no tolerance accepts.
        with np.errstate(over="ignore"):
            return float(np.max(np.abs(self.mat - self.mat.conj().T)))


def _require_hermitian(a: EffectMatrix) -> None:
    defect = a.hermitian_defect()
    if not defect <= HERMITIAN_TOL:
        raise InputError(f"matrix is not Hermitian (defect {defect:.3e})")


def _require_same_dim(a: EffectMatrix, b: EffectMatrix) -> None:
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")


def hermitian_spectrum(a: EffectMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, each once) and orthonormal eigenvectors
    (columns) of a Hermitian matrix, by ``numpy.linalg.eigh``.

    eigh reads one triangle only, so it gets the Hermitian part (A + A^H)/2,
    halved before the sum so that entries near the float maximum cannot
    overflow.  A spectrum that overflows is rejected as input out of range.
    """
    _require_hermitian(a)
    w, vectors = np.linalg.eigh(a.mat / 2 + a.mat.conj().T / 2)
    if not np.isfinite(w).all():
        raise InputError("matrix spectrum overflows double precision")
    return w, vectors


def spectral_flags(a: EffectMatrix) -> tuple[bool, bool]:
    """Whether A is positive (its least eigenvalue clears -PSD_TOL) and
    whether it is an effect, between the null operator and the identity,
    decided from one spectrum."""
    w, _ = hermitian_spectrum(a)
    positive = bool(w[0] >= -PSD_TOL)
    return positive, positive and bool(w[-1] <= 1.0 + PSD_TOL)


def is_positive(a: EffectMatrix) -> bool:
    """Spectral positivity: the least eigenvalue clears -PSD_TOL."""
    return spectral_flags(a)[0]


def is_effect(a: EffectMatrix) -> bool:
    """Effects sit between the null operator and the identity."""
    return spectral_flags(a)[1]


def effect_sum(a: EffectMatrix, b: EffectMatrix) -> Optional[EffectMatrix]:
    """Partial sum of the effect algebra on C^d: defined iff A + B stays at
    or below the identity (within PSD_TOL, boundary counted as defined)."""
    _require_same_dim(a, b)
    return _sum_of_effects(a, b, is_effect(a) and is_effect(b))


def _sum_of_effects(a: EffectMatrix, b: EffectMatrix,
                    both_effects: bool) -> Optional[EffectMatrix]:
    """effect_sum once the caller has decided whether A and B are effects."""
    if not both_effects:
        raise InputError("effect_sum needs two effects between 0 and the identity")
    total = EffectMatrix(a.mat + b.mat)
    w, _ = hermitian_spectrum(total)
    if w[-1] > 1.0 + PSD_TOL:
        return None
    return total


def gdh_sum(a: EffectMatrix, b: EffectMatrix) -> EffectMatrix:
    """Total sum in the algebra of positive operators."""
    _require_same_dim(a, b)
    if not (is_positive(a) and is_positive(b)):
        raise InputError("gdh_sum needs two positive operators")
    with np.errstate(over="ignore"):  # an infinite entry is rejected below
        total = a.mat + b.mat
    return EffectMatrix(total)


def vector_witness(a: EffectMatrix, b: EffectMatrix) -> Optional[np.ndarray]:
    """Unit vector x with <x, A x> > <x, B x> when A is not below B.

    Returns None exactly when B - A is positive.  The witness is an
    eigenvector of B - A for its most negative eigenvalue, in the phase that
    makes its largest-modulus coordinate (the first, on ties) real and
    positive, so it does not depend on the LAPACK build's phase convention.
    """
    _require_same_dim(a, b)
    with np.errstate(over="ignore"):  # an infinite entry is rejected below
        diff = b.mat - a.mat
    w, vectors = hermitian_spectrum(EffectMatrix(diff))
    if w[0] >= -PSD_TOL:
        return None
    x = vectors[:, 0]
    k = int(np.argmax(np.abs(x)))
    x = x * (abs(x[k]) / x[k])
    x[k] = abs(x[k])  # the rotation leaves a rounding-level imaginary part
    return x


def generalized_vector_state(x: np.ndarray, a: EffectMatrix) -> float:
    """The value <x, A x>, real for Hermitian A."""
    return float(np.real(np.vdot(x, a.mat @ x)))


def random_positive_matrix(rng: random.Random, dim: int) -> EffectMatrix:
    """Seeded random positive matrix G*G / d, spectral radius at most 2d."""
    g = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(dim)] for _ in range(dim)])
    return EffectMatrix((g.conj().T @ g) / dim)


def random_vector(rng: random.Random, dim: int) -> np.ndarray:
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(dim)])


def _exact_diag_value(mat: np.ndarray, k: int) -> Fraction:
    value = mat[k, k].real
    nearest = round(value)
    if abs(value - nearest) >= 1e-12:
        raise AssertionError(f"diagonal entry {value!r} is not an integer")
    return Fraction(nearest)


def projector_demo_matrices() -> dict[str, EffectMatrix]:
    zero = EffectMatrix(np.zeros((2, 2)))
    pi1 = EffectMatrix(np.diag([1.0, 0.0]).astype(complex))
    pi2 = EffectMatrix(np.diag([0.0, 1.0]).astype(complex))
    ident = EffectMatrix(np.eye(2, dtype=complex))
    return {"0": zero, "pi1": pi1, "pi2": pi2, "id": ident}


def projector_table() -> AlgebraTable:
    """The three-element algebra {0, pi1, pi2} carrying only zero sums."""
    sums = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2}
    return AlgebraTable(("0", "pi1", "pi2"), 0, sums)


def table_from_effects(labels: list[str], mats: dict[str, EffectMatrix],
                       unit: Optional[str] = None) -> AlgebraTable:
    """Restrict the effect-algebra partial sum to a finite set of matrices:
    a sum is recorded when it is defined and lands back in the set.  Each
    matrix is decided an effect once, not once per pair."""
    effect = {label: is_effect(mats[label]) for label in labels}
    sums = {}
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            _require_same_dim(mats[la], mats[lb])
            total = _sum_of_effects(mats[la], mats[lb], effect[la] and effect[lb])
            if total is None:
                continue
            for k, lc in enumerate(labels):
                if np.allclose(total.mat, mats[lc].mat, atol=1e-12):
                    sums[(i, j)] = k
                    break
    unit_index = labels.index(unit) if unit is not None else None
    return AlgebraTable(tuple(labels), labels.index("0"), sums, unit_index)


def demo_excd() -> dict:
    """End-to-end demonstration on the two orthogonal projectors of C^2.

    The three-element projector algebra has an order determining set of
    vector states, and its inclusion into the surrounding four-element effect
    fragment is an order reflecting morphism but not an embedding.
    """
    mats = projector_demo_matrices()
    table = projector_table()
    gea = require_gea(table)

    basis_states = []
    inner_products: dict[str, dict[str, str]] = {}
    for k, name in ((0, "e1"), (1, "e2")):
        values = tuple(_exact_diag_value(mats[lab].mat, k) for lab in table.elements)
        basis_states.append(GeneralizedState.of(values))
        inner_products[name] = {lab: str(v) for lab, v in zip(table.elements, values)}

    # The vector states are the only candidates: a pair they do not cover fails.
    witnesses = assign_witnesses(StateWitnessSet(goal="order", states=basis_states),
                                 gea.order.pairs_not_leq(), lambda a, b: None)

    extended = table_from_effects(["0", "pi1", "pi2", "id"], mats, unit="id")
    inclusion = classify_morphism(MorphismSpec(gea, require_gea(extended), (0, 1, 2)))
    closed, triple = is_sub_gea([0, 1, 2], extended)

    rep = build_representation(gea, witnesses)
    rep_morphism = verify_morphism(rep, table)
    rep_injective, _ = verify_injective(rep)
    rep_order, _ = verify_order_reflecting(rep, gea)

    sum_12 = effect_sum(mats["pi1"], mats["pi2"])
    sum_label = None
    if sum_12 is not None and np.allclose(sum_12.mat, mats["id"].mat):
        sum_label = "id"

    return {
        "gea_axioms_pass": True,  # require_gea raised otherwise
        "order_determining_found": witnesses.ok,
        "vector_states": inner_products,
        "sum_pi1_pi2": sum_label,
        "is_morphism": inclusion.is_morphism,
        "injective": inclusion.injective,
        "order_reflecting": inclusion.order_reflecting,
        "embedding": inclusion.embedding,
        "sub_gea_closed": closed,
        "sub_gea_violation": [extended.elements[i] for i in triple] if triple else None,
        "representation": {
            "morphism": rep_morphism.passed,
            "injective": rep_injective,
            "order_reflecting": rep_order,
        },
    }
