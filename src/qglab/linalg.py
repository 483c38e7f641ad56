"""Small dense linear-algebra helpers (complex, numpy only).

Subspaces are handled as matrices whose columns form an orthonormal basis.
Rank decisions assume O(1)-normalized inputs (projectors, structure
tensors): singular values are compared against RANK_TOL * max(s_max, 1),
or a cut of the caller's in place of RANK_TOL where nullspace or _rank
takes one, so a numerically zero matrix has rank zero.
"""
from __future__ import annotations

import numpy as np

RANK_TOL = 1e-10


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def frobs(stack) -> np.ndarray:
    """frob of each item of a stack, to the bit.

    Summed as np.linalg.norm sums a whole array (the real parts' dot plus
    the imaginary parts'), each dot one BLAS call; norm over axes sums in
    another order, so its last bits differ from frob's.
    """
    flat = np.asarray(stack).reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])


def sup(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2.0


def min_eigval(a: np.ndarray) -> float:
    """Smallest eigenvalue of a (nearly) Hermitian matrix."""
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def _rank(s: np.ndarray, rel_tol: float) -> int:
    """The count of singular values s (descending) above rel_tol * max(s[0], 1)."""
    return int(np.count_nonzero(s > rel_tol * s.max(initial=1.0)))


def by_key(keys, items) -> dict:
    """The items grouped by a key each has, in first-seen order of keys."""
    groups = {}
    for item, key in zip(items, keys):
        groups.setdefault(key, []).append(item)
    return groups


def padded(mats) -> np.ndarray:
    """A stack of matrices with one row count, zero columns appended up to the widest."""
    out = np.zeros((len(mats), mats[0].shape[0], max(m.shape[1] for m in mats)), complex)
    for item, m in zip(out, mats):
        item[:, :m.shape[1]] = m
    return out


def orthonormal_columns(cols: np.ndarray) -> np.ndarray:
    """SVD-orthonormalized basis of the column space, rank-truncated."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :_rank(s, RANK_TOL)]


def nullspace(a: np.ndarray, rel_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel (columns)."""
    # economy SVD keeps vh complete whenever there are at least as many
    # rows as columns; a wide matrix needs the full version
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return dagger(vh)[:, _rank(s, rel_tol):]


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of orthonormal columns."""
    return basis @ dagger(basis)


def containment_defects(projs: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """max over columns v of ||(1 - P) v|| / ||v||, for each P of a stack of projectors.

    vectors is one set of columns for every P, or a stack of sets, one per P.
    """
    if vectors.shape[-1] == 0:
        return np.zeros(projs.shape[:-2])
    resid = vectors - projs @ vectors
    norms = np.linalg.norm(vectors, axis=-2)
    norms = np.where(norms > 0.0, norms, 1.0)
    return np.max(np.linalg.norm(resid, axis=-2) / norms, axis=-1)


def containment_defect(big: np.ndarray, vectors: np.ndarray) -> float:
    """max over columns v of ||(1 - P_big) v|| / ||v||: one projector of containment_defects."""
    return float(containment_defects(projector(big), vectors))


def subspace_intersection(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(b1) & span(b2): one pair of subspace_intersections."""
    return subspace_intersections(projector(b1)[None], projector(b2)[None])[0]


def subspace_intersections(p1: np.ndarray, p2: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of range(p1[m]) & range(p2[m]), for stacks of orthogonal projectors.

    Each is the kernel of the stacked [1 - p1[m]; 1 - p2[m]], all from one
    batched SVD.
    """
    eye = np.eye(p1.shape[-1])
    _, s, vh = np.linalg.svd(np.concatenate([eye - p1, eye - p2], axis=-2),
                             full_matrices=False)
    return [dagger(v)[:, _rank(values, RANK_TOL):] for values, v in zip(s, vh)]


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """Frobenius distance of the orthogonal projectors."""
    return frob(projector(b1) - projector(b2))
