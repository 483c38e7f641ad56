"""Coideal subalgebras, conditional expectations and the state bijection.

A left coideal is a subalgebra N whose coproduct lands in A (x) N.  For an
idempotent state the range of its conditional expectation is such a coideal;
conversely every coideal subalgebra here arises this way, and the inverse map
composes the counit with the trace-preserving expectation onto the coideal.
A Coideal is certified once, by coideal_from_span, and trusted after.
Subspaces are stored with bases orthonormal in the GNS inner product, so all
containment claims reduce to projection residuals.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import hopf
from .errors import (
    InternalInconsistency,
    NotACoideal,
    NotASubalgebra,
    NotIdempotent,
)
from .harmonic import (
    DEFAULT_TOL,
    Functional,
    IdempotentState,
    as_functional,
    expectation_matrices,
    idempotent_rows,
    require_same_home,
    state_defects,
    support_projections,
)
from .linalg import (
    RANK_TOL,
    _rank,
    by_key,
    containment_defect,
    containment_defects,
    dagger,
    frob,
    hermitize,
    orthonormal_columns,
    padded,
    subspace_distance,
)


@dataclasses.dataclass(frozen=True, eq=False)
class Coideal:
    """A unital *-closed left coideal subalgebra; only coideal_from_span builds one.

    basis columns are algebra-coordinate vectors, orthonormal with respect
    to the GNS inner product.  defects records each certificate's residual.
    """

    home: hopf.FiniteQuantumGroup
    basis: np.ndarray
    defects: dict[str, float]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def gns_basis(self) -> np.ndarray:
        return hopf.gns(self.home).orthonormal_basis @ self.basis

    def l2_projector(self) -> np.ndarray:
        b = self.gns_basis()
        return b @ dagger(b)

    def contains(self, vector, tol: float = DEFAULT_TOL) -> bool:
        v = hopf.gns(self.home).orthonormal_basis @ np.asarray(vector, complex)
        return containment_defect(self.gns_basis(), v[:, None]) < tol


def _products(group, left, right) -> np.ndarray:
    """All products l_i r_j of the columns of left and right, or of each pair of stacks.

    Column i*k + j of the result, for right with k columns, is l_i r_j.
    Contracted one factor at a time, as matmuls on reshaped tensors (at
    small n, tensordot's own overhead outweighs the contraction).
    """
    *stack, n, k = left.shape
    partial = (left.swapaxes(-1, -2) @ group.mult.reshape(n, n * n)).reshape(*stack, k, n, n)
    return (partial.swapaxes(-1, -2) @ right[..., None, :, :]).swapaxes(-3, -2).reshape(
        *stack, n, -1)


def _span_defects(group, basis_alg, basis_gns) -> dict[str, np.ndarray]:
    """The four certificate residuals of each basis of a stack.

    The bases are zero-padded to one width: a zero column adds zero
    products, a zero adjoint and a zero coproduct, so no residual moves.
    """
    t = hopf.gns(group).orthonormal_basis
    m, n, k = basis_alg.shape
    proj = basis_gns @ dagger(basis_gns)
    resid = lambda vecs: np.abs(vecs - proj @ vecs).max(axis=(-2, -1), initial=0.0)

    d_sub = resid(t @ _products(group, basis_alg, basis_alg))
    d_star = resid(t @ (group.star @ np.conj(basis_alg)))
    d_unit = resid((t @ group.unit)[:, None])
    # seconds[:, i] is the coproduct of b_i in L2 (x) L2 coordinates
    seconds = t @ (basis_alg.swapaxes(-1, -2) @ group.comult.reshape(n, n * n)).reshape(
        m, k, n, n) @ t.T
    outside = (seconds @ (np.eye(n) - proj).swapaxes(-1, -2)[:, None]).reshape(m, k, n * n)
    d_coid = np.linalg.norm(outside, axis=-1).max(axis=-1, initial=0.0)
    return {"subalgebra": d_sub, "star": d_star, "unit": d_unit, "coideal": d_coid}


def coideal_from_span(group, vectors, tol: float = DEFAULT_TOL) -> Coideal:
    """Orthonormalize a spanning set and certify it as a Coideal.

    Raises NotASubalgebra, then NotACoideal; a NaN defect fails too.  The
    one-span case of coideals_from_spans.
    """
    return coideals_from_spans(group, [vectors], tol)[0]


def coideals_from_spans(group, spans, tol: float = DEFAULT_TOL) -> list[Coideal]:
    """coideal_from_span on each of a list of spanning sets.

    The orthonormalizing SVDs run as one batch per shape of span, and the
    certificates of all bases as one stack (_span_defects); then each span
    is checked in turn, so the first span that fails raises.
    """
    space = hopf.gns(group)
    spans = [np.asarray(span) for span in spans]
    if not spans:
        return []
    bases = [None] * len(spans)
    for batch in by_key([span.shape for span in spans], range(len(spans))).values():
        u, s, _ = np.linalg.svd(space.orthonormal_basis @ np.array([spans[i] for i in batch]),
                                full_matrices=False)
        for i, cols, values in zip(batch, u, s):
            bases[i] = cols[:, :_rank(values, RANK_TOL)]
    algs = [space.inverse_basis @ basis for basis in bases]
    table = _span_defects(group, padded(algs), padded(bases))
    coids = []
    for i, basis_alg in enumerate(algs):
        defects = {name: float(column[i]) for name, column in table.items()}
        missing = [name for name in ("subalgebra", "star", "unit")
                   if not defects[name] < tol]
        if missing:
            raise NotASubalgebra(
                f"span is not a unital *-subalgebra (failing: {', '.join(missing)}; "
                f"defects {defects})")
        if not defects["coideal"] < tol:
            raise NotACoideal(
                f"input span is not a coideal (defect {defects['coideal']:.2e})")
        coids.append(Coideal(home=group, basis=basis_alg, defects=defects))
    return coids


# ----------------------------------------------------------------------
# conditional expectations
# ----------------------------------------------------------------------

def _choi(group, e_mat, paired) -> np.ndarray:
    """The complete-positivity matrix of a map, n^2 x n^2.

    The matrix pairs the invariant state against compressions of the map
    applied to products of basis elements; the map is completely positive
    exactly when it is positive semidefinite.  Contracted pairwise;
    paired[i, b, l] = h((e_i)* e_b e_l) is the group's part, shared by all
    maps.
    """
    sm = hopf.star_mult_tensor(group)             # sm[i, b, c]: (e_i)* e_b
    n = group.dim
    mapped = sm @ e_mat.T                         # the map on each (e_j)* e_k
    t2 = (mapped.reshape(n * n, n) @ paired).reshape(n, n, n, n)
    return t2.transpose(0, 1, 3, 2).reshape(n * n, n * n)


def _bimodularity_defect(group, basis_alg, e_mat) -> float:
    """|E(x z y) - x E(z) y|_F over x, y in the range and z a basis element."""
    xzy = _products(group, _products(group, basis_alg, np.eye(group.dim)), basis_alg)
    x_ez_y = _products(group, _products(group, basis_alg, e_mat), basis_alg)
    return frob(e_mat @ xzy - x_ez_y)


def expectation(phi, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The conditional expectation attached to an idempotent state.

    The one-state case of expectations.
    """
    return expectations([phi], tol)[0]


def expectations(states, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """The conditional expectation attached to each idempotent state.

    The states are verified (or, if already typed, trusted) by
    as_idempotent_states, which also shows that each map embeds as the
    orthogonal projection onto a unital range, so it is idempotent and
    unital.  Verified here are the two map certificates no constructor
    checks: the map is completely positive and bimodular over its range.
    Complete positivity is the Cholesky factorization of the Choi matrix
    shifted by hopf.GAP * tol, which exists exactly when the lowest
    eigenvalue lies above -hopf.GAP * tol.  Both certificates have n^4
    intermediates (the Choi matrix, the bimodularity products), so they
    run state by state, in order, the Choi test first; the group's part
    of the Choi matrix is formed once.
    """
    states = as_idempotent_states(states, tol)
    if not states:
        return []
    for other in states[1:]:
        require_same_home(states[0], other)
    group = hopf.with_haar(states[0].home)
    n = group.dim
    paired = hopf.star_mult_tensor(group) @ (group.mult @ group.haar)   # h((e_i)* e_b e_l)
    shift = hopf.GAP * tol * np.eye(n * n)
    for state in states:
        e = state.conditional_expectation
        try:
            np.linalg.cholesky(hermitize(_choi(group, e, paired)) + shift)
        except np.linalg.LinAlgError:
            raise InternalInconsistency("expectation is not completely positive") from None
        worst = _bimodularity_defect(group, state.coideal.basis, e)
        if worst > hopf.GAP * tol:
            raise InternalInconsistency(f"expectation is not bimodular ({worst:.2e})")
    return [state.conditional_expectation for state in states]


def generated_gns_basis(n1: Coideal, n2: Coideal) -> np.ndarray:
    """GNS-orthonormal basis of the *-subalgebra two coideals generate.

    Generation alternates span closure under multiplication and the
    involution until the dimension stabilizes.
    """
    require_same_home(n1, n2)
    group = n1.home
    space = hopf.gns(group)
    t = space.orthonormal_basis
    current = orthonormal_columns(np.column_stack([t @ n1.basis, t @ n2.basis]))
    for _ in range(group.dim + 1):
        alg = space.inverse_basis @ current
        grown = orthonormal_columns(np.column_stack(
            [current, t @ _products(group, alg, alg), t @ (group.star @ np.conj(alg))]))
        if grown.shape[1] == current.shape[1]:
            break
        current = grown
    return current


def trace_expectation(coid: Coideal) -> np.ndarray:
    """The trace-preserving conditional expectation onto a coideal.

    Exists because the invariant state is a trace here; no modular
    correction is needed.  The type is trusted, so no tolerance is taken:
    the map is the orthogonal L2 projection onto the range, pulled back,
    hence idempotent, unital and trace-preserving by construction, and a
    norm-one projection onto a C*-subalgebra is a completely positive
    conditional expectation (Tomiyama).  The suite's expectation-uniqueness
    check compares it with expectation() for every state.
    """
    space = hopf.gns(coid.home)
    return space.inverse_basis @ coid.l2_projector() @ space.orthonormal_basis


# ----------------------------------------------------------------------
# the bijection between idempotent states and coideal subalgebras
# ----------------------------------------------------------------------

def as_idempotent_state(phi, tol: float = DEFAULT_TOL,
                        name: str | None = None) -> IdempotentState:
    """The one verifier of idempotent states; the type is trusted after it.

    The one-functional case of as_idempotent_states.  An IdempotentState
    given without a new name is returned unchanged; a new name makes a
    new functional, verified as any other.
    """
    if isinstance(phi, IdempotentState) and name in (None, phi.name):
        return phi
    f = as_functional(phi)
    if name is not None and f.name != name:
        f = Functional(home=f.home, coeffs=f.coeffs, name=name)
    return as_idempotent_states([f], tol)[0]


def as_idempotent_states(functionals, tol: float = DEFAULT_TOL) -> list[IdempotentState]:
    """Verify each of a list of functionals on one quantum group as an idempotent state.

    Verified here, once: the functional is an idempotent state, the range
    of its expectation is a unital *-closed coideal subalgebra, the
    expectation embeds as the orthogonal projection onto that range, and
    the support projection lies inside it.  The state tests (with a
    batched eigvalsh), the expectations, their range SVDs and the
    embedding run as stacks, then each certificate in turn; every test
    raises for the first functional that fails it.  An IdempotentState is
    returned unchanged, trusted at the tolerance it was built with.  The
    map-level certificates (complete positivity, bimodularity) live in
    expectation().
    """
    out = list(functionals)
    todo = [i for i, phi in enumerate(out) if not isinstance(phi, IdempotentState)]
    if not todo:
        return out
    fs = [as_functional(out[i]) for i in todo]
    for f in fs[1:]:
        require_same_home(fs[0], f)
    group = fs[0].home
    coeffs = np.array([f.coeffs for f in fs])
    for f, ok in zip(fs, idempotent_rows(group, coeffs, tol)):
        if not ok:
            raise NotIdempotent(f"defects: {state_defects(f)}")
    es = expectation_matrices(group, coeffs)
    try:
        coids = coideals_from_spans(group, es, tol)
    except (NotASubalgebra, NotACoideal) as exc:
        raise InternalInconsistency(
            f"expectation range failed certification: {exc}") from exc
    projs = np.array([coid.l2_projector() for coid in coids])
    for gap in np.linalg.norm(hopf.gns(group).on_l2(es) - projs, axis=(-2, -1)):
        if gap > hopf.GAP * tol:
            raise InternalInconsistency(
                "expectation does not embed as the orthogonal range projection")
    qperps = support_projections(fs, tol)
    lifted = (hopf.gns(group).orthonormal_basis @ np.array(qperps).T).T[..., None]
    for outside in containment_defects(projs, lifted):
        if not outside < hopf.GAP * tol:
            raise InternalInconsistency("support projection lies outside the coideal")
    for i, f, qperp, coid, e, proj in zip(todo, fs, qperps, coids, es, projs):
        out[i] = IdempotentState(functional=f, q_perp=qperp, coideal=coid,
                                 conditional_expectation=e, l2_projection=proj)
    return out


def state_from_coideal(coid: Coideal, tol: float = DEFAULT_TOL,
                       name: str | None = None) -> IdempotentState:
    """The unique idempotent state whose expectation range is the coideal.

    The one-coideal case of states_from_coideals.
    """
    return states_from_coideals([coid], tol, [name])[0]


def states_from_coideals(coids, tol: float = DEFAULT_TOL,
                         names=None) -> list[IdempotentState]:
    """The unique idempotent state of each coideal, whose expectation range it is.

    The candidate is the counit composed with the trace-preserving
    expectation; the coideal's type is trusted.  as_idempotent_states
    verifies the candidates, raising NotIdempotent, and each range must
    come back unchanged (NotACoideal otherwise).  The projection identity
    of the coideal's GNS projection against the regular unitary is a
    theorem about the resulting state; the property suite verifies it for
    every state.
    """
    group = coids[0].home
    candidates = [Functional(home=group, coeffs=group.counit @ trace_expectation(coid),
                             name=name)
                  for coid, name in zip(coids, names or [None] * len(coids))]
    states = as_idempotent_states(candidates, tol)
    for coid, state in zip(coids, states):
        gap = subspace_distance(state.coideal.gns_basis(), coid.gns_basis())
        if gap > hopf.GAP * tol:
            raise NotACoideal(f"state's range differs from the input coideal ({gap:.2e})")
    return states
