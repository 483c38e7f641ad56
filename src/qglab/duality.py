"""The dual quantum group, the regular unitary and the state duality.

The dual algebra lives on the dual vector space with convolution as
product; the regular unitary acts on L2 (x) L2, implements the coproduct
and intertwines the two sides.  The unitary is W(a (x) b) =
coproduct(a)(1 (x) b), built from its legs as sum_k c_k (x) L2(e_k) in n^5
work, so its second legs are the c_k it is built from; it is certified by
its battery (unitarity, pentagon identity, counit and invariant-state
slices of those legs).  The pentagon residual is a
seeded probe estimate in n^5 work: for this W the identity is equivalent
to coassociativity, which validation certifies exactly, so the estimate
is a cross-check of how W is built.  The dual's tensors are the
group's tensors transposed, so its unit, counit, antipode, (co)associativity
and comultiplicativity laws are the group's own laws read backwards; only
the data the dual adds (its involution and its invariant state) is checked.
W fixes the dual coproduct as the product transposed; the co-opposite one
would give the double dual the opposite product and coproduct, so it fails
biduality unless the group is commutative and cocommutative, where the two
coincide.  So the dual is built once and certified by one battery.
"""
from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from . import hopf
from .coideal import Coideal, as_idempotent_states, coideals_from_spans
from .errors import ConventionFailure, InternalInconsistency
from .harmonic import (
    DEFAULT_TOL,
    Functional,
    IdempotentState,
    as_functional,
    expectation_matrix,
    group_like_defect,
    state_from_qperp,
)
from .linalg import dagger, frob, hermitize


# ----------------------------------------------------------------------
# the regular unitary on L2 (x) L2
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class RegularUnitary:
    group: hopf.FiniteQuantumGroup
    w: np.ndarray
    second_legs: np.ndarray   # second_legs[k] = first-leg matrix paired with e_k
    residuals: dict[str, float]


W_KIND = "coproduct-first-factor"   # W(a (x) b) = coproduct(a)(1 (x) b)
CODUAL_CUT = 1e-8   # the kernel cut of codual's Gram matrix, times r * max |P|


def _apply_legs(w: np.ndarray, v: np.ndarray, legs: tuple[int, int]) -> np.ndarray:
    """W acting on two legs of probes v[i1, i2, i3, probe], as one matmul."""
    n = v.shape[0]
    moved = np.moveaxis(v, legs, (0, 1))
    out = (w @ moved.reshape(n * n, -1)).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), legs)


def pentagon_defect(w: np.ndarray, n: int) -> float:
    """Estimate of the Frobenius norm of W12 W13 W23 - W23 W12.

    Hutchinson's estimator: for probes v with independent unit-variance
    complex Gaussian entries, |Dv|^2 has expectation |D|_F^2, so the root
    mean of |Dv|^2 over k probes estimates |D|_F.  Each side is applied to
    the probes one leg pair at a time, so a probe costs n^5 work and the
    probes take O(k n^3) memory.  The probes come from a fixed stream, so
    the estimate is deterministic.  An estimate suffices: for this W the
    pentagon identity is equivalent to coassociativity (Baaj-Skandalis),
    which `hopf.validate` certifies exactly.
    """
    k = 8
    rng = np.random.default_rng(0)
    shape = (n, n, n, k)
    v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    lhs = _apply_legs(w, _apply_legs(w, _apply_legs(w, v, (1, 2)), (0, 2)), (0, 1))
    rhs = _apply_legs(w, _apply_legs(w, v, (0, 1)), (1, 2))
    return float(np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) / k))


def _unitary_battery(group, w, legs, space) -> dict[str, float]:
    n = group.dim
    res = {
        "unitarity": frob(dagger(w) @ w - np.eye(n * n)),
        "pentagon": pentagon_defect(w, n),
    }
    res["counit-slice"] = frob(np.einsum("k,kab->ab", group.counit, legs) - np.eye(n))
    vac = space.embed(group.unit)
    rank1 = np.outer(vac, np.conj(vac))
    res["haar-slice"] = frob(np.einsum("k,kab->ab", group.haar, legs) - rank1)
    emat = expectation_matrix(Functional(home=group, coeffs=group.haar))
    res["haar-expectation"] = frob(np.einsum("k,kab->ab", group.haar, legs)
                                   - space.on_l2(emat))
    return res


@lru_cache(maxsize=32)
def regular_unitary(group: hopf.FiniteQuantumGroup,
                    tol: float = DEFAULT_TOL) -> RegularUnitary:
    """Build the regular unitary on L2 (x) L2 and certify it by its battery.

    In algebra coordinates a (x) b -> coproduct(a)(1 (x) b) is
    sum_k A_k (x) L(e_k), with A_k[p, i] = comult[i, p, k] and L(e_k) the
    left multiplication by e_k; so W = sum_k c_k (x) L2(e_k) with
    c_k = T A_k T^-1, T the orthonormal basis.  One batched product forms
    the c_k and one matmul the sum, n^5 work in all.
    """
    group = hopf.with_haar(group)
    space = hopf.gns(group)
    n = group.dim
    legs = space.orthonormal_basis @ group.comult.transpose(2, 1, 0) @ space.inverse_basis
    # rows (p, i) and columns (r, j), then to rows (p, r) and columns (i, j)
    w = legs.reshape(n, n * n).T @ space.left_mult.reshape(n, n * n)
    w = w.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    res = _unitary_battery(group, w, legs, space)
    if not all(v < tol for v in res.values()):
        raise ConventionFailure(f"the regular unitary fails its battery: {res}")
    return RegularUnitary(group=group, w=w, second_legs=legs, residuals=res)


def slice_second_leg(reg: RegularUnitary, phi) -> np.ndarray:
    """(id (x) phi)(W): the dual-side image of a functional."""
    f = as_functional(phi)
    return np.einsum("k,kab->ab", f.coeffs, reg.second_legs)


# ----------------------------------------------------------------------
# the dual quantum group
# ----------------------------------------------------------------------

def build_dual_tensors(group: hopf.FiniteQuantumGroup) -> hopf.FiniteQuantumGroup:
    """Transpose the structure onto the dual space."""
    mult_hat = np.einsum("kij->ijk", group.comult)
    comult_hat = np.einsum("ijk->kij", group.mult)
    antipode_hat = group.antipode.T.copy()
    star_hat = group.antipode.T @ group.star.conj().T
    labels = None
    if group.labels is not None:
        labels = tuple(f"hat_{x}" for x in group.labels)
    dual_group = hopf.FiniteQuantumGroup(
        dim=group.dim, mult=mult_hat, unit=group.counit.copy(),
        comult=comult_hat, counit=group.unit.copy(),
        antipode=antipode_hat, star=star_hat, labels=labels)
    return hopf.with_haar(dual_group)


@dataclasses.dataclass(frozen=True, eq=False)
class DualPair:
    group: hopf.FiniteQuantumGroup
    dual_group: hopf.FiniteQuantumGroup
    regular: RegularUnitary
    residuals: dict[str, float]   # the dual's battery and the unitary's


# The axioms that read the dual's involution or its computed invariant
# state; every other axiom of the dual is one of the group's, transposed.
DUAL_ADDS = frozenset({
    "haar-normalized", "haar-right-invariant", "haar-left-invariant",
    "kac-haar-antipode", "kac-haar-tracial", "star-involution",
    "kac-antipode-star", "star-antimultiplicative", "comult-star",
    "gram-positive"})


def _dual_battery(group, dual_group, reg) -> dict[str, float]:
    res = {}
    res["dual-axioms"] = max(float(residual())
                             for name, residual in hopf.axiom_table(dual_group)
                             if name in DUAL_ADDS)
    rng = np.random.default_rng(7)
    worst_h, worst_s = 0.0, 0.0
    for _ in range(4):
        a = Functional(home=group, coeffs=rng.standard_normal(group.dim)
                       + 1j * rng.standard_normal(group.dim))
        b = Functional(home=group, coeffs=rng.standard_normal(group.dim)
                       + 1j * rng.standard_normal(group.dim))
        prod = dual_group.multiply(a.coeffs, b.coeffs)
        lhs = np.einsum("k,kab->ab", prod, reg.second_legs)
        rhs = (slice_second_leg(reg, a) @ slice_second_leg(reg, b))
        worst_h = max(worst_h, frob(lhs - rhs) / max(1.0, frob(rhs)))
        star = dual_group.adjoint(a.coeffs)
        worst_s = max(worst_s, frob(np.einsum("k,kab->ab", star, reg.second_legs)
                                    - dagger(slice_second_leg(reg, a))))
    res["lambda-homomorphism"] = worst_h
    res["lambda-star"] = worst_s
    double = build_dual_tensors(dual_group)
    res["biduality"] = max(
        *(frob(getattr(double, name) - getattr(group, name)) for name in hopf.TENSORS),
        frob(double.haar - hopf.with_haar(group).haar))
    res["haar-group-like"] = group_like_defect(dual_group, group.haar)
    return res


@lru_cache(maxsize=16)
def dual(group: hopf.FiniteQuantumGroup, tol: float = DEFAULT_TOL) -> DualPair:
    """Construct the dual pair and certify it by its battery.

    The group must already be validated (`hopf.validate`): the dual's
    transposed axioms are not re-checked here.  The dual group of a pair
    is certified by the battery, so it may be passed back in.
    """
    group = hopf.with_haar(group)
    reg = regular_unitary(group, tol)
    dual_group = build_dual_tensors(group)
    res = _dual_battery(group, dual_group, reg)
    if not all(v < tol for v in res.values()):
        raise ConventionFailure(f"the dual fails its battery: {res}")
    res.update(reg.residuals)
    return DualPair(group=group, dual_group=dual_group, regular=reg, residuals=res)


# ----------------------------------------------------------------------
# co-duals of coideals
# ----------------------------------------------------------------------

def _codual_grams(coids, pair: DualPair) -> tuple[np.ndarray, np.ndarray]:
    """Each coideal's Gram matrix G = A*A of the co-dual's membership map A, and its cut."""
    c = pair.dual_group.comult
    legs = pair.regular.second_legs
    n = legs.shape[0]
    flat = legs.reshape(n, n * n)
    p = flat.conj() @ flat.T                                  # tr(L_j* L_j')
    cp = np.tensordot(c.conj(), p, axes=([1], [0]))
    grams, cuts = [], []
    for coid in coids:
        proj = coid.l2_projector()
        r = coid.dim
        q = flat.conj() @ (legs @ proj).reshape(n, n * n).T   # tr(B* L_k* L_k' B)
        s = flat.conj() @ proj.reshape(-1)                    # tr(B* L_k* B)
        cross = (c.conj() @ s) @ p
        gram = (np.tensordot(cp, q, axes=([1], [0])).reshape(n, n * n) @ c.reshape(n, n * n).T
                - cross - dagger(cross) + r * p)
        grams.append(hermitize(gram))
        cuts.append(CODUAL_CUT * r * float(np.abs(p).max()))
    return np.array(grams), np.array(cuts)


def codual(coid: Coideal, pair: DualPair, tol: float = DEFAULT_TOL) -> Coideal:
    """Co-dual of a coideal of the group: the one-coideal case of coduals."""
    return coduals([coid], pair, tol)[0]


def coduals(coids, pair: DualPair, tol: float = DEFAULT_TOL) -> list[Coideal]:
    """Co-dual of each coideal of the group: the matching coideal of the dual.

    The co-dual of a coideal N is the set of dual elements y with
    (coproduct of y)(1 (x) P) = y (x) P, where P = BB* projects L2 onto N
    and B is N's orthonormal L2 basis, with r columns; |X(1 (x) P)| =
    |X(1 (x) B)|, so it is the kernel of the map A taking y to
    sum_ijk c[i, j, k] y_i L_j (x) L_k B - sum_i y_i L_i (x) B, with c the
    dual coproduct and L_k the second legs of W.  A commutant of the
    one-sided multiplication image of N lands on the modular-conjugate
    copy instead, which is a coideal for the opposite coproduct; this form
    is convention-stable.

    A is never formed (n**3 r x n entries, about 127 MB at n = 24): its
    kernel is that of the n x n Gram matrix G = A*A, which the traces
    P[j, j'] = tr(L_j* L_j'), Q[k, k'] = tr(B* L_k* L_k' B) and
    S[k] = tr(B* L_k* B) give as G = c* (P (x) Q) c^T - R - R* + r P,
    with R = (c* S) P.  The kernel is spanned by the eigenvectors of G with
    eigenvalue at most CODUAL_CUT * r * max |P|.  The cut scales with the
    problem, not with G's largest eigenvalue: G's entries are sums of terms
    of that size, and on the scalars (the Haar state's coideal) G = 0.  On
    every example the kernel's eigenvalues lie below 2.1e-15 * r * max |P|
    and the others at 2 r max |P|.  The way back is the co-dual over
    dual(pair.dual_group), whose dual group has the group's tensors; the
    suite's codual-involution check compares it with N.

    The kernels are the raw half, codual_kernels; coideals_from_spans
    certifies them, batched by dimension, raising for the first that fails.
    """
    return coideals_from_spans(pair.dual_group, codual_kernels(coids, pair), tol)


def codual_kernels(coids, pair: DualPair) -> list[np.ndarray]:
    """The raw half of coduals: each Gram matrix's kernel, certifying nothing.

    P and c* P are formed once.  The c* (P (x) Q) c^T contraction does n^4
    work per coideal, so each Gram matrix is built in turn (stacking them
    would hold every coideal's n^3 intermediates at once); one batched eigh
    then takes every kernel.
    """
    grams, cuts = _codual_grams(coids, pair)
    if not len(grams):
        return []
    spectra, bases = np.linalg.eigh(grams)
    return [vecs[:, evals <= cut] for evals, vecs, cut in zip(spectra, bases, cuts)]


# ----------------------------------------------------------------------
# the dual state
# ----------------------------------------------------------------------

def dual_state(state: IdempotentState, pair: DualPair,
               tol: float = DEFAULT_TOL) -> IdempotentState:
    """The idempotent state on the dual attached to an idempotent state.

    The one-state case of dual_states.
    """
    return dual_states([state], pair, tol)[0]


def dual_states(states, pair: DualPair, tol: float = DEFAULT_TOL) -> list[IdempotentState]:
    """The idempotent state on the dual attached to each idempotent state.

    The coefficient vector of the state, read as an element of the dual
    algebra, is a group-like projection; compressing the dual invariant
    state by it gives the dual state.  Verified: slicing the regular
    unitary by the dual state returns the original support projection, and
    the dual state's support is the original coefficient vector.  The
    arguments' type certifies them; the dual states are verified together
    by as_idempotent_states.  That a dual state's range is the co-dual of
    the original range follows through the state-coideal bijection; the
    suite's codual-state-consistency check verifies it for every state.
    The candidates are the raw half, dual_functionals.
    """
    outs = as_idempotent_states(dual_functionals(states, pair, tol), tol)
    n = pair.dual_group.dim
    held = np.array([[s.q_perp, s.coeffs] for s in states]).reshape(-1, 2, n)
    got = np.array([[s.coeffs, s.q_perp] for s in outs]).reshape(-1, 2, n)
    # [i, 0]: the slice against the support; [i, 1]: the support against the state
    for slice_gap, support_gap in np.abs(got - held).max(axis=-1):
        if slice_gap > hopf.GAP * tol:
            raise InternalInconsistency(
                "slicing the regular unitary by the dual state "
                "does not return the support projection")
        if support_gap > hopf.GAP * tol:
            raise InternalInconsistency(
                "dual state's support is not the original coefficient vector")
    return outs


def dual_functionals(states, pair: DualPair, tol: float = DEFAULT_TOL) -> list[Functional]:
    """The raw half of dual_states, verifying no state: each state_from_qperp on the dual."""
    return [state_from_qperp(pair.dual_group, state.coeffs, tol,
                             name=f"dual({state.name})" if state.name else None)
            for state in states]
