"""The convolution algebra of functionals on a finite quantum group.

Functionals are complex covectors paired linearly with algebra elements.
Convolution transports the coproduct; its unit is the counit.  A state is
a normalized functional whose sesquilinear matrix is positive
semidefinite, and an idempotent state reproduces itself under convolution.
This module also computes the support projection of a state (through the
density with respect to the invariant trace), the reconstruction of an
idempotent state from the complement of its left kernel, and the domination
order with its four provably equivalent criteria.
"""
from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from . import hopf
from .errors import (
    CriteriaDisagree,
    HomeMismatch,
    InternalInconsistency,
    NotAProjection,
    NotAState,
    ZeroMass,
)
from .linalg import (
    containment_defect,
    containment_defects,
    dagger,
    frob,
    frobs,
    hermitize,
    projector,
    sup,
)

if TYPE_CHECKING:  # pragma: no cover
    from .coideal import Coideal

DEFAULT_TOL = hopf.DERIVED_TOL


@dataclasses.dataclass(frozen=True, eq=False)
class Functional:
    """An element of the dual space, tied to its quantum group."""

    home: hopf.FiniteQuantumGroup
    coeffs: np.ndarray
    name: str | None = None

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        if c.shape != (self.home.dim,):
            raise HomeMismatch(
                f"coefficient vector of length {c.shape} on a group of dim {self.home.dim}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x) -> complex:
        return complex(np.dot(self.coeffs, np.asarray(x, complex)))

    def distance(self, other: "Functional") -> float:
        """Sup-norm distance of coefficient vectors."""
        require_same_home(self, other)
        return sup(self.coeffs - other.coeffs)


def require_same_home(a, b) -> None:
    ga, gb = a.home, b.home
    if ga is gb:
        return
    if hopf.group_hash(ga) != hopf.group_hash(gb):
        raise HomeMismatch("functionals live on different quantum groups")


def convolution_operators(group: hopf.FiniteQuantumGroup, coeffs) -> np.ndarray:
    """ops[m], the matrix of psi -> phi_m * psi, for each row phi_m of coeffs."""
    return np.tensordot(coeffs, group.comult, axes=([-1], [1]))


def convolution_table(group: hopf.FiniteQuantumGroup, left, right) -> np.ndarray:
    """table[a, b], the coefficients of left[a] * right[b], for two stacks of rows.

    One tensordot and one matmul.
    """
    return (convolution_operators(group, left) @ right.T).transpose(0, 2, 1)


def convolve(phi: Functional, chi: Functional) -> Functional:
    """Convolution product: the pair acts through the coproduct.

    The one-pair case of convolution_table.
    """
    require_same_home(phi, chi)
    coeffs = convolution_table(phi.home, phi.coeffs[None], chi.coeffs[None])[0, 0]
    return Functional(home=phi.home, coeffs=coeffs)


def convolution_unit(group: hopf.FiniteQuantumGroup) -> Functional:
    return Functional(home=group, coeffs=group.counit, name="counit")


def haar_functional(group: hopf.FiniteQuantumGroup) -> Functional:
    group = hopf.with_haar(group)
    return Functional(home=group, coeffs=group.haar, name="haar")


def state_defects_table(group: hopf.FiniteQuantumGroup, coeffs) -> dict[str, np.ndarray]:
    """Residuals of the three idempotent-state conditions, one per row of coeffs."""
    squares = (convolution_operators(group, coeffs) @ coeffs[..., None])[..., 0]
    conv = np.abs(squares - coeffs).max(axis=-1, initial=0.0)
    norm = np.abs(coeffs @ group.unit - 1.0)
    lowest = np.linalg.eigvalsh(hermitize(hopf.sesquilinear_matrix(group, coeffs)))[:, 0]
    return {"idempotency": conv, "normalization": norm,
            "negativity": np.maximum(0.0, -lowest)}


def idempotent_rows(group: hopf.FiniteQuantumGroup, coeffs,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Which rows of coeffs are idempotent states: every defect below tol."""
    return np.logical_and.reduce([d < tol for d in state_defects_table(group, coeffs).values()])


def state_defects(phi: Functional) -> dict[str, float]:
    """Residuals of the three idempotent-state conditions: one row of state_defects_table."""
    return {key: float(d[0])
            for key, d in state_defects_table(phi.home, phi.coeffs[None]).items()}


def is_idempotent_state(phi: Functional, tol: float = DEFAULT_TOL) -> bool:
    """One row of idempotent_rows."""
    return bool(idempotent_rows(phi.home, phi.coeffs[None], tol)[0])


def expectation_matrices(group: hopf.FiniteQuantumGroup, coeffs) -> np.ndarray:
    """Matrix of x -> (id (x) phi)(coproduct(x)) on coefficient columns, per row phi."""
    return np.einsum("ijk,mk->mij", group.comult, coeffs).swapaxes(-1, -2)


def expectation_matrix(phi: Functional) -> np.ndarray:
    """One row of expectation_matrices."""
    return expectation_matrices(phi.home, phi.coeffs[None])[0]


# ----------------------------------------------------------------------
# support projection and reconstruction
# ----------------------------------------------------------------------

def projection_defect(group: hopf.FiniteQuantumGroup, p) -> float:
    """max(|p p - p|, |p* - p|): the one-element case of projection_defects."""
    return float(projection_defects(group, np.asarray(p)[None])[0])


def projection_defects(group: hopf.FiniteQuantumGroup, ps) -> np.ndarray:
    """max(|p p - p|, |p* - p|) for each row p of ps."""
    ps = np.asarray(ps, complex)
    squares = group.multiply(ps, ps)
    adjoints = (group.star @ np.conj(ps)[..., None])[..., 0]
    return np.maximum(frobs(squares - ps), frobs(adjoints - ps))


def support_projection(phi: Functional, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Complement of the left-kernel projection of a state.

    The one-state case of support_projections.
    """
    return support_projections([phi], tol)[0]


def support_projections(functionals, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Complement of the left-kernel projection of each state, on one quantum group.

    Computed as the spectral support of the density of the state with
    respect to the invariant trace.  A functional is a state exactly when
    it is normalized and its density is positive, so a non-state is
    rejected (NotAState) from the value on 1 and the lowest eigenvalue of
    that density.  Checked here: the spectral projection pulls back to the
    algebra, and the pull-back is a projection.  For an idempotent state
    the rest are theorems, and the property suite verifies them for every
    state: the state is the normalized compression of the invariant state
    by the support (support-reconstruction), the coproduct of the
    complement vanishes against it in both legs (support-annihilation),
    and it is a minimal central projection of the coideal
    (support-minimal-central).

    The value on 1, the density solve, its eigendecomposition and the
    pull-back's fit and projection defects run as stacks; each test raises
    for the first state that fails it, the fit before the defect.  The
    pull-back is one least-squares solve per state: one solve with a
    column per state moves the support-reconstruction residual in its
    last bits.
    """
    group = hopf.with_haar(functionals[0].home)
    space = hopf.gns(group)
    coeffs = np.array([f.coeffs for f in functionals])
    for norm in np.abs(coeffs @ group.unit - 1.0):
        if norm >= tol:
            raise NotAState(f"normalization defect {norm:.2e}")
    # each state's density rho, with phi = h(rho x), is one solve (h is faithful)
    bil = np.einsum("ijk,k->ij", group.mult, group.haar)
    mats = space.represent(np.linalg.solve(bil.T, coeffs[..., None])[..., 0])
    for herm in np.linalg.norm(mats - dagger(mats), axis=(-2, -1)):
        if herm > hopf.GAP * tol:
            raise NotAState(f"density is not self-adjoint (defect {herm:.2e})")
    spectra, bases = np.linalg.eigh(hermitize(mats))
    cuts = tol * np.maximum(1.0, spectra[:, -1])
    for evals, cut in zip(spectra, cuts):
        if evals[0] < -cut:
            raise NotAState(f"density has a negative eigenvalue ({evals[0]:.2e})")
    rep = space.left_mult.transpose(1, 2, 0).reshape(group.dim ** 2, group.dim)
    supports = [vecs[:, evals > cut] for evals, vecs, cut in zip(spectra, bases, cuts)]
    proj_mats = np.array([support @ dagger(support) for support in supports])
    qs = np.array([np.linalg.lstsq(rep, proj_mat.reshape(-1), rcond=None)[0]
                   for proj_mat in proj_mats])
    fits = frobs(space.represent(qs) - proj_mats)
    for fit, defect in zip(fits, projection_defects(group, qs)):
        if fit > hopf.GAP * tol:
            raise InternalInconsistency(
                f"spectral projection does not pull back to the algebra (fit {fit:.2e})")
        if defect > hopf.GAP * tol:
            raise InternalInconsistency(f"support is not a projection ({defect:.2e})")
    return list(qs)


def left_kernel_basis(phi: Functional, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x : phi(x* x) = 0} in coefficient coordinates."""
    evals, vecs = np.linalg.eigh(hermitize(hopf.sesquilinear_matrix(phi.home, phi.coeffs)))
    cut = tol * max(1.0, float(evals[-1]))
    return vecs[:, evals <= cut]


def state_from_qperp(group: hopf.FiniteQuantumGroup, qperp,
                     tol: float = DEFAULT_TOL, name: str | None = None) -> Functional:
    """The normalized compression of the invariant state by a projection.

    The state x -> h(q x q) / h(q) has coefficients h(q e_b q) / h(q),
    computed as two reshaped matvecs: y[k] = h(e_k q) is (mult . h) q,
    and h(q e_b q) = sum_a,k q_a mult[a, b, k] y[k] is (q . mult) y.
    """
    group = hopf.with_haar(group)
    q = np.asarray(qperp, complex)
    defect = projection_defect(group, q)
    if defect > tol:
        raise NotAProjection(f"projection defect {defect:.2e}")
    mass = group.haar_of(q)
    if abs(mass) <= tol:
        raise ZeroMass("projection has vanishing invariant mass")
    n = group.dim
    mult = group.mult.reshape(n * n, n)
    y = (mult @ group.haar).reshape(n, n) @ q
    coeffs = q @ (mult @ y).reshape(n, n) / mass
    return Functional(home=group, coeffs=coeffs, name=name)


# ----------------------------------------------------------------------
# group-like projections and the Haar-type test
# ----------------------------------------------------------------------

def group_like_defect(group: hopf.FiniteQuantumGroup, p) -> float:
    """Residual of coproduct(p) (1 (x) p) = p (x) p."""
    p = np.asarray(p, complex)
    dp = group.coproduct(p)
    one_p = np.outer(group.unit, p)
    return frob(group.tensor_multiply(dp, one_p) - np.outer(p, p))


def haar_type_test(phi, tol: float = DEFAULT_TOL) -> bool:
    """Whether the null space of the state is a two-sided *-closed ideal.

    The null space of any state is a left ideal; states induced from a
    genuine quantum subgroup have a two-sided, star-closed one.  This is the
    standard operational criterion; it is imported from the companion
    literature on quantum-subgroup-induced idempotents rather than derived
    here.
    """
    phi = as_functional(phi)
    group = phi.home
    kernel = left_kernel_basis(phi, tol)
    n, d = kernel.shape
    # the adjoints v*, then every product v e_j that is not numerically zero
    stars = group.star @ np.conj(kernel)
    products = (kernel.T @ group.mult.reshape(n, n * n)).reshape(d * n, n).T
    products = products[:, np.linalg.norm(products, axis=0) >= tol]
    return containment_defect(kernel, np.hstack([stars, products])) <= np.sqrt(tol)


# ----------------------------------------------------------------------
# idempotent states and the domination order
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class IdempotentState:
    """A verified idempotent state with its cached derived objects.

    q_perp is the support projection, coideal the range of the conditional
    expectation, conditional_expectation its matrix on coefficient columns
    and l2_projection the orthogonal projection onto the embedded range.
    """

    functional: Functional
    q_perp: np.ndarray
    coideal: "Coideal"
    conditional_expectation: np.ndarray
    l2_projection: np.ndarray

    @property
    def home(self) -> hopf.FiniteQuantumGroup:
        return self.functional.home

    @property
    def coeffs(self) -> np.ndarray:
        return self.functional.coeffs

    @property
    def name(self) -> str | None:
        return self.functional.name

    def distance(self, other) -> float:
        return self.functional.distance(as_functional(other))


def as_functional(phi) -> Functional:
    if isinstance(phi, IdempotentState):
        return phi.functional
    if isinstance(phi, Functional):
        return phi
    raise TypeError(f"expected a functional, got {type(phi).__name__}")


def preceq(mu: IdempotentState, nu: IdempotentState,
           tol: float = DEFAULT_TOL) -> bool:
    """Domination order on idempotent states: mu precedes nu.

    The one-pair case of order_table: all four equivalent criteria are
    evaluated and must agree.
    """
    return bool(order_table([mu], [nu], tol)[0, 0])


def projections_precede(pa, pb, tol: float = DEFAULT_TOL):
    """The residuals |P_a P_b - P_b|_F of two broadcast stacks of L2
    projections, and whether each is below tol.

    The order's projection criterion: pa's state precedes pb's exactly when
    pb's range lies in pa's.  order_table and lattice._close decide with it.
    """
    residuals = np.linalg.norm(pa @ pb - pb, axis=(-2, -1))
    return residuals, residuals < tol


def order_table(mus, nus, tol: float = DEFAULT_TOL) -> np.ndarray:
    """table[i, j]: whether mus[i] precedes nus[j] in the domination order.

    Evaluates all four equivalent criteria (convolution absorption,
    composition of expectations, reversed range containment, ordering of
    the orthogonal projections) on every pair as stacked arrays, and
    demands they agree: the first disagreeing pair in row-major order
    raises CriteriaDisagree.  The range containment loops over nus only.
    """
    if not (mus and nus):
        return np.zeros((len(mus), len(nus)), dtype=bool)
    for other in (*mus[1:], *nus):
        require_same_home(mus[0], other)
    group = mus[0].home
    nu_coeffs = np.array([nu.coeffs for nu in nus])
    emu, enu = (np.array([s.conditional_expectation for s in side]) for side in (mus, nus))
    pmu, pnu = (np.array([s.l2_projection for s in side]) for side in (mus, nus))
    conv = convolution_table(group, np.array([mu.coeffs for mu in mus]), nu_coeffs)
    r1 = np.abs(conv - nu_coeffs).max(axis=-1)
    r2 = np.linalg.norm(emu[:, None] @ enu - enu, axis=(-2, -1))
    # the range criterion reads the coideal bases, not the held projections
    ranges = np.array([projector(mu.coideal.gns_basis()) for mu in mus])
    r3 = np.column_stack([containment_defects(ranges, nu.coideal.gns_basis()) for nu in nus])
    r4, by_projection = projections_precede(pmu[:, None], pnu, tol)
    answers = np.array([r1 < tol, r2 < tol, r3 < tol, by_projection])
    disagree = np.argwhere(answers.any(axis=0) & ~answers.all(axis=0))
    if disagree.size:
        i, j = disagree[0]
        raise CriteriaDisagree(
            "order criteria disagree: "
            f"convolution {r1[i, j]:.2e}, expectation {r2[i, j]:.2e}, "
            f"range {r3[i, j]:.2e}, projection {r4[i, j]:.2e}")
    return answers[0]
