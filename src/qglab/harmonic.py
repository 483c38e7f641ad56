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
    dagger,
    frob,
    hermitize,
    min_eigval,
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


def convolve(phi: Functional, chi: Functional) -> Functional:
    """Convolution product: the pair acts through the coproduct."""
    require_same_home(phi, chi)
    coeffs = np.einsum("ijk,j,k->i", phi.home.comult, phi.coeffs, chi.coeffs)
    return Functional(home=phi.home, coeffs=coeffs)


def convolution_unit(group: hopf.FiniteQuantumGroup) -> Functional:
    return Functional(home=group, coeffs=group.counit, name="counit")


def haar_functional(group: hopf.FiniteQuantumGroup) -> Functional:
    group = hopf.with_haar(group)
    return Functional(home=group, coeffs=group.haar, name="haar")


def state_defects(phi: Functional) -> dict[str, float]:
    """Residuals of the three idempotent-state conditions."""
    conv = sup(convolve(phi, phi).coeffs - phi.coeffs)
    norm = abs(phi(phi.home.unit) - 1.0)
    neg = max(0.0, -min_eigval(hopf.sesquilinear_matrix(phi.home, phi.coeffs)))
    return {"idempotency": conv, "normalization": norm, "negativity": neg}


def is_idempotent_state(phi: Functional, tol: float = DEFAULT_TOL) -> bool:
    d = state_defects(phi)
    return all(v < tol for v in d.values())


def expectation_matrix(phi: Functional) -> np.ndarray:
    """Matrix of x -> (id (x) phi)(coproduct(x)) on coefficient columns."""
    return np.einsum("ijk,k->ij", phi.home.comult, phi.coeffs).T


# ----------------------------------------------------------------------
# support projection and reconstruction
# ----------------------------------------------------------------------

def density_element(phi: Functional) -> np.ndarray:
    """The element rho with phi = (invariant state)(rho x); needs faithfulness."""
    group = hopf.with_haar(phi.home)
    bil = np.einsum("ijk,k->ij", group.mult, group.haar)
    return np.linalg.solve(bil.T, phi.coeffs)


def projection_defect(group: hopf.FiniteQuantumGroup, p) -> float:
    p = np.asarray(p, complex)
    return max(frob(group.multiply(p, p) - p), frob(group.adjoint(p) - p))


def support_projection(phi: Functional, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Complement of the left-kernel projection of a state.

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
    """
    group = hopf.with_haar(phi.home)
    space = hopf.gns(group)
    norm = abs(phi(group.unit) - 1.0)
    if norm >= tol:
        raise NotAState(f"normalization defect {norm:.2e}")
    rho = density_element(phi)
    mat = space.represent(rho)
    herm = frob(mat - dagger(mat))
    if herm > hopf.GAP * tol:
        raise NotAState(f"density is not self-adjoint (defect {herm:.2e})")
    evals, vecs = np.linalg.eigh(hermitize(mat))
    cut = tol * max(1.0, float(evals[-1]))
    if evals[0] < -cut:
        raise NotAState(f"density has a negative eigenvalue ({evals[0]:.2e})")
    support = vecs[:, evals > cut]
    proj_mat = support @ dagger(support)
    rep = space.left_mult.transpose(1, 2, 0).reshape(group.dim ** 2, group.dim)
    q, _, _, _ = np.linalg.lstsq(rep, proj_mat.reshape(-1), rcond=None)
    fit = frob(space.represent(q) - proj_mat)
    if fit > hopf.GAP * tol:
        raise InternalInconsistency(
            f"spectral projection does not pull back to the algebra (fit {fit:.2e})")
    defect = projection_defect(group, q)
    if defect > hopf.GAP * tol:
        raise InternalInconsistency(f"support is not a projection ({defect:.2e})")
    return q


def left_kernel_basis(phi: Functional, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x : phi(x* x) = 0} in coefficient coordinates."""
    evals, vecs = np.linalg.eigh(hermitize(hopf.sesquilinear_matrix(phi.home, phi.coeffs)))
    cut = tol * max(1.0, float(evals[-1]))
    return vecs[:, evals <= cut]


def state_from_qperp(group: hopf.FiniteQuantumGroup, qperp,
                     tol: float = DEFAULT_TOL, name: str | None = None) -> Functional:
    """The normalized compression of the invariant state by a projection."""
    group = hopf.with_haar(group)
    q = np.asarray(qperp, complex)
    defect = projection_defect(group, q)
    if defect > tol:
        raise NotAProjection(f"projection defect {defect:.2e}")
    mass = group.haar_of(q)
    if abs(mass) <= tol:
        raise ZeroMass("projection has vanishing invariant mass")
    coeffs = np.einsum("a,abk,j,kjr,r->b", q, group.mult, q, group.mult,
                       group.haar) / mass
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

    Evaluates all four equivalent criteria (convolution absorption,
    composition of expectations, reversed range containment, ordering of
    the orthogonal projections) and demands they agree.
    """
    emu, enu = mu.conditional_expectation, nu.conditional_expectation
    pmu, pnu = mu.l2_projection, nu.l2_projection
    r1 = sup(convolve(mu.functional, nu.functional).coeffs - nu.coeffs)
    r2 = frob(emu @ enu - enu)
    r3 = containment_defect(mu.coideal.gns_basis(), nu.coideal.gns_basis())
    r4 = frob(pmu @ pnu - pnu)
    answers = [r1 < tol, r2 < tol, r3 < tol, r4 < tol]
    if len(set(answers)) != 1:
        raise CriteriaDisagree(
            "order criteria disagree: "
            f"convolution {r1:.2e}, expectation {r2:.2e}, "
            f"range {r3:.2e}, projection {r4:.2e}")
    return answers[0]
