"""Exception types shared by the whole package."""


class QuantumGroupError(Exception):
    """Base class for every error raised by qglab."""


class DimensionMismatch(QuantumGroupError):
    """Structure tensors disagree with the declared dimension."""


class ParseError(QuantumGroupError):
    """Malformed JSON input; the message names the offending field path."""


class AxiomFailure(QuantumGroupError):
    """The structure tensors fail a defining axiom of a quantum group."""


class NotAGroup(QuantumGroupError):
    """A multiplication table does not describe a finite group."""


class NoHaarState(QuantumGroupError):
    """The invariance equations admit no normalizable solution."""


class NonUniqueHaar(QuantumGroupError):
    """The invariance equations have a solution space of dimension > 1."""


class NotPositive(QuantumGroupError):
    """A matrix required to be positive (semi)definite is not."""


class HomeMismatch(QuantumGroupError):
    """Operands live on different quantum groups."""


class NotAState(QuantumGroupError):
    """Functional is not a positive normalized functional."""


class NotIdempotent(QuantumGroupError):
    """Functional is not an idempotent state."""


class NotAProjection(QuantumGroupError):
    """Algebra element is not a self-adjoint idempotent."""


class ZeroMass(QuantumGroupError):
    """Projection has vanishing invariant mass; no state can be formed."""


class NotACoideal(QuantumGroupError):
    """Subspace is not a coideal subalgebra (or its state verification failed)."""


class NotASubalgebra(QuantumGroupError):
    """Subspace is not a unital *-subalgebra."""


class CriteriaDisagree(QuantumGroupError):
    """Provably equivalent criteria evaluated differently: a bug or a tolerance breach."""


class ConventionFailure(QuantumGroupError):
    """The regular unitary or the dual fails its certifying battery."""


class InternalInconsistency(QuantumGroupError):
    """A theorem-backed internal postcondition failed."""
