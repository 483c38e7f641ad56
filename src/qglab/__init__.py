"""qglab: idempotent states, coideal lattices and duality on finite quantum groups."""

from .hopf import (
    FiniteQuantumGroup,
    GnsSpace,
    ValidationReport,
    compute_haar,
    function_algebra,
    gns,
    group_algebra,
    group_hash,
    load_dict,
    load_path,
    loads,
    save,
    validate,
    with_haar,
)
from .harmonic import (
    Functional,
    IdempotentState,
    convolution_unit,
    convolve,
    haar_functional,
    haar_type_test,
    is_idempotent_state,
    preceq,
    state_from_qperp,
    support_projection,
)
from .coideal import (
    Coideal,
    as_idempotent_state,
    coideal_from_span,
    expectation,
    state_from_coideal,
    trace_expectation,
)
from .lattice import (
    IdempotentLattice,
    build_lattice,
    commutation_equivalences,
    enumerate_idempotents,
    join,
    meet,
    to_dot,
)
from .duality import (
    DualPair,
    codual,
    dual,
    dual_state,
    regular_unitary,
)
from . import catalog, checks, errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
