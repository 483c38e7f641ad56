"""Lattice operations on the idempotent states of a finite quantum group.

The lattice of idempotent states mirrors the lattice of their coideals in
reverse order: the meet of two states is carried by the subalgebra that
their expectation ranges generate, and the join by the intersection of the
ranges.  The paper's definition of the join, the limit of convolution
powers of the product, is join_with_diagnostics; the property suite
compares it with the intersection on every pair.  Enumeration reads a
recognized built-in's subgroup catalog, or collects generated idempotents:
the limits of the Cesaro means of the convolution powers of spectral
vector states, on the group and on its dual, the dual's pulled back
through the state duality.  Both limits are one closed form,
_ergodic_limit: no power is iterated.  One closure then computes the
meet and the join of every pair once, as GNS bases: a result whose coideal
a listed state already has is that state, and only a new coideal is built
and verified as a state and appended.  The closure's tables, permuted into
canonical order, are the lattice that enumeration returns, so nothing
downstream recomputes an operation.

Everything here is a pure function of immutable inputs: the generated
seeds come from one fixed stream, and results merge by sorted
deduplication, so the operations parallelize safely and deterministically.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import catalog, duality, hopf
from .coideal import (
    as_idempotent_state,
    coideal_from_span,
    generated_gns_basis,
    state_from_coideal,
)
from .errors import CriteriaDisagree, InternalInconsistency
from .harmonic import (
    DEFAULT_TOL,
    Functional,
    IdempotentState,
    convolve,
    expectation_matrix,
    is_idempotent_state,
    preceq,
    require_same_home,
    sup,
)
from .linalg import _rank, dagger, frob, subspace_intersection

STRATEGIES = ("auto", "catalog", "generated")
_SEED_STREAM = 0   # the generated seeds' fixed stream; no option reaches it


# ----------------------------------------------------------------------
# meet and join
# ----------------------------------------------------------------------

def _state_of_span(group, gns_basis, tol) -> IdempotentState:
    """The state whose coideal a GNS basis spans: certified, then built."""
    coid = coideal_from_span(group, hopf.gns(group).inverse_basis @ gns_basis, tol)
    return state_from_coideal(coid, tol)


def meet(a: IdempotentState, b: IdempotentState,
         tol: float = DEFAULT_TOL) -> IdempotentState:
    """The largest idempotent state dominated by both arguments.

    Carried by the subalgebra generated by the two coideals.  Its range is
    that subalgebra (state_from_coideal checks the gap), which contains
    both ranges, so it precedes both; a lattice verifies every meet as the
    greatest lower bound.
    """
    require_same_home(a.functional, b.functional)
    return _state_of_span(a.home, generated_gns_basis(a.coideal, b.coideal), tol)


@dataclasses.dataclass
class JoinDiagnostics:
    iterations: int
    slice_residual: float
    two_path_distance: float
    l2_limit: np.ndarray   # the limit of the powers of the product of the L2 projections


def join(a, b, tol: float = DEFAULT_TOL):
    """The smallest idempotent state dominating both arguments.

    Carried by the intersection of the two coideals.  Its range is that
    intersection (state_from_coideal checks the gap), which lies in both
    ranges, so it dominates both; a lattice verifies every join as the
    least upper bound.
    """
    require_same_home(a.functional, b.functional)
    return _state_of_span(a.home, subspace_intersection(
        a.coideal.gns_basis(), b.coideal.gns_basis()), tol)


def join_with_diagnostics(a, b, tol: float = DEFAULT_TOL):
    """The join by its definition: the limit of convolution powers.

    In finite dimension the powers of the product of two projections
    converge geometrically to the projection onto the intersection of their
    ranges, and slicing the regular unitary is injective, so the powers of
    omega = phi_1 * phi_2 converge too; _ergodic_limit takes both limits in
    closed form.  iterations is the count the spectrum implies: the least k
    with rho^k < tol, rho the largest modulus of an eigenvalue of
    psi -> omega * psi not within tol of 1.  The limit is returned as a
    plain functional: join-two-paths compares it with join, whose state is
    verified where it is built.  The diagnostics compare the limit's slice
    with the alternating-projection limit, and the limit with that limit
    recovered through W; they hold that limit, which join-two-paths
    compares with the L2 projection of the table's join.
    """
    require_same_home(a.functional, b.functional)
    group = a.home
    reg = duality.regular_unitary(group, tol)   # the call form `dual` caches

    omega = convolve(a.functional, b.functional).coeffs
    ops = np.tensordot(omega, group.comult, axes=([0], [1]))
    limit = Functional(home=group, coeffs=_ergodic_limit(ops, omega[:, None], tol)[:, 0])
    if abs(limit(group.unit) - 1.0) > 0.5:
        raise InternalInconsistency(
            "join collapsed toward the formal zero on a finite quantum group")
    l2_limit = _ergodic_limit(a.l2_projection @ b.l2_projection,
                              np.eye(group.dim), tol)

    lam = np.linalg.eigvals(ops)
    rho = max(np.abs(lam[np.abs(lam - 1.0) > tol]), default=0.0)
    recovered, _, _, _ = np.linalg.lstsq(
        reg.second_legs.reshape(group.dim, -1).T, l2_limit.reshape(-1), rcond=None)
    diag = JoinDiagnostics(
        iterations=1 if rho == 0 else int(np.log(tol) / np.log(rho)) + 1,
        slice_residual=frob(duality.slice_second_leg(reg, limit) - l2_limit),
        two_path_distance=sup(limit.coeffs - recovered), l2_limit=l2_limit)
    return limit, diag


# ----------------------------------------------------------------------
# the lattice: one closure computes every operation
# ----------------------------------------------------------------------

@dataclasses.dataclass
class IdempotentLattice:
    """States with their order, operation tables and Hasse diagram."""

    states: list[IdempotentState]
    order: np.ndarray
    meet_table: np.ndarray
    join_table: np.ndarray
    hasse_edges: list[tuple[int, int]]

    @property
    def names(self) -> list[str]:
        return [s.name or f"state{i}" for i, s in enumerate(self.states)]


def _close(states, tol):
    """Close a list under meet and join, computing each unordered pair once.

    Pairs are taken in rounds: each round computes the pairs that involve a
    state appended in the previous round.  A meet is the subalgebra the two
    coideals generate and a join their intersection, each a GNS basis.  A
    result within the gap bound of state_from_coideal (hopf.GAP * tol between
    L2 projections) of a listed state's coideal is that state; only a new
    coideal is certified, built into a state and appended.  Returns the
    grown list (input states first) and the meet and join tables indexing it.
    """
    states = list(states)
    meets, joins = {}, {}

    def index_of(basis):
        proj = basis @ dagger(basis)
        for idx, s in enumerate(states):
            if (s.coideal.dim == basis.shape[1]
                    and frob(s.l2_projection - proj) <= hopf.GAP * tol):
                return idx
        states.append(_state_of_span(states[0].home, basis, tol))
        return len(states) - 1

    done = 0
    while done < len(states):
        size = len(states)
        for i in range(size):
            for j in range(max(i, done), size):
                a, b = states[i].coideal, states[j].coideal
                meets[i, j] = index_of(generated_gns_basis(a, b))
                joins[i, j] = index_of(subspace_intersection(a.gns_basis(), b.gns_basis()))
        done = size
        if len(states) > states[0].home.dim ** 2 + 4:
            raise InternalInconsistency("closure under meet/join is not stabilizing")

    k = len(states)
    meet_table = np.zeros((k, k), dtype=int)
    join_table = np.zeros((k, k), dtype=int)
    for (i, j), m in meets.items():
        meet_table[i, j] = meet_table[j, i] = m
        join_table[i, j] = join_table[j, i] = joins[i, j]
    return states, meet_table, join_table


def _lattice_from_tables(states, meet_table, join_table,
                         tol) -> IdempotentLattice:
    """Order matrix and Hasse diagram; every lattice axiom is verified.

    Checked: the order is a partial order, and each table entry is the
    greatest lower or least upper bound of its pair.  In a poset these
    force commutativity, associativity and the absorption laws, so those
    are not checked separately.  Violations are internal errors.
    """
    k = len(states)
    order = np.array([[preceq(a, b, tol) for b in states] for a in states],
                     dtype=bool).reshape(k, k)
    strict = order & ~np.eye(k, dtype=bool)
    if not order.diagonal().all():
        raise InternalInconsistency("order is not reflexive")
    if (strict & strict.T).any():
        raise InternalInconsistency("order is not antisymmetric; duplicates?")
    if ((order @ order) & ~order).any():
        raise InternalInconsistency("order is not transitive")

    # [i, j, l]: l is a common lower (upper) bound of i and j
    lower = order.T[:, None, :] & order.T[None, :, :]
    upper = order[:, None, :] & order[None, :, :]
    i, j = np.indices((k, k))
    # a bound that every common bound precedes (follows); order.T[t][i, j, l]
    # is order[l, t[i, j]]
    if not (lower[i, j, meet_table].all() and (order.T[meet_table] | ~lower).all()):
        raise InternalInconsistency("meet is not the largest common lower bound")
    if not (upper[i, j, join_table].all() and (order[join_table] | ~upper).all()):
        raise InternalInconsistency("join is not the smallest common upper bound")

    covers = strict & ~(strict @ strict)
    edges = [(int(a), int(b)) for a, b in np.argwhere(covers)]
    return IdempotentLattice(states=states, order=order, meet_table=meet_table,
                             join_table=join_table, hasse_edges=edges)


def build_lattice(states, tol: float = DEFAULT_TOL) -> IdempotentLattice:
    """Order matrix, operation tables and Hasse diagram of a closed set.

    Input order is preserved, and an operation whose result is not in the
    set is an internal error.  Enumeration already returns its lattice;
    this is for any other closed list of states.
    """
    states = list(states)
    closed, meet_table, join_table = _close(states, tol)
    if len(closed) != len(states):
        raise InternalInconsistency("lattice operation left the enumerated set")
    return _lattice_from_tables(states, meet_table, join_table, tol)


def to_dot(lat: IdempotentLattice) -> str:
    """Hasse diagram as Graphviz DOT (node and edge statements only)."""
    names = lat.names
    lines = ["digraph idempotent_lattice {"]
    for name in names:
        safe = name.replace('"', r'\"')
        lines.append(f'  "{safe}" [label="{safe}"];')
    for i, j in lat.hasse_edges:
        a = names[i].replace('"', r'\"')
        b = names[j].replace('"', r'\"')
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

@dataclasses.dataclass
class EnumerationReport:
    strategy: str
    recognized: str | None
    coverage: str
    generated: dict | None = None   # the generated strategy's counts per side


@dataclasses.dataclass
class EnumerationResult:
    report: EnumerationReport
    lattice: IdempotentLattice

    @property
    def states(self) -> list[IdempotentState]:
        return self.lattice.states

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)


def _dedup(functionals, tol):
    """The functionals whose coideal no earlier one has.

    As in _close, two coideals are one when their projections, here the
    expectations on L2, lie within the gap bound hopf.GAP * tol; distinct
    states' coefficients can be 2/n apart, below it.
    """
    seen, kept = [], []
    for f in functionals:
        l2 = hopf.gns(f.home).on_l2(expectation_matrix(f))
        if all(frob(l2 - other) > hopf.GAP * tol for other in seen):
            kept.append(f)
            seen.append(l2)
    return kept


def _canonical_order(states) -> list[int]:
    """Positions of the states sorted by coideal size, then coefficients."""
    def key(idx):
        c = np.round(states[idx].coeffs, 9)
        return (-states[idx].coideal.dim,
                tuple(zip(c.real.tolist(), c.imag.tolist())))
    return sorted(range(len(states)), key=key)


def _ergodic_limit(ops, vecs, tol):
    """The components of vecs in ker(ops - I) along range(ops - I).

    For a stack of matrices whose peripheral eigenvalues are semisimple,
    this is the limit of the Cesaro means of their powers on the matching
    stack of column blocks, and the plain limit where that exists.  One
    batched SVD of ops - I, cut at tol, gives bases of the two spaces and
    one linear solve the components.
    """
    n = ops.shape[-1]
    u, s, vh = np.linalg.svd(ops - np.eye(n))
    ranks = np.array([_rank(row, tol) for row in s.reshape(-1, n)])
    in_range = np.arange(n) < ranks.reshape(s.shape[:-1] + (1,))
    kernel = vh.conj().swapaxes(-1, -2)
    # columns: range(ops - I) then ker(ops - I); the limit is the kernel part
    parts = np.linalg.solve(np.where(in_range[..., None, :], u, kernel), vecs)
    return np.einsum("...ij,...jk->...ik", kernel,
                     np.where(in_range[..., None], 0.0, parts))


def _generated_limits(group, tol):
    """The idempotent states generated by the spectral vector states of a group.

    One self-adjoint element x, drawn from a fixed stream, gives n seeds:
    the vector states x' -> h(y* x' y) / h(y* y) of the pull-backs y of
    the eigenvectors of L(x) on L2.  The idempotent state a seed phi
    generates is the limit of the Cesaro means of its convolution powers
    (Franz and Skalski): _ergodic_limit of phi on M, the matrix of
    psi -> phi * psi, all seeds in one batch.  Returns the distinct limits
    that are idempotent states.
    """
    space = hopf.gns(group)
    # a fixed stream: the seeds depend on nothing but the group
    z = [1.0, 1j] @ np.random.default_rng(_SEED_STREAM).standard_normal((2, group.dim))
    _, vecs = np.linalg.eigh(space.represent(z + group.adjoint(z)))
    seeds = np.einsum("ai,kai->ik", vecs.conj(), space.left_mult @ vecs)
    limits = _ergodic_limit(np.tensordot(seeds, group.comult, axes=([1], [1])),
                            seeds[..., None], tol)[..., 0]
    functionals = [Functional(home=group, coeffs=c) for c in limits]
    return _dedup([f for f in functionals if is_idempotent_state(f, tol)], tol)


def _generated_states(group, tol):
    """Generated idempotents of the group and of its dual, and their counts.

    The dual's limits are pulled back by dual_state on the dual's own pair,
    whose dual group has the group's coordinates.  Returns the distinct
    functionals of both sides (the group's first) and the report's counts
    except the closure's.
    """
    ours = _generated_limits(group, tol)
    dual_group = duality.dual(group, tol).dual_group
    theirs = _generated_limits(dual_group, tol)
    back = duality.dual(dual_group, tol)
    pulled = [Functional(home=group, coeffs=duality.dual_state(
                  as_idempotent_state(f, tol), back, tol).coeffs)
              for f in theirs]

    both = _dedup(ours + pulled, tol)   # each side's limits are distinct
    counts = {"seeds": {"group": group.dim, "dual": dual_group.dim},
              "limits": {"group": len(ours), "dual": len(theirs)},
              "one_side": {"group": len(both) - len(pulled), "dual": len(both) - len(ours)}}
    return both, counts


def enumerate_idempotents(group, strategy: str = "auto",
                          tol: float = DEFAULT_TOL, *,
                          restarts=None, seed=None) -> EnumerationResult:
    """All idempotent states found by the chosen strategy, with their lattice.

    The states are closed under meet and join and sorted canonically; the
    result's lattice holds the tables of that closure.
    "catalog" reads the subgroup catalog of a recognized built-in;
    "generated" collects the generated idempotents of both sides;
    "auto" prefers the catalog, then "generated".  Neither depends on a
    seed.  restarts and seed are accepted and unused, for callers written
    when a seeded multistart search was a third strategy.
    Incompleteness is reported, never raised.
    """
    group = hopf.with_haar(group)
    recognized = catalog.recognize(group)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    used = strategy
    if strategy == "auto":
        used = "catalog" if recognized else "generated"
    if used == "catalog" and not recognized:
        raise ValueError("catalog strategy requires a recognized built-in")

    counts = None
    if used == "catalog":
        functionals = catalog.catalog_functionals(group, recognized)
    else:
        functionals, counts = _generated_states(group, tol)

    states = [as_idempotent_state(f, tol, name=f.name) for f in functionals]
    states, meet_table, join_table = _close(states, tol)
    if counts is not None:
        counts["closure_added"] = len(states) - len(functionals)
    perm = _canonical_order(states)
    rank = np.argsort(perm)
    states = _assign_names(group, recognized, [states[p] for p in perm])
    lat = _lattice_from_tables(
        states, rank[meet_table[np.ix_(perm, perm)]],
        rank[join_table[np.ix_(perm, perm)]], tol)

    coverage = "catalog"
    if used == "generated":
        coverage = "generated (G and Ĝ)"
        if recognized:
            expected = len(catalog.catalog_functionals(group, recognized))
            missing = expected - len(states)
            coverage = "full" if missing == 0 else f"missing {missing} of {expected}"
    report = EnumerationReport(strategy=used, recognized=recognized,
                               coverage=coverage, generated=counts)
    return EnumerationResult(report=report, lattice=lat)


def _assign_names(group, recognized, states):
    named = []
    for idx, s in enumerate(states):
        name = s.name
        sub = catalog.subgroup_of_state(recognized, s.coeffs) if recognized else None
        if sub is not None:
            name = catalog.subgroup_states(recognized)[sub][0]
        if name is None:
            if sup(s.coeffs - group.counit) < 1e-7:
                name = "counit"
            elif sup(s.coeffs - group.haar) < 1e-7:
                name = "haar"
            else:
                name = f"state{idx}"
        if name != s.name:
            f = Functional(home=group, coeffs=s.coeffs, name=name)
            s = dataclasses.replace(s, functional=f)
        named.append(s)
    return named


# ----------------------------------------------------------------------
# commutation equivalences
# ----------------------------------------------------------------------

@dataclasses.dataclass
class CommutationReport:
    commute: bool
    residuals: dict[str, float]


def commutation_equivalences(rho: IdempotentState, mu: IdempotentState,
                             tol: float = DEFAULT_TOL,
                             joined: IdempotentState | None = None) -> CommutationReport:
    """Three equivalent ways to say the two states commute; they must agree.

    `joined` is the join of rho and mu when the caller already holds it
    (a lattice's join table); otherwise it is computed.
    """
    fr, fm = rho.functional, mu.functional
    rm = convolve(fr, fm)
    if joined is None:
        joined = join(rho, mu, tol=tol)
    r1 = sup(joined.coeffs - rm.coeffs)
    r2 = sup(convolve(convolve(fm, fr), fm).coeffs - rm.coeffs)
    r3 = sup(convolve(fm, fr).coeffs - rm.coeffs)
    answers = [r1 < tol, r2 < tol, r3 < tol]
    if len(set(answers)) != 1:
        raise CriteriaDisagree(
            f"commutation criteria disagree: join {r1:.2e}, "
            f"sandwich {r2:.2e}, swap {r3:.2e}")
    return CommutationReport(commute=answers[0],
                             residuals={"join": r1, "sandwich": r2, "swap": r3})
