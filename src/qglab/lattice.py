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
meet and the join of every pair once.  Comparable pairs are read off the
order: when one state precedes the other, the meet is the first and the
join the second.  Every other pair's meet and join are formed as GNS
bases: a result whose coideal a listed state already has is that state,
and only a new coideal is built and verified as a state and appended.
The closure's tables, permuted into canonical order, are the lattice that
enumeration returns, so nothing downstream recomputes an operation.  Work
over many pairs or states runs as stacked array passes, each single-item
function being the one-item case of its stacked form: a lattice's order
is one harmonic.order_table, a closure round's comparabilities one
stacked product and its joins one batched SVD, the states of a list are
verified together by coideal.as_idempotent_states, and the property
suite's joins (joins_with_diagnostics) and commutations
(commutation_table) are one batch each.  The meets of incomparable pairs
are generated pair by pair.

Everything here is a pure function of immutable inputs: the generated
seeds come from one fixed stream, and results merge by sorted
deduplication, so the operations parallelize safely and deterministically.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import catalog, duality, hopf
from .coideal import (
    as_idempotent_states,
    coideal_from_span,
    generated_gns_basis,
    state_from_coideal,
)
from .errors import CriteriaDisagree, InternalInconsistency
from .harmonic import (
    DEFAULT_TOL,
    Functional,
    IdempotentState,
    convolution_operators,
    convolution_table,
    expectation_matrices,
    idempotent_rows,
    order_table,
    projections_precede,
    require_same_home,
    sup,
)
from .linalg import _rank, dagger, subspace_intersection, subspace_intersections

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

    The one-pair case of joins_with_diagnostics.
    """
    return joins_with_diagnostics([a], [b], tol)[0]


def joins_with_diagnostics(lefts, rights, tol: float = DEFAULT_TOL):
    """The join of each pair (lefts[p], rights[p]) by its definition, as stacks.

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
    compares with the L2 projection of the table's join.  All pairs share
    one convolution, one batched limit on each side, one batched eigvals
    and one least-squares solve; returns a (limit, diagnostics) pair for
    each.
    """
    for a, b in zip(lefts, rights):
        require_same_home(a.functional, b.functional)
    group = lefts[0].home
    n = group.dim
    reg = duality.regular_unitary(group, tol)   # the call form `dual` caches

    left = np.array([a.coeffs for a in lefts])
    omegas = (convolution_operators(group, left)
              @ np.array([b.coeffs for b in rights])[..., None])[..., 0]
    ops = convolution_operators(group, omegas)
    limits = _ergodic_limit(ops, omegas[..., None], tol)[..., 0]
    if (np.abs(limits @ group.unit - 1.0) > 0.5).any():
        raise InternalInconsistency(
            "join collapsed toward the formal zero on a finite quantum group")
    l2_limits = _ergodic_limit(np.array([a.l2_projection for a in lefts])
                               @ np.array([b.l2_projection for b in rights]),
                               np.eye(n), tol)

    legs = reg.second_legs.reshape(n, n * n)
    recovered, _, _, _ = np.linalg.lstsq(legs.T, l2_limits.reshape(-1, n * n).T, rcond=None)
    slice_residuals = np.linalg.norm((limits @ legs).reshape(-1, n, n) - l2_limits,
                                     axis=(-2, -1))
    two_path = np.abs(limits - recovered.T).max(axis=-1)
    out = []
    for lam, limit, l2_limit, res, dist in zip(np.linalg.eigvals(ops), limits, l2_limits,
                                                slice_residuals, two_path):
        rho = max(np.abs(lam[np.abs(lam - 1.0) > tol]), default=0.0)
        out.append((Functional(home=group, coeffs=limit), JoinDiagnostics(
            iterations=1 if rho == 0 else int(np.log(tol) / np.log(rho)) + 1,
            slice_residual=float(res), two_path_distance=float(dist), l2_limit=l2_limit)))
    return out


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
    state appended in the previous round.  A comparable pair's meet and join
    are read off the order: when one state precedes the other (N_j in N_i,
    order_table's projection criterion, harmonic.projections_precede, one
    stacked product per round), the meet is the first and the join the
    second.  For every other pair the meet is the subalgebra the two
    coideals generate and the join their intersection, each a GNS basis; a
    round's joins come from one batched SVD (subspace_intersections), its
    meets are generated pair by pair.  A result within the gap bound of
    state_from_coideal (hopf.GAP * tol between L2 projections) of a listed
    state's coideal is that state, found in one norm over the stacked
    projections; only a new coideal is certified, built into a state and
    appended.  Returns the grown list (input states first) and the meet and
    join tables indexing it.
    """
    states = list(states)
    held = np.array([s.l2_projection for s in states])
    dims = np.array([s.coideal.dim for s in states])
    meets, joins = {}, {}

    def index_of(basis):
        nonlocal held, dims
        near = np.linalg.norm(held - basis @ dagger(basis), axis=(-2, -1)) <= hopf.GAP * tol
        hits = np.flatnonzero((dims == basis.shape[1]) & near)
        if hits.size:
            return int(hits[0])
        states.append(_state_of_span(states[0].home, basis, tol))
        held = np.concatenate([held, states[-1].l2_projection[None]])
        dims = np.append(dims, states[-1].coideal.dim)
        return len(states) - 1

    done = 0
    while done < len(states):
        size = len(states)
        pairs = [(i, j) for i in range(size) for j in range(max(i, done), size)]
        lo, hi = np.array(pairs).T
        # [:len(pairs)]: lo precedes hi; [len(pairs):]: hi precedes lo
        _, below = projections_precede(held[np.r_[lo, hi]], held[np.r_[hi, lo]], tol)
        rest = []
        for (i, j), i_first, j_first in zip(pairs, below[:len(pairs)], below[len(pairs):]):
            if i_first or j_first:
                meets[i, j], joins[i, j] = (i, j) if i_first else (j, i)
            else:
                rest.append((i, j))
        if rest:
            intersections = subspace_intersections(
                *(held[[pair[side] for pair in rest]] for side in (0, 1)))
            for (i, j), intersection in zip(rest, intersections):
                meets[i, j] = index_of(generated_gns_basis(states[i].coideal,
                                                           states[j].coideal))
                joins[i, j] = index_of(intersection)
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
    order = np.asarray(order_table(states, states, tol), dtype=bool).reshape(k, k)
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
    states' coefficients can be 2/n apart, below it.  The distances of
    every pair are one norm.
    """
    if not functionals:
        return []
    group = functionals[0].home
    coeffs = np.array([f.coeffs for f in functionals])
    l2 = hopf.gns(group).on_l2(expectation_matrices(group, coeffs))
    apart = np.linalg.norm(l2[:, None] - l2, axis=(-2, -1)) > hopf.GAP * tol
    kept = []
    for i, f in enumerate(functionals):
        if apart[i, kept].all():
            kept.append(i)
    return [functionals[i] for i in kept]


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
    limits = _ergodic_limit(convolution_operators(group, seeds), seeds[..., None], tol)[..., 0]
    return _dedup([Functional(home=group, coeffs=c)
                   for c in limits[idempotent_rows(group, limits, tol)]], tol)


def _generated_states(group, tol):
    """Generated idempotents of the group and of its dual, and their counts.

    The dual's limits are pulled back by dual_functionals, the raw half of
    dual_state, on the dual's own pair, whose dual group has the group's
    coordinates.  A pull-back is certified once, on the group, with the
    rest of the list (enumerate_idempotents).  Returns the distinct
    functionals of both sides (the group's first) and the report's counts
    except the closure's.
    """
    ours = _generated_limits(group, tol)
    dual_group = duality.dual(group, tol).dual_group
    theirs = _generated_limits(dual_group, tol)
    back = duality.dual(dual_group, tol)
    pulled = [Functional(home=group, coeffs=f.coeffs)
              for f in duality.dual_functionals(theirs, back, tol)]

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

    states, meet_table, join_table = _close(as_idempotent_states(functionals, tol), tol)
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
    commute: bool | np.ndarray              # a table's is indexed like its pairs
    residuals: dict[str, float | np.ndarray]


def commutation_equivalences(rho: IdempotentState, mu: IdempotentState,
                             tol: float = DEFAULT_TOL,
                             joined: IdempotentState | None = None) -> CommutationReport:
    """Three equivalent ways to say the two states commute; they must agree.

    The one-pair case of commutation_table.  `joined` is the join of rho
    and mu when the caller already holds it (a lattice's join table);
    otherwise it is computed.
    """
    if joined is None:
        joined = join(rho, mu, tol=tol)
    table = commutation_table([rho], [mu], joined.coeffs[None, None], tol)
    return CommutationReport(commute=bool(table.commute[0, 0]),
                             residuals={key: float(r[0, 0])
                                        for key, r in table.residuals.items()})


def commutation_table(rhos, mus, joined, tol: float = DEFAULT_TOL,
                      products=None) -> CommutationReport:
    """Whether rhos[i] and mus[j] commute, for every pair, as stacked arrays.

    joined[i, j] holds the coefficients of the pair's join.  The three
    equivalent criteria: the join is rho * mu (join), mu * rho * mu =
    rho * mu (sandwich) and mu * rho = rho * mu (swap).  products is the
    pair of convolution tables (rhos by mus, mus by rhos) when the caller
    holds them.  The first pair in row-major order whose criteria disagree
    raises CriteriaDisagree.  Returns the table of answers and one table
    of residuals per criterion.
    """
    for other in (*rhos[1:], *mus):
        require_same_home(rhos[0], other)
    group = rhos[0].home
    mu_coeffs = np.array([mu.coeffs for mu in mus])
    if products is None:
        rho_coeffs = np.array([rho.coeffs for rho in rhos])
        products = (convolution_table(group, rho_coeffs, mu_coeffs),
                    convolution_table(group, mu_coeffs, rho_coeffs))
    rm, mr = products[0], products[1].swapaxes(0, 1)   # both indexed [i, j]
    sandwich = (convolution_operators(group, mr) @ mu_coeffs[:, :, None])[..., 0]
    residuals = {"join": np.abs(joined - rm).max(axis=-1),
                 "sandwich": np.abs(sandwich - rm).max(axis=-1),
                 "swap": np.abs(mr - rm).max(axis=-1)}
    answers = np.array([r < tol for r in residuals.values()])
    disagree = np.argwhere(answers.any(axis=0) & ~answers.all(axis=0))
    if disagree.size:
        r1, r2, r3 = (r[tuple(disagree[0])] for r in residuals.values())
        raise CriteriaDisagree(
            f"commutation criteria disagree: join {r1:.2e}, "
            f"sandwich {r2:.2e}, swap {r3:.2e}")
    return CommutationReport(commute=answers[0], residuals=residuals)
