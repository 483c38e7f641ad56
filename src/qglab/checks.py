"""The full property suite: every structural theorem as an executable check.

check_table lists the checks in report order as (key, tolerance, function
of a CheckContext) entries.  The two pipeline stages, the enumeration and
the dual pair, are entries too, placed where the checks after them first
need them; a stage fills the context and reports nothing.  Each check is
keyed by what it verifies; a failed check with internal=True signals a
broken postcondition (bug or tolerance breach) rather than a plain
property failure.

Checks over states or pairs stack their arrays, summed so that each
residual keeps the bits of its one-item form (linalg.frobs).  An item
whose intermediate is n^4 (the regular unitary against a projection in
dual-projection-identity) stays in a loop over items, so that memory grows
with one item and not with the list.

A round trip (state-coideal-bijection, double-dual-roundtrip,
codual-involution, codual-state-consistency) computes its second route as
plain arrays, by the raw half of the certifying constructor, so by the
same arithmetic, and compares them with the held certified objects; it
certifies nothing.
"""
from __future__ import annotations

import dataclasses
import functools
import operator

import numpy as np

from . import catalog, coideal, duality, harmonic, hopf, lattice
from .errors import CriteriaDisagree, QuantumGroupError
from .linalg import (
    RANK_TOL,
    _rank,
    by_key,
    containment_defects,
    dagger,
    frob,
    frobs,
    orthonormal_columns,
    padded,
    subspace_distance,
    sup,
)

DEFAULT_SEED = 1729   # seeds the suite's random probes


@dataclasses.dataclass
class CheckResult:
    key: str
    passed: bool
    residual: float
    detail: str = ""
    internal: bool = False


class CheckContext:
    """What the checks read.

    The group, its GNS space and the seeded stream are set up front, and
    the stages fill in the enumeration and the dual pair.  The per-state
    expectations, dual states and co-duals (one stacked call each), the
    stacked coefficients, supports and L2 projections, and the table of
    convolutions of every ordered pair of states, are computed at first
    use, once.
    """

    def __init__(self, group, axiom_tol, tol, seed):
        self.group = hopf.with_haar(group)
        self.space = hopf.gns(self.group)
        self.rng = np.random.default_rng(seed)
        self.axiom_tol, self.tol = axiom_tol, tol
        self.enum: lattice.EnumerationResult | None = None
        self.states: list[harmonic.IdempotentState] = []
        self.lat: lattice.IdempotentLattice | None = None
        self.pair: duality.DualPair | None = None

    @functools.cached_property
    def expectations(self) -> list[np.ndarray]:
        return coideal.expectations(self.states, self.tol)

    @functools.cached_property
    def dual_states(self) -> list[harmonic.IdempotentState]:
        return duality.dual_states(self.states, self.pair, self.tol)

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        return np.array([s.coeffs for s in self.states])

    @functools.cached_property
    def qperps(self) -> np.ndarray:
        return np.array([s.q_perp for s in self.states])

    @functools.cached_property
    def projs(self) -> np.ndarray:
        """The L2 projections onto the states' coideals."""
        return np.array([s.l2_projection for s in self.states])

    @functools.cached_property
    def convolutions(self) -> np.ndarray:
        """[i, j]: the coefficients of states[i] * states[j]."""
        return harmonic.convolution_table(self.group, self.coeffs, self.coeffs)

    @functools.cached_property
    def coduals(self) -> list[coideal.Coideal]:
        return duality.coduals([s.coideal for s in self.states], self.pair, self.tol)


def _enumerate(c):
    c.enum = lattice.enumerate_idempotents(c.group, strategy="auto", tol=c.tol)
    c.states, c.lat = c.enum.states, c.enum.lattice


def _dual(c):
    c.pair = duality.dual(c.group, c.tol)


def _largest(residuals) -> float:
    """The largest residual, or 0.0 when there is none."""
    return max([0.0, *residuals])


def _per_state(fn):
    """The check reporting the worst of fn(context), one residual per state.

    It names the first state that attains the worst residual; no state
    when every residual is zero (a NaN residual counts as zero).
    """
    def check(c):
        residuals = np.asarray(fn(c), dtype=float)
        positive = np.where(residuals > 0.0, residuals, 0.0)
        i = int(np.argmax(positive)) if positive.size else 0
        if not positive.size or positive[i] == 0.0:
            return 0.0, ""
        return float(positive[i]), c.states[i].name or "?"
    return check


def _axioms(c):
    report = hopf.validate(c.group, c.axiom_tol)
    return report.max_residual, ", ".join(report.failing())


def _haar_permutation(c):
    group, n = c.group, c.group.dim
    perm = c.rng.permutation(n)
    inv = np.argsort(perm)
    permuted = hopf.FiniteQuantumGroup(dim=n, **{
        name: getattr(group, name)[np.ix_(*[inv] * rank)]
        for name, rank in hopf.TENSORS.items()})
    h = hopf.compute_haar(permuted)
    return sup(h - group.haar[inv]), ""


def _gns_left_regular(c):
    # [i, a]: L(e_i) e_a and e_i e_a in L2, as stacked matrix-vector products
    t, n = c.space.orthonormal_basis, c.group.dim
    acted = (c.space.left_mult[:, None] @ t.T[:, :, None])[..., 0]
    products = (t @ c.group.mult[..., None])[..., 0]
    return _largest(frobs((acted - products).reshape(n * n, n))), ""


def _convolution_associativity(c):
    # ten triples of functionals, drawn in order, their convolutions stacked
    n = c.group.dim
    fs = np.array([c.rng.standard_normal(n) + 1j * c.rng.standard_normal(n)
                   for _ in range(30)]).reshape(10, 3, n)
    conv = lambda a, b: (harmonic.convolution_operators(c.group, a) @ b[..., None])[..., 0]
    lhs = conv(conv(fs[:, 0], fs[:, 1]), fs[:, 2])
    rhs = conv(fs[:, 0], conv(fs[:, 1], fs[:, 2]))
    return _largest(np.abs(lhs - rhs).max(axis=-1)
                    / np.maximum(1.0, np.abs(rhs).max(axis=-1))), ""


def _membership(c):
    # the solutions x of coproduct(x)(1 (x) q) = x (x) q against the coideal.
    # system[m, b, p, u] is coproduct(e_b)(1 (x) q_m) - e_b (x) q_m, with
    # e_r q = sum_t mult[r, t] q[t]; each state's n^2 x n system is one item
    # of one batched SVD
    group, n, qs = c.group, c.group.dim, c.qperps
    right = (group.mult.transpose(0, 2, 1).reshape(n * n, n) @ qs.T).reshape(n, n, -1)
    system = group.comult.reshape(n * n, n) @ right.transpose(2, 0, 1)
    system = system.reshape(-1, n, n, n) - np.eye(n)[:, :, None] * qs[:, None, None, :]
    _, values, vh = np.linalg.svd(system.reshape(-1, n, n * n).swapaxes(-1, -2),
                                  full_matrices=False)
    return [subspace_distance(orthonormal_columns(
        c.space.orthonormal_basis @ dagger(v)[:, _rank(sv, RANK_TOL):]), s.coideal.gns_basis())
        for s, sv, v in zip(c.states, values, vh)]


def _minimal_central(c):
    # q lies in the coideal, commutes with it, and compresses it to one line.
    # The coideal bases are zero-padded to one width: a zero element
    # commutes and compresses to zero
    group, n, k = c.group, c.group.dim, len(c.states)
    width = max(s.coideal.dim for s in c.states)
    basis = padded([s.coideal.basis for s in c.states]).swapaxes(-1, -2).reshape(k * width, n)
    qs = np.repeat(c.qperps, width, axis=0)
    qb = group.multiply(qs, basis)
    commutators = frobs(qb - group.multiply(basis, qs)).reshape(k, width).max(axis=-1)
    compressed = group.multiply(qb, qs).reshape(k, width, n)
    ranks = np.array([_rank(s, RANK_TOL) for s in np.linalg.svd(compressed, compute_uv=False)])
    outside = containment_defects(c.projs, (c.qperps @ c.space.orthonormal_basis.T)[..., None])
    return np.maximum(commutators, (~(outside < c.tol) | (ranks != 1)).astype(float))


def _haar_type_oracle(c):
    name = c.enum.report.recognized
    if not name:
        return 0.0, "no oracle (unrecognized group)"
    _, short = name.split("_", 1)
    table, _ = catalog.group_table(short)
    worst = 0.0
    for s in c.states:
        sub = catalog.subgroup_of_state(name, s.coeffs)
        if sub is None:
            return 1.0, "state is not a subgroup state"
        expected = (True if name.startswith("c_")
                    else catalog.is_normal([list(r) for r in table], sub))
        if harmonic.haar_type_test(s, c.tol) != expected:
            worst = 1.0
    return worst, ""


def _order_via_coideals(c):
    tol, k = c.tol, len(c.states)
    es = np.array(c.expectations)
    projs = np.array([s.l2_projection for s in c.states])
    bases = [s.coideal.gns_basis() for s in c.states]
    dims = [b.shape[1] for b in bases]
    conv = np.abs(c.convolutions - c.coeffs).max(axis=-1) < tol
    comp = np.linalg.norm(es[:, None] @ es - es, axis=(-2, -1)) < hopf.GAP * tol
    porder = np.linalg.norm(projs[:, None] @ projs - projs, axis=(-2, -1)) < hopf.GAP * tol
    # N_b in N_a: the sum N_a + N_b has N_a's dimension; one batched SVD
    # per width of the joined bases
    contain = np.zeros((k, k), dtype=bool)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    for batch in by_key([dims[i] + dims[j] for i, j in pairs], pairs).values():
        values = np.linalg.svd(np.array([np.hstack([bases[i], bases[j]]) for i, j in batch]),
                               compute_uv=False)
        for (i, j), s in zip(batch, values):
            contain[i, j] = _rank(s, RANK_TOL) == dims[i]
    answers = np.array([conv, comp, contain, porder])
    return float(np.count_nonzero(answers.any(axis=0) & ~answers.all(axis=0))), ""


def _bijection(c):
    # each coideal's state and that state's range, as states_from_coideals
    # and as_idempotent_states compute them
    coeffs = coideal.candidate_coeffs([s.coideal for s in c.states])
    return _largest(np.maximum(
        np.abs(coeffs - c.coeffs).max(axis=-1),
        frobs(coideal.range_projectors(c.group, coeffs) - c.projs))), ""


def _expectation_projection(c):
    es = np.array([s.conditional_expectation for s in c.states])
    return _largest(frobs(c.space.on_l2(es) - c.projs)), ""


def _expectation_uniqueness(c):
    traced = np.array([coideal.trace_expectation(s.coideal) for s in c.states])
    return (_largest(frobs(np.array(c.expectations) - traced)),
            "trace vs convolution expectation")


def _join_paths(c):
    # the join by its definition, the limit of convolution powers in closed
    # form, once per pair; "paths" also holds its distance to the table's
    # join, and "intersection" is the alternating-projection limit's
    # distance to the L2 projection of the table's join
    worst_two, worst_l2, worst_slice = 0.0, 0.0, 0.0
    rows, cols = np.triu_indices(len(c.states))
    found = lattice.joins_with_diagnostics([c.states[i] for i in rows],
                                           [c.states[j] for j in cols], c.tol)
    for i, j, (limit, diag) in zip(rows, cols, found):
        joined = c.states[c.lat.join_table[i, j]]
        table = sup(limit.coeffs - joined.coeffs)
        worst_two = max(worst_two, diag.two_path_distance, table)
        worst_l2 = max(worst_l2, frob(diag.l2_limit - joined.l2_projection))
        worst_slice = max(worst_slice, diag.slice_residual)
    return max(worst_two, worst_l2, worst_slice), (
        f"paths {worst_two:.1e}, intersection {worst_l2:.1e}, "
        f"slices {worst_slice:.1e}")


def _commutation(c):
    lattice.commutation_table(c.states, c.states, c.coeffs[c.lat.join_table], c.tol,
                              (c.convolutions, c.convolutions))
    return 0.0, f"{len(c.states) ** 2} pairs"


def modular_law(lat: lattice.IdempotentLattice,
                tol: float = hopf.DERIVED_TOL,
                convolutions=None) -> dict[tuple[int, int, int], float]:
    """The conditional modular law, read off the lattice's tables.

    Hypotheses on a triple (omega, mu, rho) of state indices: rho precedes
    omega; rho and mu commute (their join is the convolution product); the
    meet coideal of omega and mu is spanned by plain products of their
    coideals.  Under these the two bracketings agree: omega meet (mu join
    rho) equals (omega meet mu) join rho.  The tables were built by the
    operations and verified extremal, so composing indices composes the
    operations.  convolutions[r, m], the coefficients of states[r] *
    states[m], is computed when the caller does not hold it.  The plain
    products of each pair of coideals are spanned by one batched SVD per
    pair of coideal dimensions.  Returns the distance between the
    bracketings for every triple that meets the hypotheses.
    """
    states = lat.states
    group = states[0].home
    k = len(states)
    coeffs = np.array([s.coeffs for s in states])
    if convolutions is None:
        convolutions = harmonic.convolution_table(group, coeffs, coeffs)
    commute = np.abs(coeffs[lat.join_table] - convolutions).max(axis=-1) < tol
    t = hopf.gns(group).orthonormal_basis
    bases = [s.coideal.basis for s in states]
    pairs = [(o, m) for o in range(k) for m in range(k)]
    plain = np.zeros((k, k), dtype=bool)
    for group_pairs in by_key([(bases[o].shape[1], bases[m].shape[1]) for o, m in pairs],
                              pairs).values():
        lefts, rights = (np.array([bases[pair[side]] for pair in group_pairs])
                         for side in (0, 1))
        u, s, _ = np.linalg.svd(t @ coideal._products(group, lefts, rights),
                                full_matrices=False)
        # each pair's spanning columns: the singular vectors above its rank cut
        ranks = np.array([_rank(values, RANK_TOL) for values in s])
        spans = u * (np.arange(u.shape[-1]) < ranks[:, None])[:, None, :]
        meets = np.array([states[lat.meet_table[o, m]].l2_projection for o, m in group_pairs])
        near = np.linalg.norm(spans @ dagger(spans) - meets, axis=(-2, -1)) < hopf.GAP * tol
        plain[tuple(np.array(group_pairs).T)] = near
    # [o, m, r]: the hypotheses, in the triples' row-major order
    o, m, r = np.nonzero(plain[:, :, None] & lat.order.T[:, None, :] & commute.T[None])
    lhs = lat.meet_table[o, lat.join_table[m, r]]
    rhs = lat.join_table[lat.meet_table[o, m], r]
    gaps = np.abs(coeffs[lhs] - coeffs[rhs]).max(axis=-1, initial=0.0)
    return dict(zip(zip(o.tolist(), m.tolist(), r.tolist()), gaps.tolist()))


def _modular_law(c):
    distances = modular_law(c.lat, c.tol, c.convolutions)
    return _largest(distances.values()), f"{len(distances)} applicable triples"


def _coeffs(states) -> np.ndarray:
    return np.array([s.coeffs for s in states])


def _double_dual(c):
    pair2 = duality.dual(c.pair.dual_group, c.tol)
    backs = duality.dual_functionals(c.dual_states, pair2, c.tol)
    return _largest(np.abs(_coeffs(backs) - c.coeffs).max(axis=-1)), ""


def _dual_support_slice(c):
    return _largest(frobs(c.space.represent(_coeffs(c.dual_states))
                          - c.space.represent(c.qperps))), ""


def _codual_involution(c):
    # the way back: the co-dual's kernels over the dual's dual, orthonormalized
    # there and then on the group, as coideals_from_spans orthonormalizes them
    mirror = duality.dual(c.pair.dual_group, c.tol)
    _, once = coideal.orthonormal_spans(mirror.dual_group,
                                        duality.codual_kernels(c.coduals, mirror))
    _, backs = coideal.orthonormal_spans(c.group, once)
    return _largest(frobs(coideal.l2_projectors(c.group, backs) - c.projs)), ""


def _codual_state(c):
    # the dual state by a second route: the state of the co-dual coideal,
    # whose range must be that coideal
    coideal.require_ranges(c.dual_states, c.coduals, c.tol)
    return _largest(np.abs(coideal.candidate_coeffs(c.coduals)
                           - _coeffs(c.dual_states)).max(axis=-1)), ""


def _exchange(c):
    # duality swaps the operations, so the primal tables swapped are the
    # dual states' tables: each entry is verified as an extremal bound in
    # the dual states' own order, and a violation raises
    lattice._lattice_from_tables(c.dual_states, c.lat.join_table, c.lat.meet_table, c.tol)
    return 0.0, f"{len(c.states) * (len(c.states) + 1) // 2} pairs through the dual lattice"


def _qperp_order(c):
    # products[j, i] = q_j q_i; state i precedes state j when q_j q_i = q_i
    n = c.group.dim
    q = np.array([s.q_perp for s in c.states])
    products = q @ (q @ c.group.mult.reshape(n, n * n)).reshape(-1, n, n)
    below = np.linalg.norm(products - q, axis=-1).T < c.tol
    return float(np.count_nonzero(c.lat.order != below)), ""


def _projection_identity_defect(w: np.ndarray, p: np.ndarray) -> float:
    """|W* (1 (x) P) W (P (x) 1) - P (x) P|_F, with P applied to W's legs."""
    n = p.shape[0]
    w4 = w.reshape(n, n, n, n)                      # W[r1, r2, c1, c2]
    right = p.T @ w4                                # W (P (x) 1): P on leg c1
    both = p @ right.reshape(n, n, n * n)           # (1 (x) P) on leg r2
    lhs = (dagger(w) @ both.reshape(n * n, n * n)).reshape(n, n, n, n)
    return frob(lhs - np.einsum("ac,bd->abcd", p, p))


def _projection_identity(c):
    return _largest(_projection_identity_defect(c.pair.regular.w, s.l2_projection)
                    for s in c.states), ""


STAGE = None   # the tolerance of a pipeline stage: it fills the context
_axiom_tol = operator.attrgetter("axiom_tol")
_tol = operator.attrgetter("tol")

# (key, tolerance, check) in report order.  A tolerance is a number or a
# function of the context; a check returns (residual, detail) and passes
# when the residual is below the tolerance.
check_table = [
    ("axioms", _axiom_tol, _axioms),
    ("haar-permutation-invariance", 1e-12, _haar_permutation),
    ("gns-left-regular", 1e-12, _gns_left_regular),
    ("convolution-associativity", 1e-10, _convolution_associativity),
    ("enumerate_idempotents", STAGE, _enumerate),
    # the counit's coideal is the whole algebra and the Haar state's the
    # scalars; on the trivial quantum group they are one state
    ("enumeration", 0.5, lambda c: (
        float(not {1, c.group.dim} <= {s.coideal.dim for s in c.states}),
        f"{len(c.states)} states ({c.enum.report.coverage})")),
    ("dual", STAGE, _dual),
    ("pentagon", 1e-10, lambda c: (
        c.pair.regular.residuals["pentagon"], f"unitary kind {duality.W_KIND}")),
    ("dual-axioms", _tol, lambda c: (c.pair.residuals["dual-axioms"], "")),
    ("biduality", _tol, lambda c: (c.pair.residuals["biduality"], "")),
    ("support-reconstruction", _tol, _per_state(lambda c: [sup(
        harmonic.state_from_qperp(c.group, q).coeffs - f) for q, f in zip(c.qperps, c.coeffs)])),
    ("support-group-like", _tol, _per_state(lambda c: np.maximum(
        harmonic.projection_defects(c.group, c.qperps),
        [harmonic.group_like_defect(c.group, q) for q in c.qperps]))),
    ("support-annihilation", _tol, _per_state(lambda c: [frob(c.group.tensor_multiply(
        c.group.coproduct(c.group.unit - q), np.outer(q, q))) for q in c.qperps])),
    ("support-antipode-invariant", _tol, _per_state(lambda c: frobs(
        (c.group.antipode @ (c.group.unit - c.qperps)[..., None])[..., 0]
        - (c.group.unit - c.qperps)))),
    ("coideal-membership-criterion", _tol, _per_state(_membership)),
    ("support-minimal-central", _tol, _per_state(_minimal_central)),
    ("haar-type-oracle", 0.5, _haar_type_oracle),
    # the lattice's order matrix ran preceq, which demands that its four
    # criteria agree, on every ordered pair
    ("order-criteria-agreement", 1.0, lambda c: (
        0.0, f"{c.lat.order.size} ordered pairs")),
    ("order-criteria-via-coideals", 0.5, _order_via_coideals),
    ("state-coideal-bijection", _tol, _bijection),
    ("expectation-gns-projection", 1e-10, _expectation_projection),
    ("expectation-uniqueness", lambda c: hopf.GAP * c.tol, _expectation_uniqueness),
    # the lattice verified its order and tables as it was built
    ("lattice-order-and-tables", 1.0, lambda c: (
        0.0, f"{len(c.states)} states, {len(c.lat.hasse_edges)} covers")),
    ("join-two-paths", 1e-8, _join_paths),
    ("commutation-equivalences", 1.0, _commutation),
    ("modular-law", _tol, _modular_law),
    ("double-dual-roundtrip", 1e-8, _double_dual),
    ("dual-support-slice", 1e-8, _dual_support_slice),
    ("dual-projection-group-like", _tol, lambda c: (_largest(
        harmonic.group_like_defect(c.pair.dual_group, s.coeffs) for s in c.states), "")),
    ("codual-involution", _tol, _codual_involution),
    ("codual-state-consistency", 1e-8, _codual_state),
    ("duality-exchange", 1e-8, _exchange),
    ("support-order-criterion", 0.5, _qperp_order),
    ("dual-projection-identity", _tol, _projection_identity),
]


def _safe(key, fn, context, tol) -> CheckResult:
    """Run one residual-valued check, converting exceptions to failures."""
    try:
        residual, detail = fn(context)
    except CriteriaDisagree as exc:
        return CheckResult(key, False, float("inf"), str(exc), internal=True)
    except QuantumGroupError as exc:
        return CheckResult(key, False, float("inf"), str(exc))
    return CheckResult(key, bool(residual < tol), float(residual), detail)


def run_all_checks(group: hopf.FiniteQuantumGroup,
                   axiom_tol: float = hopf.AXIOM_TOL,
                   tol: float = hopf.DERIVED_TOL,
                   seed: int = DEFAULT_SEED,
                   restarts=None) -> list[CheckResult]:
    """The checks of check_table in order; an error in a stage propagates.

    seed seeds the probes; restarts is accepted and unused, since no
    enumeration is seeded.
    """
    context = CheckContext(group, axiom_tol, tol, seed)
    results = []
    for key, bound, fn in check_table:
        if bound is STAGE:
            fn(context)
        else:
            results.append(_safe(key, fn, context,
                                 bound(context) if callable(bound) else bound))
    return results


def summary(results: list[CheckResult]) -> str:
    lines = [f"{'check':<34}{'residual':>12}  ok"]
    for r in results:
        lines.append(f"{r.key:<34}{r.residual:>12.2e}  "
                     f"{'yes' if r.passed else 'NO'}"
                     + (f"  [{r.detail}]" if r.detail else ""))
    bad = [r.key for r in results if not r.passed]
    lines.append("overall: " + ("pass" if not bad else f"FAIL ({', '.join(bad)})"))
    return "\n".join(lines)
