"""The full property suite: every structural theorem as an executable check.

Each check is keyed by what it verifies; a failed check with internal=True
signals a broken postcondition (bug or tolerance breach) rather than a
plain property failure.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import catalog, coideal, duality, harmonic, hopf, lattice
from .errors import CriteriaDisagree, QuantumGroupError
from .linalg import dagger, frob, nullspace, orthonormal_columns, subspace_distance, sup


@dataclasses.dataclass
class CheckResult:
    key: str
    passed: bool
    residual: float
    detail: str = ""
    internal: bool = False


def _safe(results, key, fn, tol):
    """Run one residual-valued check, converting exceptions to failures."""
    try:
        residual, detail = fn()
        results.append(CheckResult(key, bool(residual < tol), float(residual), detail))
    except CriteriaDisagree as exc:
        results.append(CheckResult(key, False, float("inf"), str(exc), internal=True))
    except QuantumGroupError as exc:
        results.append(CheckResult(key, False, float("inf"), str(exc)))


def run_all_checks(group: hopf.FiniteQuantumGroup,
                   axiom_tol: float = hopf.AXIOM_TOL,
                   tol: float = hopf.DERIVED_TOL,
                   seed: int = lattice.DEFAULT_SEED,
                   restarts: int = lattice.DEFAULT_RESTARTS) -> list[CheckResult]:
    group = hopf.with_haar(group)
    space = hopf.gns(group)
    n = group.dim
    results: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    report = hopf.validate(group, axiom_tol)
    results.append(CheckResult("axioms", report.passed, report.max_residual,
                               ", ".join(report.failing())))

    def haar_permutation():
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        permuted = hopf.FiniteQuantumGroup(
            dim=n,
            mult=group.mult[np.ix_(inv, inv, inv)],
            unit=group.unit[inv],
            comult=group.comult[np.ix_(inv, inv, inv)],
            counit=group.counit[inv],
            antipode=group.antipode[np.ix_(inv, inv)],
            star=group.star[np.ix_(inv, inv)])
        h = hopf.compute_haar(permuted)
        return sup(h - group.haar[inv]), ""
    _safe(results, "haar-permutation-invariance", haar_permutation, 1e-12)

    def gns_left_regular():
        worst = 0.0
        eye = np.eye(n)
        for i in range(n):
            for a in range(n):
                lhs = space.left_mult[i] @ space.embed(eye[a])
                rhs = space.embed(group.multiply(eye[i], eye[a]))
                worst = max(worst, frob(lhs - rhs))
        return worst, ""
    _safe(results, "gns-left-regular", gns_left_regular, 1e-12)

    def conv_assoc():
        worst = 0.0
        for _ in range(10):
            fs = [harmonic.Functional(home=group,
                                      coeffs=rng.standard_normal(n)
                                      + 1j * rng.standard_normal(n))
                  for _ in range(3)]
            lhs = harmonic.convolve(harmonic.convolve(fs[0], fs[1]), fs[2])
            rhs = harmonic.convolve(fs[0], harmonic.convolve(fs[1], fs[2]))
            worst = max(worst, sup(lhs.coeffs - rhs.coeffs)
                        / max(1.0, sup(rhs.coeffs)))
        return worst, ""
    _safe(results, "convolution-associativity", conv_assoc, 1e-10)

    enum = lattice.enumerate_idempotents(group, strategy="auto", seed=seed,
                                         restarts=restarts, tol=tol)
    states = enum.states
    lat = enum.lattice
    results.append(CheckResult("enumeration", len(states) >= 2, 0.0,
                               f"{len(states)} states ({enum.report.coverage})"))

    pair = duality.dual(group, tol)
    reg = pair.regular
    results.append(CheckResult(
        "pentagon", reg.residuals["pentagon"] < 1e-10,
        reg.residuals["pentagon"], f"unitary kind {reg.kind}"))
    results.append(CheckResult(
        "dual-axioms", pair.convention.residuals["dual-axioms"] < tol,
        pair.convention.residuals["dual-axioms"], ""))
    results.append(CheckResult(
        "biduality", pair.convention.residuals["biduality"] < tol,
        pair.convention.residuals["biduality"], ""))

    def per_state(fn):
        worst, which = 0.0, ""
        for s in states:
            r = fn(s)
            if r > worst:
                worst, which = r, s.name or "?"
        return worst, which

    _safe(results, "support-reconstruction",
          lambda: per_state(lambda s: sup(
              harmonic.state_from_qperp(group, s.q_perp).coeffs - s.coeffs)), tol)

    _safe(results, "support-group-like",
          lambda: per_state(lambda s: max(
              harmonic.projection_defect(group, s.q_perp),
              harmonic.group_like_defect(group, s.q_perp))), tol)

    def annihilation(s):
        q = group.unit - s.q_perp
        dq = group.coproduct(q)
        qp2 = np.outer(s.q_perp, s.q_perp)
        return frob(group.tensor_multiply(dq, qp2))
    _safe(results, "support-annihilation", lambda: per_state(annihilation), tol)

    _safe(results, "support-antipode-invariant",
          lambda: per_state(lambda s: frob(
              group.antipode_of(group.unit - s.q_perp) - (group.unit - s.q_perp))), tol)

    def membership(s):
        # solution space of coproduct(x)(1 (x) qperp) = x (x) qperp vs the coideal
        cols = []
        eye = np.eye(n)
        one_q = np.outer(group.unit, s.q_perp)
        for i in range(n):
            lhs = group.tensor_multiply(group.coproduct(eye[i]), one_q)
            rhs = np.outer(eye[i], s.q_perp)
            cols.append((lhs - rhs).reshape(-1))
        kernel = nullspace(np.column_stack(cols))
        kernel_l2 = space.orthonormal_basis @ kernel
        return subspace_distance(orthonormal_columns(kernel_l2),
                                 s.coideal.gns_basis())
    _safe(results, "coideal-membership-criterion", lambda: per_state(membership), tol)

    def minimal_central(s):
        q = s.q_perp
        basis = s.coideal.basis
        worst = 0.0 if s.coideal.contains(q, tol) else 1.0
        compressed = []
        for i in range(basis.shape[1]):
            b = basis[:, i]
            worst = max(worst, frob(group.multiply(q, b) - group.multiply(b, q)))
            compressed.append(group.multiply(group.multiply(q, b), q))
        rank = orthonormal_columns(np.column_stack(compressed)).shape[1]
        if rank != 1:
            worst = max(worst, 1.0)
        return worst
    _safe(results, "support-minimal-central", lambda: per_state(minimal_central), tol)

    def haar_type_oracle():
        if not enum.report.recognized:
            return 0.0, "no oracle (unrecognized group)"
        name = enum.report.recognized
        _, short = name.split("_", 1)
        table, _ = catalog.group_table(short)
        worst = 0.0
        for s in states:
            sub = catalog.subgroup_of_state(name, s.coeffs)
            if sub is None:
                return 1.0, "state is not a subgroup state"
            expected = (True if name.startswith("c_")
                        else catalog.is_normal([list(r) for r in table], sub))
            if harmonic.haar_type_test(s, tol) != expected:
                worst = 1.0
        return worst, ""
    _safe(results, "haar-type-oracle", haar_type_oracle, 0.5)

    def order_criteria():
        # the lattice's order matrix ran preceq, which demands that its
        # four criteria agree, on every ordered pair
        return 0.0, f"{lat.order.size} ordered pairs"
    _safe(results, "order-criteria-agreement", order_criteria, 1.0)

    @functools.cache
    def expectations():
        return [coideal.expectation(s, tol) for s in states]

    def order_via_coideals():
        es = expectations()
        projections = [s.l2_projection for s in states]
        disagreements = 0
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                conv = sup(harmonic.convolve(a.functional, b.functional).coeffs
                           - b.coeffs) < tol
                comp = frob(es[i] @ es[j] - es[j]) < 100 * tol
                crossing = coideal.intersect(a.coideal, b.coideal, tol)
                contain = subspace_distance(
                    crossing.gns_basis(), b.coideal.gns_basis()) < 100 * tol
                porder = frob(projections[i] @ projections[j]
                              - projections[j]) < 100 * tol
                if len({conv, comp, contain, porder}) != 1:
                    disagreements += 1
        return float(disagreements), ""
    _safe(results, "order-criteria-via-coideals", order_via_coideals, 0.5)

    def bijection():
        worst = 0.0
        for s in states:
            back = coideal.state_from_coideal(s.coideal, tol)
            worst = max(worst, sup(back.coeffs - s.coeffs))
            worst = max(worst, subspace_distance(back.coideal.gns_basis(),
                                                 s.coideal.gns_basis()))
        return worst, ""
    _safe(results, "state-coideal-bijection", bijection, tol)

    def eq_expectation_projection():
        worst = 0.0
        for s in states:
            l2map = (space.orthonormal_basis @ s.conditional_expectation
                     @ space.inverse_basis)
            worst = max(worst, frob(l2map - s.l2_projection))
        return worst, ""
    _safe(results, "expectation-gns-projection", eq_expectation_projection, 1e-10)

    def expectation_battery():
        worst = 0.0
        for s, e in zip(states, expectations()):
            trace_e = coideal.trace_expectation(s.coideal)
            worst = max(worst, frob(e - trace_e))
        return worst, "trace vs convolution expectation"
    _safe(results, "expectation-uniqueness", expectation_battery, 100 * tol)

    results.append(CheckResult("lattice-order-and-tables", True, 0.0,
                               f"{len(states)} states, {len(lat.hasse_edges)} covers"))

    def join_paths():
        # the join by its definition, the limit of convolution powers, once
        # per pair; "paths" also holds its distance to the table's join
        worst_two, worst_l2, worst_slice = 0.0, 0.0, 0.0
        for i, a in enumerate(states):
            for j in range(i, len(states)):
                limit, diag = lattice.join_with_diagnostics(a, states[j], tol)
                table = sup(limit.coeffs - states[lat.join_table[i, j]].coeffs)
                worst_two = max(worst_two, diag.two_path_distance, table)
                worst_l2 = max(worst_l2, diag.l2_intersection_residual)
                worst_slice = max(worst_slice, diag.slice_residual)
        return max(worst_two, worst_l2, worst_slice), (
            f"paths {worst_two:.1e}, intersection {worst_l2:.1e}, "
            f"slices {worst_slice:.1e}")
    _safe(results, "join-two-paths", join_paths, 1e-8)

    def commutation():
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                lattice.commutation_equivalences(
                    a, b, tol, joined=states[lat.join_table[i, j]])
        return 0.0, f"{len(states) ** 2} pairs"
    _safe(results, "commutation-equivalences", commutation, 1.0)

    def modular():
        # table-driven sweep: the tables were built by the real operations
        # and verified extremal, so index composition is the two bracketings
        k = len(states)
        applicable = 0
        worst = 0.0
        for oi in range(k):
            for mi in range(k):
                for ri in range(k):
                    if not lat.order[ri, oi]:
                        continue
                    rm = harmonic.convolve(states[ri].functional,
                                           states[mi].functional)
                    if sup(states[lat.join_table[ri, mi]].coeffs - rm.coeffs) >= tol:
                        continue
                    prod_span = np.einsum(
                        "ai,abc,bj->cij", states[oi].coideal.basis, group.mult,
                        states[mi].coideal.basis).reshape(n, -1)
                    span = coideal.coideal_from_span(group, prod_span, tol)
                    meet_coid = states[lat.meet_table[oi, mi]].coideal
                    if subspace_distance(span.gns_basis(),
                                         meet_coid.gns_basis()) >= 100 * tol:
                        continue
                    applicable += 1
                    lhs = lat.meet_table[oi, lat.join_table[mi, ri]]
                    rhs = lat.join_table[lat.meet_table[oi, mi], ri]
                    worst = max(worst, sup(states[lhs].coeffs - states[rhs].coeffs))
        return worst, f"{applicable} applicable triples"
    _safe(results, "modular-law", modular, tol)

    @functools.cache
    def dual_states():
        return [duality.dual_state(s, pair, tol) for s in states]

    def double_dual():
        pair2 = duality.dual(pair.dual_group, tol)
        worst = 0.0
        for s, ds in zip(states, dual_states()):
            back = duality.dual_state(ds, pair2, tol)
            worst = max(worst, sup(back.coeffs - s.coeffs))
        return worst, ""
    _safe(results, "double-dual-roundtrip", double_dual, 1e-8)

    def dual_support_slice():
        worst = 0.0
        for s, ds in zip(states, dual_states()):
            sliced = duality.slice_first_leg(reg, ds.coeffs)
            worst = max(worst, frob(sliced - space.represent(s.q_perp)))
        return worst, ""
    _safe(results, "dual-support-slice", dual_support_slice, 1e-8)

    def dual_group_like():
        worst = 0.0
        for s in states:
            worst = max(worst, harmonic.group_like_defect(pair.dual_group, s.coeffs))
        return worst, ""
    _safe(results, "dual-projection-group-like", dual_group_like, tol)

    @functools.cache
    def coduals():
        return [duality.codual(s.coideal, pair, "primal", tol) for s in states]

    def codual_involution():
        worst = 0.0
        for s, once in zip(states, coduals()):
            back = duality.codual(once, pair, "dual", tol)
            worst = max(worst, subspace_distance(back.gns_basis(),
                                                 s.coideal.gns_basis()))
        return worst, ""
    _safe(results, "codual-involution", codual_involution, tol)

    def codual_state():
        # the dual state by a second route: the state of the co-dual coideal
        worst = 0.0
        for once, ds in zip(coduals(), dual_states()):
            via_coideal = coideal.state_from_coideal(once, tol)
            worst = max(worst, sup(via_coideal.coeffs - ds.coeffs))
        return worst, ""
    _safe(results, "codual-state-consistency", codual_state, 1e-8)

    def exchange():
        duals = dual_states()
        dual_lat = lattice.build_lattice(duals, tol)
        worst = 0.0
        k = len(states)
        for i in range(k):
            for j in range(i, k):
                worst = max(worst, sup(
                    duals[lat.meet_table[i, j]].coeffs
                    - duals[dual_lat.join_table[i, j]].coeffs))
                worst = max(worst, sup(
                    duals[lat.join_table[i, j]].coeffs
                    - duals[dual_lat.meet_table[i, j]].coeffs))
        return worst, f"{k * (k + 1) // 2} pairs through the dual lattice"
    _safe(results, "duality-exchange", exchange, 1e-8)

    def qperp_order():
        mismatches = 0
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                claimed = lat.order[i, j]
                via_q = frob(group.multiply(b.q_perp, a.q_perp) - a.q_perp) < tol
                if claimed != via_q:
                    mismatches += 1
        return float(mismatches), ""
    _safe(results, "support-order-criterion", qperp_order, 0.5)

    def projection_identity():
        worst = 0.0
        eye = np.eye(n)
        for s in states:
            p = s.l2_projection
            lhs = dagger(reg.w) @ np.kron(eye, p) @ reg.w @ np.kron(p, eye)
            worst = max(worst, frob(lhs - np.kron(p, p)))
        return worst, ""
    _safe(results, "dual-projection-identity", projection_identity, tol)

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
