"""The suite's stacked checks against loops over states, pairs and probes.

Each reference below is the check written one state (pair, probe) at a
time; the stacked check must report the same residual and detail.
"""
import numpy as np
import pytest

from qglab import checks, coideal, duality, harmonic, hopf
from qglab.linalg import (
    RANK_TOL,
    _rank,
    frob,
    nullspace,
    orthonormal_columns,
    subspace_distance,
    sup,
)
from conftest import named_group


def context(name):
    c = checks.CheckContext(named_group(name), hopf.AXIOM_TOL, hopf.DERIVED_TOL,
                            checks.DEFAULT_SEED)
    checks._enumerate(c)
    checks._dual(c)
    return c


def per_state(fn):
    def check(c):
        worst, which = 0.0, ""
        for s in c.states:
            r = fn(c, s)
            if r > worst:
                worst, which = r, s.name or "?"
        return worst, which
    return check


def largest(residuals):
    return max([0.0, *residuals])


def gns_left_regular(c):
    eye = np.eye(c.group.dim)
    return largest(frob(c.space.left_mult[i] @ c.space.embed(eye[a])
                        - c.space.embed(c.group.multiply(eye[i], eye[a])))
                   for i in range(c.group.dim) for a in range(c.group.dim)), ""


def convolution_associativity(c):
    n = c.group.dim
    worst = 0.0
    for _ in range(10):
        fs = [harmonic.Functional(home=c.group, coeffs=c.rng.standard_normal(n)
                                  + 1j * c.rng.standard_normal(n)) for _ in range(3)]
        lhs = harmonic.convolve(harmonic.convolve(fs[0], fs[1]), fs[2])
        rhs = harmonic.convolve(fs[0], harmonic.convolve(fs[1], fs[2]))
        worst = max(worst, sup(lhs.coeffs - rhs.coeffs) / max(1.0, sup(rhs.coeffs)))
    return worst, ""


def membership(c, s):
    group = c.group
    one_q = np.outer(group.unit, s.q_perp)
    cols = [(group.tensor_multiply(group.coproduct(e), one_q)
             - np.outer(e, s.q_perp)).reshape(-1) for e in np.eye(group.dim)]
    kernel_l2 = c.space.orthonormal_basis @ nullspace(np.column_stack(cols))
    return subspace_distance(orthonormal_columns(kernel_l2), s.coideal.gns_basis())


def minimal_central(c, s):
    group, q, basis = c.group, s.q_perp, s.coideal.basis.T
    compressed = [group.multiply(group.multiply(q, b), q) for b in basis]
    rank = orthonormal_columns(np.column_stack(compressed)).shape[1]
    return largest([0.0 if s.coideal.contains(q, c.tol) else 1.0,
                    *(frob(group.multiply(q, b) - group.multiply(b, q)) for b in basis),
                    0.0 if rank == 1 else 1.0])


def bijection(c):
    backs = [coideal.state_from_coideal(s.coideal, c.tol) for s in c.states]
    return largest(max(sup(back.coeffs - s.coeffs),
                       subspace_distance(back.coideal.gns_basis(), s.coideal.gns_basis()))
                   for s, back in zip(c.states, backs)), ""


def double_dual(c):
    pair2 = duality.dual(c.pair.dual_group, c.tol)
    return largest(sup(duality.dual_state(d, pair2, c.tol).coeffs - s.coeffs)
                   for s, d in zip(c.states, c.dual_states)), ""


def codual_involution(c):
    mirror = duality.dual(c.pair.dual_group, c.tol)
    worst = 0.0
    for s in c.states:
        once = duality.codual(s.coideal, c.pair, c.tol)
        back = coideal.coideal_from_span(c.group, duality.codual(once, mirror, c.tol).basis,
                                         c.tol)
        worst = max(worst, subspace_distance(back.gns_basis(), s.coideal.gns_basis()))
    return worst, ""


def codual_state(c):
    return largest(sup(coideal.state_from_coideal(duality.codual(s.coideal, c.pair, c.tol),
                                                  c.tol).coeffs - ds.coeffs)
                   for s, ds in zip(c.states, c.dual_states)), ""


REFERENCES = {
    "gns-left-regular": gns_left_regular,
    "convolution-associativity": convolution_associativity,
    "support-reconstruction": per_state(lambda c, s: sup(
        harmonic.state_from_qperp(c.group, s.q_perp).coeffs - s.coeffs)),
    "support-group-like": per_state(lambda c, s: max(
        harmonic.projection_defect(c.group, s.q_perp),
        harmonic.group_like_defect(c.group, s.q_perp))),
    "support-annihilation": per_state(lambda c, s: frob(c.group.tensor_multiply(
        c.group.coproduct(c.group.unit - s.q_perp), np.outer(s.q_perp, s.q_perp)))),
    "support-antipode-invariant": per_state(lambda c, s: frob(
        c.group.antipode_of(c.group.unit - s.q_perp) - (c.group.unit - s.q_perp))),
    "coideal-membership-criterion": per_state(membership),
    "support-minimal-central": per_state(minimal_central),
    "state-coideal-bijection": bijection,
    "expectation-gns-projection": lambda c: (largest(
        frob(c.space.on_l2(s.conditional_expectation) - s.l2_projection)
        for s in c.states), ""),
    "expectation-uniqueness": lambda c: (largest(
        frob(coideal.expectation(s, c.tol) - coideal.trace_expectation(s.coideal))
        for s in c.states), "trace vs convolution expectation"),
    "double-dual-roundtrip": double_dual,
    "dual-support-slice": lambda c: (largest(
        frob(c.space.represent(ds.coeffs) - c.space.represent(s.q_perp))
        for s, ds in zip(c.states, c.dual_states)), ""),
    "codual-involution": codual_involution,
    "codual-state-consistency": codual_state,
}


@pytest.mark.parametrize("name", ["kp", "c_d6"])
@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_stacked_check_matches_its_loop(name, key):
    # a fresh context each: convolution-associativity draws from its stream
    check = next(fn for k, _, fn in checks.check_table if k == key)
    assert check(context(name)) == REFERENCES[key](context(name))


def reference_plain_products(lat, tol=hopf.DERIVED_TOL):
    # whether the meet coideal of each pair is spanned by plain products of
    # the two coideals, one pair at a time
    states = lat.states
    group = states[0].home
    t = hopf.gns(group).orthonormal_basis
    plain = {}
    for o, a in enumerate(states):
        for m, b in enumerate(states):
            u, s, _ = np.linalg.svd(t @ coideal._products(group, a.coideal.basis,
                                                          b.coideal.basis),
                                    full_matrices=False)
            meet = states[lat.meet_table[o, m]].coideal
            plain[o, m] = subspace_distance(u[:, :_rank(s, RANK_TOL)],
                                            meet.gns_basis()) < hopf.GAP * tol
    return plain


@pytest.mark.parametrize("name", ["kp", "c_d6", "cg_d6"])
def test_modular_law_reads_the_plain_products_of_its_loop(name):
    c = context(name)
    plain = reference_plain_products(c.lat)
    expected = {}
    for (o, m), ok in plain.items():
        for r in range(len(c.states)):
            commute = sup(c.coeffs[c.lat.join_table[m, r]] - c.convolutions[r, m]) < c.tol
            if ok and c.lat.order[r, o] and commute:
                lhs = c.lat.meet_table[o, c.lat.join_table[m, r]]
                rhs = c.lat.join_table[c.lat.meet_table[o, m], r]
                expected[o, m, r] = sup(c.states[lhs].coeffs - c.states[rhs].coeffs)
    assert checks.modular_law(c.lat, c.tol, c.convolutions) == expected
