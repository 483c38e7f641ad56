import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from qglab import catalog, checks, coideal, duality, harmonic, hopf, lattice
from qglab.errors import CriteriaDisagree, NotPositive
from qglab.linalg import dagger, frob, nullspace, subspace_distance
from conftest import dihedral_table, named_group, s3_subgroup

ALL = list(catalog.BUILTIN_NAMES)


def catalog_states(name):
    g = catalog.builtin(name)
    return g, [coideal.as_idempotent_state(f, name=f.name)
               for f in catalog.catalog_functionals(g, name)]


# ----------------------------------------------------------------------
# the regular unitary
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_unitary_and_pentagon(name):
    g = catalog.builtin(name)
    reg = duality.regular_unitary(g)
    n = g.dim
    assert frob(dagger(reg.w) @ reg.w - np.eye(n * n)) < 1e-10
    assert duality.pentagon_defect(reg.w, n) < 1e-10


def sandwich_oracle(g):
    """W as it was first built: (T (x) T) G (T^-1 (x) T^-1), the oracle.

    G is the algebra-coordinate matrix of a (x) b -> coproduct(a)(1 (x) b),
    rows (p, r) and columns (i, j), and T the orthonormal basis of L2.  It
    is evaluated in long double: in double, on the transported C(S3), the
    sandwich itself is off by 8.7e-15 (relative), against 1.9e-15 for W.
    """
    n = g.dim
    ext = lambda a: np.asarray(a, np.clongdouble)
    galois = np.einsum("ipq,qjr->prij", ext(g.comult), ext(g.mult)).reshape(n * n, n * n)
    t, t_inv = ext(hopf.gns(g).orthonormal_basis), ext(hopf.gns(g).inverse_basis)
    return np.kron(t, t) @ galois @ np.kron(t_inv, t_inv)


def moved_c_s3():
    # C(S3) in a random basis: the one input here whose T is not monomial
    from test_basis_invariance import transported
    rng = np.random.default_rng(23)
    m = np.eye(6) + 0.25 * (rng.standard_normal((6, 6))
                            + 1j * rng.standard_normal((6, 6)))
    return transported(catalog.builtin("c_s3"), m)


@pytest.mark.parametrize("name", [*ALL, "kp", *(f"{family}_d{m}" for family in ("c", "cg")
                                             for m in (4, 5, 6)), "moved_c_s3"])
def test_w_from_its_legs_matches_the_sandwich(name):
    g = moved_c_s3() if name == "moved_c_s3" else named_group(name)
    pair = duality.dual(g)
    oracle = sandwich_oracle(pair.group)
    assert np.linalg.norm(pair.regular.w - oracle) <= 1e-14 * np.linalg.norm(oracle)
    assert max(pair.residuals.values()) < 1e-10
    # the legs W is built from are the least-squares legs of the oracle
    n = g.dim
    rep = hopf.gns(pair.group).left_mult.transpose(1, 2, 0).reshape(n * n, n)
    wt = oracle.astype(complex).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    fitted = np.linalg.lstsq(rep, wt.T, rcond=None)[0].T.reshape(n, n, n).transpose(2, 0, 1)
    legs = pair.regular.second_legs
    assert np.linalg.norm(legs - fitted) <= 1e-13 * np.linalg.norm(fitted)


def dense_pentagon_defect(w, n):
    """Reference: the pentagon residual from dense n^3 x n^3 leg embeddings."""
    eye = np.eye(n)
    w12 = np.kron(w, eye)
    w23 = np.kron(eye, w)
    perm = np.arange(n ** 3).reshape(n, n, n).transpose(0, 2, 1).reshape(-1)
    swap = np.eye(n ** 3)[perm]
    w13 = swap @ w12 @ swap
    return frob(w12 @ w13 @ w23 - w23 @ w12)


def reference_pentagon_defect(w, n):
    """Reference: the exact pentagon residual, one column leg at a time.

    W is read as W[r1, r2, c1, c2] and both sides are contracted leg by leg
    for each value of the first column leg: O(n^5) memory and n^8 work.
    """
    w4 = w.reshape(n, n, n, n)
    w_z = w4.transpose(1, 0, 2, 3).reshape(n, n ** 3)   # [z, (v c d)] = W[v, z, c, d]
    w_y = w4.transpose(0, 1, 3, 2).reshape(n ** 3, n)   # [(p q d), y] = W[p, q, y, d]
    total = 0.0
    for a in range(n):
        col = w4[:, :, a, :]
        # W12 W13 W23: sum_(u, v) W[x, p, u, v] t[u, v, q, c, d],
        # with t[u, v, q, c, d] = sum_z W[u, q, a, z] W[v, z, c, d]
        t = (col.reshape(n * n, n) @ w_z).reshape(n, n, n, n, n)
        t = t.transpose(0, 2, 1, 3, 4).reshape(n * n, n ** 3)
        lhs = (w @ t).reshape(n, n, n, n, n)             # [x, p, q, c, d]
        # W23 W12: sum_y W[p, q, y, d] W[x, y, a, c]
        rhs = (w_y @ col.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n, n, n)
        total += float(np.sum(np.abs(lhs - rhs.transpose(3, 0, 1, 4, 2)) ** 2))
    return float(np.sqrt(total))


def random_w(n, seed):
    """A random complex, non-unitary W, so every term of both sides counts."""
    rng = np.random.default_rng(seed)
    shape = (n * n, n * n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pentagon_matches_dense_reference(n):
    w = random_w(n, seed=n)
    expected = dense_pentagon_defect(w, n)
    assert abs(reference_pentagon_defect(w, n) - expected) <= 1e-10 * expected


@pytest.mark.parametrize("m", [4, 5, 6])
def test_pentagon_estimate_sees_a_small_perturbation(m):
    # W of C(D_m), n = 2m, off the pentagon by a 1e-6 perturbation
    g = hopf.function_algebra(dihedral_table(m))
    n = g.dim
    w = duality.regular_unitary(g).w + 1e-6 * random_w(n, seed=m)
    expected = reference_pentagon_defect(w, n)
    assert expected > 1e-5
    assert abs(duality.pentagon_defect(w, n) - expected) <= 0.1 * expected


def test_pentagon_estimate_is_deterministic():
    w = random_w(6, seed=0)
    assert duality.pentagon_defect(w, 6) == duality.pentagon_defect(w, 6)


def test_pentagon_detects_bumped_entry(c_s3):
    w = duality.regular_unitary(c_s3).w.copy()
    w[0, 0] += 1e-3
    assert duality.pentagon_defect(w, 6) > 1e-6


def test_pentagon_probe_memory():
    # the (n, n, n, 8) probe array takes 0.2 MB at n = 12; the column loop
    # peaked at about 19 MB and the dense n^3 x n^3 form at 260 MB
    w = random_w(12, seed=0)
    tracemalloc.start()
    try:
        duality.pentagon_defect(w, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("build", [hopf.function_algebra, hopf.group_algebra])
def test_dihedral_order_16_validates_and_dualizes(build):
    g = build(dihedral_table(8))
    assert hopf.validate(g).passed
    pair = duality.dual(g)
    assert pair.residuals["pentagon"] < 1e-10


@pytest.mark.parametrize("name", ALL)
def test_slices_of_catalog_states_are_projections(name):
    g, states = catalog_states(name)
    reg = duality.regular_unitary(g)
    for s in states:
        sliced = duality.slice_second_leg(reg, s.functional)
        assert frob(sliced - s.l2_projection) < 1e-9


def test_counit_slice_is_identity(c_s3):
    reg = duality.regular_unitary(c_s3)
    sliced = duality.slice_second_leg(reg, harmonic.convolution_unit(c_s3))
    assert frob(sliced - np.eye(6)) < 1e-12


def test_haar_slice_is_vacuum_projection(c_z2):
    reg = duality.regular_unitary(c_z2)
    space = hopf.gns(c_z2)
    vac = space.embed(c_z2.unit)
    sliced = duality.slice_second_leg(reg, harmonic.haar_functional(c_z2))
    assert frob(sliced - np.outer(vac, vac.conj())) < 1e-12


def test_rejected_convention_fails_visibly(c_s3):
    # a unitary with one entry bumped must fail its battery
    reg = duality.regular_unitary(c_s3)
    space = hopf.gns(reg.group)
    w = reg.w.copy()
    w[0, 0] += 1e-3
    res = duality._unitary_battery(reg.group, w, reg.second_legs, space)
    assert max(res.values()) > 1e-6
    # and so must legs with one entry bumped, whatever W they come with
    legs = reg.second_legs.copy()
    legs[0, 0, 0] += 1e-3
    res = duality._unitary_battery(reg.group, reg.w, legs, space)
    assert max(res.values()) > 1e-6


def test_lambda_acts_by_translations(c_s3):
    # on a function algebra the dual basis acts by right translations
    table, _ = catalog.group_table("s3")
    reg = duality.regular_unitary(c_s3)
    space = hopf.gns(c_s3)
    eye = np.eye(6)
    inverse = [next(h for h in range(6) if table[g][h] == 0) for g in range(6)]
    for g in range(6):
        lam_g = reg.second_legs[g]
        for s in range(6):
            moved = lam_g @ space.embed(eye[s])
            target = next(t for t in range(6) if table[t][g] == s)
            assert frob(moved - space.embed(eye[target])) < 1e-12
    assert inverse  # labels only; keeps the oracle construction explicit


# ----------------------------------------------------------------------
# the dual quantum group
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_dual_validates_and_biduality(name):
    pair = duality.dual(catalog.builtin(name))
    assert hopf.validate(pair.dual_group).passed
    assert pair.residuals["biduality"] < 1e-12


def test_dual_of_function_algebra_is_group_algebra(c_s3, cg_s3, c_z4, cg_z4):
    for cg, c in ((cg_s3, c_s3), (cg_z4, c_z4)):
        pair = duality.dual(c)
        for field in ("mult", "unit", "comult", "counit", "antipode", "star", "haar"):
            assert np.allclose(getattr(pair.dual_group, field),
                               getattr(cg, field), atol=1e-12)


def test_pontryagin_fourier_isomorphism(c_z4, cg_z4):
    # The character matrix F[j, k] = i^(jk) maps the group algebra onto the
    # function algebra of the cyclic group of order four.  Pulling the
    # function-algebra structure back along it must reproduce the group
    # algebra's tensors.
    n = 4
    f = np.array([[1j ** (j * k) for k in range(n)] for j in range(n)],
                 dtype=complex)
    f_inv = np.linalg.inv(f)
    mult = np.einsum("pa,qb,pqr,cr->abc", f, f, c_z4.mult, f_inv)
    assert frob(mult - cg_z4.mult) < 1e-10
    comult = np.einsum("pa,pjk,bj,ck->abc", f, c_z4.comult, f_inv, f_inv)
    assert frob(comult - cg_z4.comult) < 1e-10
    assert frob(c_z4.counit @ f - cg_z4.counit) < 1e-10
    assert frob(f_inv @ c_z4.unit - cg_z4.unit) < 1e-10
    antipode = f_inv @ c_z4.antipode @ f
    assert frob(antipode - cg_z4.antipode) < 1e-10
    assert frob(c_z4.haar @ f - cg_z4.haar) < 1e-10


def test_dual_battery_rejects_corrupted_star(c_s3):
    pair = duality.dual(c_s3)
    broken = dataclasses.replace(pair.dual_group, star=2 * pair.dual_group.star)
    res = duality._dual_battery(pair.group, broken, pair.regular)
    assert res["dual-axioms"] > 1e-6


@pytest.mark.parametrize("name", ["c_s3", "cg_s3"])
def test_dual_battery_checks_only_what_the_dual_adds(name):
    # every other axiom of the dual is one of the group's, transposed
    dual_group = duality.build_dual_tensors(catalog.builtin(name))
    for axiom, residual in hopf.axiom_table(dual_group):
        if axiom not in duality.DUAL_ADDS:
            assert residual() == 0.0, axiom


@pytest.mark.parametrize("name", ALL + ["kp", "c_d4", "cg_d4"])
def test_co_opposite_dual_passes_only_where_it_is_the_dual(name):
    # the oracle: the dual with the legs of its coproduct swapped.  Its
    # double dual has the opposite product, so the battery passes exactly
    # on the groups where the swap changes nothing
    pair = duality.dual(named_group(name))
    swapped = dataclasses.replace(pair.dual_group, haar=None,
                                  comult=pair.dual_group.comult.transpose(0, 2, 1))
    swapped = hopf.with_haar(swapped)
    res = duality._dual_battery(pair.group, swapped, pair.regular)
    passes = all(v < hopf.DERIVED_TOL for v in res.values())
    same = np.array_equal(swapped.comult, pair.dual_group.comult)
    assert passes == same, res
    assert same == (name in ("c_z2", "c_z3", "c_z4", "c_s3", "cg_z4", "c_d4"))


# ----------------------------------------------------------------------
# co-duals
# ----------------------------------------------------------------------

def test_codual_extremes(c_s3):
    g, states = catalog_states("c_s3")
    pair = duality.dual(g)
    haar_state = states[-1]
    assert haar_state.coideal.dim == 1
    assert duality.codual(haar_state.coideal, pair).dim == 6
    eps_state = states[0]
    assert eps_state.coideal.dim == 6
    assert duality.codual(eps_state.coideal, pair).dim == 1


def test_codual_of_coset_algebra_is_subgroup_algebra(c_s3):
    g, states = catalog_states("c_s3")
    pair = duality.dual(g)
    h = s3_subgroup({"e", "(12)"})
    state = next(s for s in states
                 if catalog.subgroup_of_state("c_s3", s.coeffs) == h)
    cd = duality.codual(state.coideal, pair)
    span = np.zeros((6, len(h)), dtype=complex)
    for col, x in enumerate(sorted(h)):
        span[x, col] = 1.0
    expected = hopf.gns(pair.dual_group).orthonormal_basis @ span
    from qglab.linalg import orthonormal_columns

    assert subspace_distance(cd.gns_basis(), orthonormal_columns(expected)) < 1e-9


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_codual_involution(name):
    g, states = catalog_states(name)
    pair = duality.dual(g)
    for s in states:
        once = duality.codual(s.coideal, pair)
        back = coideal.coideal_from_span(
            pair.group, duality.codual(once, duality.dual(pair.dual_group)).basis)
        assert subspace_distance(back.gns_basis(), s.coideal.gns_basis()) < 1e-9


def codual_system(comult, legs, basis):
    """The (n**3 * r, n) matrix of the co-dual membership equation, the oracle.

    Column i is (sum_jk comult[i, j, k] legs[j] (x) legs[k] B) - legs[i] (x) B
    for an n x r matrix B, with rows indexed by (a, b, c, d); the first term
    is contracted one leg at a time, in place of one n**7 loop.
    """
    n = comult.shape[0]
    lhs = np.tensordot(np.tensordot(comult, legs, axes=([1], [0])),
                       legs @ basis, axes=([1], [0])).transpose(0, 1, 3, 2, 4)
    rhs = np.einsum("iac,bd->iabcd", legs, basis)
    return (lhs - rhs).reshape(n, -1).T


def test_codual_system_matches_single_contraction():
    rng = np.random.default_rng(5)
    comult, legs = (rng.standard_normal((4, 4, 4))
                    + 1j * rng.standard_normal((4, 4, 4)) for _ in range(2))
    proj = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = np.einsum("ijk,jac,kbd->iabcd", comult, legs,
                    np.einsum("kbd,de->kbe", legs, proj))
    rhs = np.einsum("iac,bd->iabcd", legs, proj)
    reference = (lhs - rhs).reshape(4, 4 ** 4).T
    got = codual_system(comult, legs, proj)
    assert np.abs(got - reference).max() < 1e-12


@pytest.mark.parametrize("name", ["c_s3", "kp"])
def test_codual_system_on_the_basis_matches_the_projection(name):
    # X(1 (x) BB*) and X(1 (x) B) have the same Gram matrix, so the system
    # on the coideal's L2 basis has the singular values and kernel of the
    # system on its projection, with n**3 r rows in place of n**4
    g = named_group(name)
    pair = duality.dual(g)
    n = g.dim
    for s in lattice.enumerate_idempotents(g).states:
        basis = s.coideal.gns_basis()
        legs = pair.regular.second_legs
        systems = [codual_system(pair.dual_group.comult, legs, m)
                   for m in (basis @ dagger(basis), basis)]
        assert systems[1].shape == (n ** 3 * s.coideal.dim, n)
        by_p, by_b = (np.linalg.svd(m, compute_uv=False) for m in systems)
        assert np.abs(by_p - by_b).max() < 1e-12
        kernels = [nullspace(m) for m in systems]
        assert kernels[0].shape == kernels[1].shape
        assert subspace_distance(*kernels) < 1e-12


# the Gram route of codual against the kernel of the full system

CODUAL_INPUTS = ["c_z2", "c_z3", "c_z4", "c_s3", "cg_s3", "cg_z4", "kp",
                 "c_d4", "c_d5", "c_d6", "cg_d4", "cg_d5", "cg_d6"]


@pytest.mark.parametrize("name", ["kp", "c_d6", "cg_d6"])
def test_gram_codual_matches_the_system_kernel(name):
    g = named_group(name)
    pair = duality.dual(g)
    for s in lattice.enumerate_idempotents(g).states:
        system = codual_system(pair.dual_group.comult, pair.regular.second_legs,
                               s.coideal.gns_basis())
        oracle = coideal.coideal_from_span(pair.dual_group, nullspace(system))
        got = duality.codual(s.coideal, pair)
        assert got.dim == oracle.dim
        assert subspace_distance(got.gns_basis(), oracle.gns_basis()) < 1e-12


@pytest.mark.parametrize("name", CODUAL_INPUTS)
def test_gram_codual_cut_sits_in_a_wide_gap(name):
    # the kernel's eigenvalues lie 1e6 below the cut and the others 1e6 above
    g = named_group(name)
    pair = duality.dual(g)
    coids = [s.coideal for s in lattice.enumerate_idempotents(g).states]
    grams, cuts = duality._codual_grams(coids, pair)
    for gram, cut, once in zip(grams, cuts, duality.coduals(coids, pair)):
        evals = np.linalg.eigvalsh(gram)
        kernel, others = evals[evals <= cut], evals[evals > cut]
        assert kernel.size == once.dim
        assert np.abs(kernel).max() <= cut / 1e6
        assert others.min(initial=np.inf) >= cut * 1e6


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kp"])
def test_gram_of_the_scalars_vanishes(name):
    # the Haar state's coideal is the scalars, whose co-dual is the whole
    # dual algebra: G = 0 up to round-off, which a cut relative to G's own
    # largest eigenvalue would split
    g = named_group(name)
    pair = duality.dual(g)
    haar = next(s for s in lattice.enumerate_idempotents(g).states if s.coideal.dim == 1)
    (gram,), (cut,) = duality._codual_grams([haar.coideal], pair)
    assert np.abs(gram).max() < 1e-12 and cut > 0.0
    assert duality.codual(haar.coideal, pair).dim == g.dim


def test_codual_memory_at_n24():
    # the co-dual of the largest coideal of C(D12), the whole algebra: the
    # n**3 r x n system (about 127 MB) is never formed
    g = hopf.function_algebra(dihedral_table(12))
    pair = duality.dual(g)
    whole = coideal.coideal_from_span(pair.group, np.eye(g.dim))
    tracemalloc.start()
    try:
        once = duality.codual(whole, pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert once.dim == 1
    assert peak < 10 * 2 ** 20


def test_stacked_certificates_memory_at_n24():
    # the co-duals and the expectations of all 34 states of C(D12): an
    # n**4 intermediate (a Choi matrix, 576 x 576) stacked over the states
    # would need about 180 MB; per state, the peak stays far below
    g = hopf.function_algebra(dihedral_table(12))
    pair = duality.dual(g)
    states = lattice.enumerate_idempotents(g).states
    assert len(states) == 34
    for run in (lambda: duality.coduals([s.coideal for s in states], pair),
                lambda: coideal.expectations(states)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20


@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_coduals_match_the_one_coideal_calls(name):
    g = named_group(name)
    pair = duality.dual(g)
    coids = [s.coideal for s in lattice.enumerate_idempotents(g).states]
    for coid, got in zip(coids, duality.coduals(coids, pair)):
        one = duality.codual(coid, pair)
        assert np.array_equal(got.basis, one.basis)


# ----------------------------------------------------------------------
# dual states
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_dual_states_match_the_one_state_calls(name):
    g = named_group(name)
    pair = duality.dual(g)
    states = lattice.enumerate_idempotents(g).states
    for s, got in zip(states, duality.dual_states(states, pair)):
        one = duality.dual_state(s, pair)
        assert got.name == one.name
        for field in ("coeffs", "q_perp", "l2_projection"):
            assert np.abs(getattr(got, field) - getattr(one, field)).max() < 1e-14


def test_dual_state_extremes(c_s3):
    g, states = catalog_states("c_s3")
    pair = duality.dual(g)
    dual_haar = duality.dual_state(states[-1], pair)
    assert np.max(np.abs(dual_haar.coeffs - pair.dual_group.counit)) < 1e-9
    dual_eps = duality.dual_state(states[0], pair)
    assert np.max(np.abs(dual_eps.coeffs - pair.dual_group.haar)) < 1e-9


def test_dual_state_of_uniform_is_indicator(c_s3, cg_s3):
    g, states = catalog_states("c_s3")
    pair = duality.dual(g)
    h = s3_subgroup({"e", "(12)"})
    state = next(s for s in states
                 if catalog.subgroup_of_state("c_s3", s.coeffs) == h)
    ds = duality.dual_state(state, pair)
    expected = catalog.indicator_functional(cg_s3, h)
    assert np.max(np.abs(ds.coeffs - expected.coeffs)) < 1e-9


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_double_dual_roundtrip(name):
    g, states = catalog_states(name)
    pair = duality.dual(g)
    double = duality.dual(pair.dual_group)
    for s in states:
        back = duality.dual_state(duality.dual_state(s, pair), double)
        assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-8


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_dual_state_slice_gives_support(name):
    g, states = catalog_states(name)
    pair = duality.dual(g)
    space = hopf.gns(g)
    for s in states:
        ds = duality.dual_state(s, pair)
        sliced = space.represent(ds.coeffs)
        assert frob(sliced - space.represent(s.q_perp)) < 1e-8


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_state_coefficients_group_like_on_dual(name):
    g, states = catalog_states(name)
    pair = duality.dual(g)
    for s in states:
        assert harmonic.projection_defect(pair.dual_group, s.coeffs) < 1e-9
        assert harmonic.group_like_defect(pair.dual_group, s.coeffs) < 1e-9


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_dual_state_from_codual_route(name):
    g, states = catalog_states(name)
    pair = duality.dual(g)
    for s in states:
        via_coideal = coideal.state_from_coideal(duality.codual(s.coideal, pair))
        direct = duality.dual_state(s, pair)
        assert np.max(np.abs(via_coideal.coeffs - direct.coeffs)) < 1e-8


# ----------------------------------------------------------------------
# order and exchange under duality
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_preceq_iff_support_order(name):
    g, states = catalog_states(name)
    for a in states:
        for b in states:
            claimed = harmonic.preceq(a, b)
            via_support = frob(
                g.multiply(b.q_perp, a.q_perp) - a.q_perp) < 1e-9
            assert claimed == via_support


def exchange_distances(a, b, pair):
    """How far duality is from swapping the meet and the join of a and b."""
    da, db = duality.dual_state(a, pair), duality.dual_state(b, pair)
    meet_dual = duality.dual_state(lattice.meet(a, b), pair)
    join_dual = duality.dual_state(lattice.join(a, b), pair)
    return (np.max(np.abs(meet_dual.coeffs - lattice.join(da, db).coeffs)),
            np.max(np.abs(join_dual.coeffs - lattice.meet(da, db).coeffs)))


def test_exchange_examples(c_s3):
    g, states = catalog_states("c_s3")
    pair = duality.dual(g)
    by_sub = {catalog.subgroup_of_state("c_s3", s.coeffs): s for s in states}
    s12 = by_sub[s3_subgroup({"e", "(12)"})]
    s13 = by_sub[s3_subgroup({"e", "(13)"})]
    assert max(exchange_distances(s12, s13, pair)) < 100 * 1e-9
    # both named identities: the dual of the meet is the join of the duals
    meet_dual = duality.dual_state(lattice.meet(s12, s13), pair)
    assert np.max(np.abs(meet_dual.coeffs - pair.dual_group.haar)) < 1e-8
    join_dual = duality.dual_state(lattice.join(s12, s13), pair)
    assert np.max(np.abs(join_dual.coeffs - pair.dual_group.counit)) < 1e-8


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_exchange_all_pairs(name):
    g, states = catalog_states(name)
    pair = duality.dual(g)
    for i, a in enumerate(states):
        for b in states[i:]:
            assert max(exchange_distances(a, b, pair)) < 100 * 1e-9


def test_property_suite_builds_each_regular_unitary_once():
    # one build for the group and one for its dual: every caller asks for
    # the unitary in the call form that `dual` caches
    duality.regular_unitary.cache_clear()
    duality.dual.cache_clear()
    checks.run_all_checks(catalog.builtin("c_s3"))
    assert duality.regular_unitary.cache_info().misses == 2


def test_property_suite_call_counts(monkeypatch):
    # the suite's `axioms` check is the only validation (`dual` trusts it),
    # the suite reads joins, dual states and expectations it already holds,
    # and each idempotent state is verified once, where it is built; the
    # derived maps (trace expectation, support projection, dual state) do
    # not re-verify what the state's type or the suite already certifies.
    # Every pair's convolution-power limit is built in one batch, in
    # join-two-paths, and checked there against the verified closed-form
    # join in the table, whose L2 projection is held, so no pair's
    # intersection is rebuilt.  The enumeration's closure is the only one:
    # it reads a comparable pair's meet and join off the order, forms the
    # other pairs' meets and joins as GNS bases, and certifies a coideal
    # only when no listed state has it; on C(S3) 6 of its 21 pairs are
    # incomparable.  Each lattice reads its order from one table (the
    # enumeration's, and the dual states' in duality-exchange); the order
    # check reads coideal containment off the held bases.  Lists are
    # verified together: the enumeration's states, the suite's dual states,
    # the expectations (a pass-through of typed states) and the co-duals,
    # one list each.  The round trips (state-coideal-bijection,
    # double-dual-roundtrip, codual-involution, codual-state-consistency)
    # compute their second routes as arrays and certify nothing
    calls = {"validate": 0, "join": 0, "joins": 0, "dual_state": 0, "dual_states": 0,
             "preceq": 0, "order_table": 0, "expectation": 0,
             "expectations": 0, "as_idempotent_states": 0, "codual": 0, "coduals": 0,
             "state_from_coideal": 0, "states_from_coideals": 0,
             "coideal_from_span": 0, "coideals_from_spans": 0,
             "_close": 0, "build_lattice": 0, "generated_gns_basis": 0}

    def counted(module, attr, key):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counted(hopf, "validate", "validate")
    counted(lattice, "join_with_diagnostics", "join")
    counted(lattice, "joins_with_diagnostics", "joins")
    counted(coideal, "expectation", "expectation")
    counted(lattice, "_close", "_close")
    counted(lattice, "build_lattice", "build_lattice")
    counted(lattice, "generated_gns_basis", "generated_gns_basis")
    for module in (harmonic, coideal, lattice, duality, checks):
        for attr in ("dual_state", "dual_states", "preceq", "order_table",
                     "expectations", "as_idempotent_states", "codual", "coduals",
                     "state_from_coideal", "states_from_coideals",
                     "coideal_from_span", "coideals_from_spans"):
            if hasattr(module, attr):
                counted(module, attr, attr)
    duality.regular_unitary.cache_clear()
    duality.dual.cache_clear()
    checks.run_all_checks(catalog.builtin("c_s3"))
    assert calls == {
        "validate": 1, "join": 0, "joins": 1, "dual_state": 0, "dual_states": 1,
        "preceq": 0, "order_table": 2, "expectation": 0, "expectations": 1,
        "as_idempotent_states": 3, "codual": 0, "coduals": 1,
        "state_from_coideal": 0, "states_from_coideals": 0,
        "coideal_from_span": 0, "coideals_from_spans": 3,
        "_close": 1, "build_lattice": 0, "generated_gns_basis": 6}


def check_result(results, key):
    return next(r for r in results if r.key == key)


def test_suite_catches_a_table_join_off_the_limit(monkeypatch):
    # the tables hold the closed-form join, so only the comparison with the
    # limit of convolution powers sees the two disagree
    real = lattice.joins_with_diagnostics

    def perturbed(*args, **kwargs):
        return [(harmonic.Functional(home=limit.home, coeffs=limit.coeffs + 1e-6), diag)
                for limit, diag in real(*args, **kwargs)]
    monkeypatch.setattr(lattice, "joins_with_diagnostics", perturbed)
    results = checks.run_all_checks(catalog.builtin("c_s3"))
    assert not check_result(results, "join-two-paths").passed
    assert check_result(results, "lattice-order-and-tables").passed


def test_suite_catches_a_wrong_support_projection(monkeypatch):
    # support_projection does not re-verify the support theorems; the
    # suite's support-reconstruction does, for every enumerated state
    real = lattice.enumerate_idempotents

    def swapped(*args, **kwargs):
        enum = real(*args, **kwargs)
        states = list(enum.states)
        assert frob(states[1].q_perp - states[2].q_perp) > 0.5
        states[1] = dataclasses.replace(states[1], q_perp=states[2].q_perp)
        return dataclasses.replace(
            enum, lattice=dataclasses.replace(enum.lattice, states=states))
    monkeypatch.setattr(lattice, "enumerate_idempotents", swapped)
    results = checks.run_all_checks(catalog.builtin("c_s3"))
    assert not check_result(results, "support-reconstruction").passed


def test_coideal_order_counts_containment_by_dimension():
    # the containment criterion alone reads the coideal bases.  Tilt the
    # Haar state's coideal, the scalars, by 1e-4, far below the gap bound
    # 100 * tol: the tilted line lies only in the largest coideal, and a
    # dimension count sees that on every pair (a, Haar) with a neither;
    # a residual compared with 100 * tol would not
    group = catalog.builtin("c_s3")
    context = checks.CheckContext(group, hopf.AXIOM_TOL, 1e-3, checks.DEFAULT_SEED)
    checks._enumerate(context)
    context.expectations   # computed from the untilted coideals
    assert checks._order_via_coideals(context) == (0.0, "")
    haar = [s.coideal.dim for s in context.states].index(1)
    line = context.states[haar].coideal.gns_basis()
    tilted = line + 1e-4 * np.linspace(-1.0, 1.0, group.dim)[:, None]
    tilted /= np.linalg.norm(tilted)

    class Tilted:
        def gns_basis(self):
            return tilted

    others = sum(s.coideal.dim not in (1, group.dim) for s in context.states)
    context.states = list(context.states)
    context.states[haar] = dataclasses.replace(context.states[haar], coideal=Tilted())
    assert others > 0 and checks._order_via_coideals(context) == (others, "")


def test_suite_catches_swapped_dual_states(monkeypatch):
    # duality-exchange reads the primal tables swapped as the dual states'
    # tables; with two dual states out of place they are no longer extremal
    # bounds in the dual order, so the check cannot pass vacuously
    real = checks.CheckContext.dual_states.func

    def swapped(context):
        duals = real(context)
        duals[0], duals[-1] = duals[-1], duals[0]
        return duals
    prop = functools.cached_property(swapped)
    prop.__set_name__(checks.CheckContext, "dual_states")
    monkeypatch.setattr(checks.CheckContext, "dual_states", prop)
    results = checks.run_all_checks(catalog.builtin("c_s3"))
    exchange = check_result(results, "duality-exchange")
    assert not exchange.passed and exchange.residual == float("inf")
    assert check_result(results, "lattice-order-and-tables").passed


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kp"])
def test_projection_identity_by_legs_matches_kron(name):
    # W* (1 (x) P) W (P (x) 1) = P (x) P for each support projection; also
    # off the identity, on W perturbed so that the residual is of order one
    g = named_group(name)
    n = g.dim
    w = duality.regular_unitary(g).w
    eye = np.eye(n)
    for s in lattice.enumerate_idempotents(g).states:
        p = s.l2_projection
        for v in (w, w + 1e-1 * random_w(n, seed=n)):
            dense = frob(dagger(v) @ np.kron(eye, p) @ v @ np.kron(p, eye)
                         - np.kron(p, p))
            by_legs = checks._projection_identity_defect(v, p)
            assert abs(by_legs - dense) < 1e-12 * max(1.0, dense)


# the keys of `qglab check`, in report order
CHECK_KEYS = [
    "axioms", "haar-permutation-invariance", "gns-left-regular",
    "convolution-associativity", "enumeration", "pentagon", "dual-axioms",
    "biduality", "support-reconstruction", "support-group-like",
    "support-annihilation", "support-antipode-invariant",
    "coideal-membership-criterion", "support-minimal-central",
    "haar-type-oracle", "order-criteria-agreement",
    "order-criteria-via-coideals", "state-coideal-bijection",
    "expectation-gns-projection", "expectation-uniqueness",
    "lattice-order-and-tables", "join-two-paths", "commutation-equivalences",
    "modular-law", "double-dual-roundtrip", "dual-support-slice",
    "dual-projection-group-like", "codual-involution",
    "codual-state-consistency", "duality-exchange", "support-order-criterion",
    "dual-projection-identity"]


def test_check_keys_and_order():
    # the JSON report keeps its keys and their order
    results = checks.run_all_checks(catalog.builtin("c_s3"))
    assert [r.key for r in results] == CHECK_KEYS
    keys = [key for key, _, _ in checks.check_table]
    assert len(keys) == len(set(keys))


def raising(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def test_suite_reports_disagreeing_criteria_as_internal(monkeypatch):
    monkeypatch.setattr(lattice, "commutation_table",
                        raising(CriteriaDisagree("forced disagreement")))
    results = checks.run_all_checks(catalog.builtin("c_z2"))
    failed = [r for r in results if not r.passed]
    assert [r.key for r in failed] == ["commutation-equivalences"]
    assert failed[0].internal
    assert failed[0].residual == float("inf")
    assert failed[0].detail == "forced disagreement"


def failures(name):
    return [(r.key, r.residual, r.detail, r.internal)
            for r in checks.run_all_checks(catalog.builtin(name)) if not r.passed]


def test_haar_type_oracle_fails_on_a_state_of_no_subgroup(monkeypatch):
    monkeypatch.setattr(catalog, "subgroup_of_state", lambda name, coeffs: None)
    assert failures("c_z2") == [
        ("haar-type-oracle", 1.0, "state is not a subgroup state", False)]


def test_haar_type_oracle_fails_on_a_wrong_verdict(monkeypatch):
    # every state of a function algebra is of Haar type
    monkeypatch.setattr(harmonic, "haar_type_test", lambda phi, tol: False)
    assert failures("c_z2") == [("haar-type-oracle", 1.0, "", False)]


def test_suite_reports_other_errors_as_plain_failures(monkeypatch):
    monkeypatch.setattr(lattice, "commutation_table",
                        raising(NotPositive("forced stall")))
    results = checks.run_all_checks(catalog.builtin("c_z2"))
    failed = [r for r in results if not r.passed]
    assert [r.key for r in failed] == ["commutation-equivalences"]
    assert not failed[0].internal
    assert failed[0].residual == float("inf")
    assert failed[0].detail == "forced stall"
