import dataclasses

import numpy as np
import pytest

from qglab import catalog, coideal, duality, harmonic, hopf, lattice
from qglab.errors import CriteriaDisagree, HomeMismatch, NotAProjection, NotAState, ZeroMass
from qglab.linalg import containment_defect, frob
from conftest import named_group, s3_subgroup


def measure(group, weights):
    return harmonic.Functional(home=group, coeffs=np.asarray(weights, complex))


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------

def test_counit_is_convolution_unit(c_z2):
    eps = harmonic.convolution_unit(c_z2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = measure(c_z2, rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert harmonic.convolve(eps, f).distance(f) < 1e-14
        assert harmonic.convolve(f, eps).distance(f) < 1e-14


def test_z2_measure_convolution_quadratic(c_z2):
    # oracle: convolving (p, 1-p) with itself gives p' = p^2 + (1-p)^2
    for p in (0.5, 0.25, 0.8):
        f = measure(c_z2, [p, 1 - p])
        squared = harmonic.convolve(f, f)
        expected = p * p + (1 - p) ** 2
        assert abs(squared.coeffs[0] - expected) < 1e-14
    uniform = measure(c_z2, [0.5, 0.5])
    assert harmonic.convolve(uniform, uniform).distance(uniform) < 1e-14


def test_group_algebra_convolution_is_pointwise(cg_s3):
    h = s3_subgroup({"e", "(12)"})
    k = s3_subgroup({"e", "(13)"})
    ind_h = catalog.indicator_functional(cg_s3, h)
    ind_k = catalog.indicator_functional(cg_s3, k)
    prod = harmonic.convolve(ind_h, ind_k)
    assert np.allclose(prod.coeffs, ind_h.coeffs * ind_k.coeffs)


def test_convolution_associativity_random(c_s3):
    rng = np.random.default_rng(17)
    for _ in range(20):
        f, g, h = (measure(c_s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
                   for _ in range(3))
        lhs = harmonic.convolve(harmonic.convolve(f, g), h)
        rhs = harmonic.convolve(f, harmonic.convolve(g, h))
        assert lhs.distance(rhs) < 1e-10


def test_home_mismatch_rejected(c_z2, c_z3):
    with pytest.raises(HomeMismatch):
        harmonic.convolve(harmonic.convolution_unit(c_z2),
                          harmonic.convolution_unit(c_z3))


def test_same_tensors_different_instance_accepted(c_z2):
    clone = hopf.loads(hopf.save(c_z2))
    f = harmonic.convolution_unit(c_z2)
    g = harmonic.convolution_unit(clone)
    assert harmonic.convolve(f, g).distance(f) < 1e-14


# ----------------------------------------------------------------------
# idempotent states
# ----------------------------------------------------------------------

def test_is_idempotent_state_z2(c_z2):
    # roots of p^2 + (1-p)^2 = p are exactly p in {1/2, 1}
    assert harmonic.is_idempotent_state(measure(c_z2, [0.5, 0.5]))
    assert harmonic.is_idempotent_state(measure(c_z2, [1.0, 0.0]))
    assert not harmonic.is_idempotent_state(measure(c_z2, [0.25, 0.75]))


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_counit_is_idempotent_state(name):
    g = catalog.builtin(name)
    assert harmonic.is_idempotent_state(harmonic.convolution_unit(g))
    assert harmonic.is_idempotent_state(harmonic.haar_functional(g))


# ----------------------------------------------------------------------
# support projections
# ----------------------------------------------------------------------

def test_support_projection_uniform_subgroup(c_s3):
    h = s3_subgroup({"e", "(12)"})
    state = catalog.uniform_measure_functional(c_s3, h)
    qperp = harmonic.support_projection(state)
    expected = np.zeros(6)
    for g in h:
        expected[g] = 1.0
    assert np.max(np.abs(qperp - expected)) < 1e-9


def test_support_projection_haar_is_unit(c_s3):
    qperp = harmonic.support_projection(harmonic.haar_functional(c_s3))
    assert np.max(np.abs(qperp - c_s3.unit)) < 1e-9


def test_support_projection_group_algebra(cg_s3):
    # oracle: the support of the subgroup indicator is the averaged projection
    h = s3_subgroup({"e", "(12)"})
    state = catalog.indicator_functional(cg_s3, h)
    qperp = harmonic.support_projection(state)
    expected = np.zeros(6)
    for g in h:
        expected[g] = 1.0 / len(h)
    assert np.max(np.abs(qperp - expected)) < 1e-9
    assert np.max(np.abs(cg_s3.multiply(qperp, qperp) - qperp)) < 1e-12


def test_support_projection_rejects_nonstate(c_z2):
    with pytest.raises(NotAState):
        harmonic.support_projection(measure(c_z2, [2.0, -1.0]))
    # positive but unnormalized
    with pytest.raises(NotAState):
        harmonic.support_projection(measure(c_z2, [2.0, 0.0]))


def test_state_from_qperp_examples(c_s3):
    assert harmonic.state_from_qperp(c_s3, c_s3.unit).distance(
        harmonic.haar_functional(c_s3)) < 1e-12
    h = s3_subgroup({"e", "(12)"})
    indicator = np.zeros(6)
    for g in h:
        indicator[g] = 1.0
    got = harmonic.state_from_qperp(c_s3, indicator)
    assert got.distance(catalog.uniform_measure_functional(c_s3, h)) < 1e-12


def test_state_from_qperp_errors(c_s3):
    with pytest.raises(NotAProjection):
        harmonic.state_from_qperp(c_s3, 0.5 * c_s3.unit)
    with pytest.raises(ZeroMass):
        harmonic.state_from_qperp(c_s3, np.zeros(6))


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_support_reconstruction_roundtrip(name):
    # reconstructing the state from its support projection returns it
    g = catalog.builtin(name)
    for f in catalog.catalog_functionals(g, name):
        qperp = harmonic.support_projection(f)
        again = harmonic.state_from_qperp(g, qperp)
        assert again.distance(f) < 1e-9


# ----------------------------------------------------------------------
# group-like projections, Haar type
# ----------------------------------------------------------------------

def test_group_like_subgroup_indicators(c_s3):
    for labels in ({"e", "(12)"}, {"e", "(123)", "(132)"}):
        h = s3_subgroup(labels)
        p = np.zeros(6)
        for g in h:
            p[g] = 1.0
        assert harmonic.projection_defect(c_s3, p) < 1e-9
        assert harmonic.group_like_defect(c_s3, p) < 1e-9
    assert harmonic.projection_defect(c_s3, c_s3.unit) < 1e-9
    assert harmonic.group_like_defect(c_s3, c_s3.unit) < 1e-9


def test_group_like_rejects_non_subgroup_singleton(c_s3):
    transposition = next(iter(s3_subgroup({"e", "(12)"}) - {0}))
    p = np.zeros(6)
    p[transposition] = 1.0
    assert harmonic.projection_defect(c_s3, p) < 1e-9
    assert harmonic.group_like_defect(c_s3, p) >= 1e-9


def test_haar_type_all_commutative(c_s3):
    for f in catalog.catalog_functionals(c_s3, "c_s3"):
        assert harmonic.haar_type_test(f)


def test_haar_type_group_algebra_matches_normality(cg_s3):
    table, labels = catalog.group_table("s3")
    for f in catalog.catalog_functionals(cg_s3, "cg_s3"):
        sub = catalog.subgroup_of_state("cg_s3", f.coeffs)
        expected = catalog.is_normal([list(r) for r in table], sub)
        assert harmonic.haar_type_test(f) == expected


def reference_haar_type(phi, tol=harmonic.DEFAULT_TOL):
    # the per-vector loop that haar_type_test's one containment replaced
    phi = harmonic.as_functional(phi)
    group = phi.home
    kernel = harmonic.left_kernel_basis(phi, tol)
    for v in kernel.T:
        if containment_defect(kernel, group.adjoint(v)[:, None]) > np.sqrt(tol):
            return False
        for e in np.eye(group.dim):
            w = group.multiply(v, e)
            if frob(w) >= tol and containment_defect(kernel, w[:, None]) > np.sqrt(tol):
                return False
    return True


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "cg_z4", "kp", "cg_d4", "c_d4"])
def test_haar_type_matches_the_per_vector_loop(name):
    group = named_group(name)
    states = lattice.enumerate_idempotents(group).states
    verdicts = [harmonic.haar_type_test(s) for s in states]
    assert verdicts == [reference_haar_type(s) for s in states]
    # KP has two states that are not of Haar type, and a group algebra one
    # per non-normal subgroup
    assert all(verdicts) == (name in ("c_s3", "cg_z4", "c_d4"))


def test_haar_type_null_space_oracle(cg_s3):
    # brute-force oracle: the null space of the subgroup indicator is
    # spanned by lambda_g - lambda_{gh}, and is right-stable iff H is normal
    table, _ = catalog.group_table("s3")
    h = s3_subgroup({"e", "(12)"})
    state = catalog.indicator_functional(cg_s3, h)
    kernel = harmonic.left_kernel_basis(state)
    span = []
    for g in range(6):
        for x in h:
            v = np.zeros(6, dtype=complex)
            v[g] += 1.0
            v[table[g][x]] -= 1.0
            span.append(v)
    from qglab.linalg import orthonormal_columns, subspace_distance

    expected = orthonormal_columns(np.column_stack(span))
    assert subspace_distance(kernel, expected) < 1e-9


# ----------------------------------------------------------------------
# the domination order
# ----------------------------------------------------------------------

def test_preceq_subgroup_containment(c_s3):
    h = catalog.uniform_measure_functional(c_s3, s3_subgroup({"e", "(12)"}))
    g_all = catalog.uniform_measure_functional(c_s3, frozenset(range(6)))
    a3 = catalog.uniform_measure_functional(
        c_s3, s3_subgroup({"e", "(123)", "(132)"}))
    sh = coideal.as_idempotent_state(h)
    sg = coideal.as_idempotent_state(g_all)
    sa = coideal.as_idempotent_state(a3)
    assert harmonic.preceq(sh, sg)
    assert not harmonic.preceq(sh, sa)
    assert not harmonic.preceq(sg, sh)


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_counit_precedes_everything(name):
    g = catalog.builtin(name)
    eps = coideal.as_idempotent_state(harmonic.convolution_unit(g))
    for f in catalog.catalog_functionals(g, name):
        s = coideal.as_idempotent_state(f)
        assert harmonic.preceq(eps, s)
        assert harmonic.preceq(s, coideal.as_idempotent_state(
            harmonic.haar_functional(g)))


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_order_criteria_never_disagree_on_catalog(name):
    g = catalog.builtin(name)
    states = [coideal.as_idempotent_state(f)
              for f in catalog.catalog_functionals(g, name)]
    for a in states:
        for b in states:
            harmonic.preceq(a, b)  # raises CriteriaDisagree on any mismatch


# ----------------------------------------------------------------------
# the order table against a loop of the four criteria
# ----------------------------------------------------------------------

def loop_criteria(mu, nu):
    """The four order residuals of one pair, as a per-pair loop takes them."""
    emu, enu = mu.conditional_expectation, nu.conditional_expectation
    pmu, pnu = mu.l2_projection, nu.l2_projection
    conv = np.einsum("ijk,j,k->i", mu.home.comult, mu.coeffs, nu.coeffs)
    return (float(np.max(np.abs(conv - nu.coeffs))), frob(emu @ enu - enu),
            containment_defect(mu.coideal.gns_basis(), nu.coideal.gns_basis()),
            frob(pmu @ pnu - pnu))


def loop_message(mu, nu):
    r1, r2, r3, r4 = loop_criteria(mu, nu)
    return ("order criteria disagree: "
            f"convolution {r1:.2e}, expectation {r2:.2e}, "
            f"range {r3:.2e}, projection {r4:.2e}")


@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_order_table_matches_the_loop_of_criteria(name):
    states = lattice.enumerate_idempotents(named_group(name)).states
    tol = harmonic.DEFAULT_TOL
    answers = [[[r < tol for r in loop_criteria(a, b)] for b in states] for a in states]
    assert all(len(set(pair)) == 1 for row in answers for pair in row)
    table = harmonic.order_table(states, states)
    assert table.tolist() == [[pair[0] for pair in row] for row in answers]
    # a rectangular block is the block of the square table, and preceq its entry
    assert np.array_equal(harmonic.order_table(states[:3], states[2:]), table[:3, 2:])
    assert [harmonic.preceq(a, states[1]) for a in states] == table[:, 1].tolist()


def test_order_table_names_the_first_disagreeing_pair():
    # the greatest state (the Haar state) given the identity as its L2
    # projection: the projection criterion then puts it below every state,
    # and the other three criteria below none but itself
    states = lattice.enumerate_idempotents(named_group("kp")).states
    top = states[-1]
    assert top.coideal.dim == 1
    forced = dataclasses.replace(top, l2_projection=np.eye(top.home.dim))
    mus, nus = [states[0], forced, states[1]], states[1:]
    with pytest.raises(CriteriaDisagree) as info:
        harmonic.order_table(mus, nus)
    assert str(info.value) == loop_message(forced, nus[0])
    with pytest.raises(CriteriaDisagree) as info:
        harmonic.preceq(forced, states[2])
    assert str(info.value) == loop_message(forced, states[2])


def test_order_and_commutation_need_one_home(c_z2, c_z3):
    a = coideal.as_idempotent_state(harmonic.haar_functional(c_z2))
    b = coideal.as_idempotent_state(harmonic.haar_functional(c_z3))
    with pytest.raises(HomeMismatch):
        harmonic.preceq(a, b)
    with pytest.raises(HomeMismatch):
        harmonic.order_table([a, a], [a, b])
    with pytest.raises(HomeMismatch):
        lattice.commutation_equivalences(a, b, joined=a)


# ----------------------------------------------------------------------
# the compression kernel
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kp", "c_d6", "cg_d6"])
def test_state_from_qperp_matches_the_einsum(name):
    # on the group, from each support projection, and on the dual, from
    # each state's coefficients, as dual_state compresses
    g = hopf.with_haar(named_group(name))
    states = lattice.enumerate_idempotents(g).states
    dual_group = duality.dual(g).dual_group
    for group, q in [(g, s.q_perp) for s in states] + [(dual_group, s.coeffs) for s in states]:
        expected = np.einsum("a,abk,j,kjr,r->b", q, group.mult, q, group.mult,
                             group.haar) / group.haar_of(q)
        got = harmonic.state_from_qperp(group, q).coeffs
        assert np.abs(got - expected).max() < 1e-14
