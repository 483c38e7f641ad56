import dataclasses

import numpy as np
import pytest

from qglab import catalog, cli, coideal, harmonic, hopf, lattice, linalg
from qglab.errors import InternalInconsistency, NotACoideal, NotASubalgebra, NotIdempotent
from qglab.linalg import frob, orthonormal_columns, subspace_distance, subspace_intersection
from conftest import named_group, s3_subgroup


def coset_algebra(group, table, subgroup):
    """Functions constant on left cosets gH, as explicit indicator sums."""
    n = len(table)
    cosets = {}
    for g in range(n):
        key = frozenset(table[g][h] for h in subgroup)
        cosets.setdefault(key, np.zeros(n, dtype=complex))
        for x in key:
            cosets[key][x] = 1.0
    return np.column_stack(sorted(cosets.values(), key=lambda v: tuple(v.real)))


def subgroup_algebra_span(group, subgroup):
    n = group.dim
    cols = []
    for g in sorted(subgroup):
        v = np.zeros(n, dtype=complex)
        v[g] = 1.0
        cols.append(v)
    return np.column_stack(cols)


def delta_e_and_unit(group):
    """Columns delta_e and 1: span{1, delta_e} is a unital *-subalgebra but no coideal."""
    span = np.zeros((group.dim, 2), dtype=complex)
    span[0, 0] = 1.0
    span[:, 1] = group.unit
    return span


# ----------------------------------------------------------------------
# expectations
# ----------------------------------------------------------------------

def test_expectation_of_counit_is_identity(c_s3):
    e = coideal.expectation(harmonic.convolution_unit(c_s3))
    assert np.allclose(e, np.eye(6))


def test_expectation_of_haar_is_state_times_unit(c_s3):
    e = coideal.expectation(harmonic.haar_functional(c_s3))
    assert np.allclose(e, np.outer(c_s3.unit, c_s3.haar))


def test_expectation_averages_right_cosets(c_s3):
    # oracle built directly from the group table
    table, _ = catalog.group_table("s3")
    h = s3_subgroup({"e", "(12)"})
    state = catalog.uniform_measure_functional(c_s3, h)
    e = coideal.expectation(state)
    expected = np.zeros((6, 6))
    for g in range(6):
        for x in h:
            expected[g, table[g][x]] += 1.0 / len(h)
    # E(f)(g) = avg f(gh): as a matrix on coefficient columns this is the
    # transpose of the coset-averaging kernel
    assert np.allclose(e, expected.T)


def test_expectation_rejects_non_idempotent(c_z2):
    bad = harmonic.Functional(home=c_z2, coeffs=np.array([0.25, 0.75]))
    with pytest.raises(NotIdempotent):
        coideal.expectation(bad)


def test_range_coideal_examples(c_s3, cg_s3):
    full = coideal.as_idempotent_state(harmonic.convolution_unit(c_s3)).coideal
    assert full.dim == 6
    scalars = coideal.as_idempotent_state(harmonic.haar_functional(c_s3)).coideal
    assert scalars.dim == 1
    h = s3_subgroup({"e", "(12)"})
    ind = catalog.indicator_functional(cg_s3, h)
    sub = coideal.as_idempotent_state(ind).coideal
    assert sub.dim == 2
    assert subspace_distance(
        hopf.gns(cg_s3).orthonormal_basis @ subgroup_algebra_span(cg_s3, h),
        sub.gns_basis()) < 1e-10
    for coid in (full, scalars, sub):
        assert max(coid.defects.values()) < harmonic.DEFAULT_TOL


# ----------------------------------------------------------------------
# coideal certification
# ----------------------------------------------------------------------

def test_is_coideal_examples(c_s3):
    assert coideal.coideal_from_span(c_s3, c_s3.unit[:, None]).dim == 1
    assert coideal.coideal_from_span(c_s3, np.eye(6)).dim == 6
    # span{delta_e} lacks the unit, so the subalgebra certificate fails first
    with pytest.raises(NotASubalgebra, match="failing: unit;"):
        coideal.coideal_from_span(c_s3, delta_e_and_unit(c_s3)[:, :1])


def test_coset_algebra_is_coideal_but_point_mass_is_not(c_s3):
    table, _ = catalog.group_table("s3")
    span = coset_algebra(c_s3, table, s3_subgroup({"e", "(12)"}))
    coid = coideal.coideal_from_span(c_s3, span)
    assert coid.dim == 3 and coid.defects["coideal"] < harmonic.DEFAULT_TOL
    with pytest.raises(NotACoideal, match="input span is not a coideal"):
        coideal.coideal_from_span(c_s3, delta_e_and_unit(c_s3))


# ----------------------------------------------------------------------
# generated subalgebras and intersections
# ----------------------------------------------------------------------

def test_generated_subalgebra_scalars(c_s3):
    scalars = coideal.coideal_from_span(c_s3, c_s3.unit[:, None])
    assert coideal.generated_gns_basis(scalars, scalars).shape[1] == 1


def test_generated_coset_algebras_fill_everything(c_s3):
    table, _ = catalog.group_table("s3")
    n1 = coideal.coideal_from_span(
        c_s3, coset_algebra(c_s3, table, s3_subgroup({"e", "(12)"})))
    n2 = coideal.coideal_from_span(
        c_s3, coset_algebra(c_s3, table, s3_subgroup({"e", "(13)"})))
    generated = coideal.generated_gns_basis(n1, n2)
    assert generated.shape[1] == 6
    space = hopf.gns(c_s3)
    assert coideal.coideal_from_span(c_s3, space.inverse_basis @ generated).dim == 6


def test_generated_subgroup_algebras(cg_s3):
    n1 = coideal.coideal_from_span(
        cg_s3, subgroup_algebra_span(cg_s3, s3_subgroup({"e", "(12)"})))
    n2 = coideal.coideal_from_span(
        cg_s3, subgroup_algebra_span(cg_s3, s3_subgroup({"e", "(123)", "(132)"})))
    assert coideal.generated_gns_basis(n1, n2).shape[1] == 6


def test_intersections(c_s3, cg_s3):
    table, _ = catalog.group_table("s3")
    n1 = coideal.coideal_from_span(
        c_s3, coset_algebra(c_s3, table, s3_subgroup({"e", "(12)"})))
    crossing = lambda a, b: subspace_intersection(a.gns_basis(), b.gns_basis())
    assert crossing(n1, n1).shape[1] == n1.dim
    n2 = coideal.coideal_from_span(
        c_s3, coset_algebra(c_s3, table, s3_subgroup({"e", "(13)"})))
    assert crossing(n1, n2).shape[1] == 1
    m1 = coideal.coideal_from_span(
        cg_s3, subgroup_algebra_span(cg_s3, s3_subgroup({"e", "(12)"})))
    m2 = coideal.coideal_from_span(
        cg_s3, subgroup_algebra_span(cg_s3, s3_subgroup({"e", "(123)", "(132)"})))
    assert crossing(m1, m2).shape[1] == 1


def test_gns_projection_ranks(c_s3):
    table, _ = catalog.group_table("s3")
    scalars = coideal.coideal_from_span(c_s3, c_s3.unit[:, None])
    assert np.linalg.matrix_rank(scalars.l2_projector()) == 1
    everything = coideal.coideal_from_span(c_s3, np.eye(6))
    assert np.allclose(everything.l2_projector(), np.eye(6))
    cosets = coideal.coideal_from_span(
        c_s3, coset_algebra(c_s3, table, s3_subgroup({"e", "(12)"})))
    assert np.linalg.matrix_rank(cosets.l2_projector()) == 3


# ----------------------------------------------------------------------
# trace-preserving expectation
# ----------------------------------------------------------------------

def test_trace_expectation_examples(c_s3):
    scalars = coideal.coideal_from_span(c_s3, c_s3.unit[:, None])
    e = coideal.trace_expectation(scalars)
    assert np.allclose(e, np.outer(c_s3.unit, c_s3.haar))
    everything = coideal.coideal_from_span(c_s3, np.eye(6))
    assert np.allclose(coideal.trace_expectation(everything), np.eye(6))


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_trace_expectation_agrees_with_state_expectation(name):
    # both are invariant-state-preserving expectations onto the same range;
    # under a trace that map is unique
    g = catalog.builtin(name)
    for f in catalog.catalog_functionals(g, name):
        state = coideal.as_idempotent_state(f)
        via_trace = coideal.trace_expectation(state.coideal)
        assert frob(via_trace - state.conditional_expectation) < 1e-9


def test_typed_state_is_trusted(c_s3):
    state = coideal.as_idempotent_state(harmonic.haar_functional(c_s3))
    assert coideal.as_idempotent_state(state) is state
    assert coideal.as_idempotent_state(state, name=state.name) is state
    renamed = coideal.as_idempotent_state(state, name="h")
    assert renamed.name == "h" and renamed.functional.distance(state) == 0.0


def test_trace_expectation_requires_unital_star_subalgebra(c_s3):
    # no Coideal without the unit exists to take an expectation onto
    with pytest.raises(NotASubalgebra, match="failing: unit;"):
        coideal.coideal_from_span(c_s3, delta_e_and_unit(c_s3)[:, :1])


# ----------------------------------------------------------------------
# the bijection
# ----------------------------------------------------------------------

def test_state_from_coideal_examples(c_s3):
    table, _ = catalog.group_table("s3")
    scalars = coideal.coideal_from_span(c_s3, c_s3.unit[:, None])
    assert coideal.state_from_coideal(scalars).functional.distance(
        harmonic.haar_functional(c_s3)) < 1e-10
    everything = coideal.coideal_from_span(c_s3, np.eye(6))
    assert coideal.state_from_coideal(everything).functional.distance(
        harmonic.convolution_unit(c_s3)) < 1e-10
    h = s3_subgroup({"e", "(12)"})
    cosets = coideal.coideal_from_span(c_s3, coset_algebra(c_s3, table, h))
    got = coideal.state_from_coideal(cosets)
    assert got.functional.distance(
        catalog.uniform_measure_functional(c_s3, h)) < 1e-10


def test_state_from_coideal_rejects_non_coideal(c_s3):
    # span{1, delta_e} is a unital *-subalgebra but not a coideal, so no
    # Coideal is built to take a state from
    span = delta_e_and_unit(c_s3)
    with pytest.raises(NotACoideal):
        coideal.coideal_from_span(c_s3, span)
    # span{delta_e} is a subalgebra without the unit: the subalgebra
    # certificate rejects it before the coideal defect is read
    with pytest.raises(NotASubalgebra, match="failing: unit;"):
        coideal.coideal_from_span(c_s3, span[:, :1])


def test_expectation_range_failing_certification_is_internal(c_s3, tmp_path,
                                                             monkeypatch, capsys):
    # a state whose expectation range is no coideal contradicts a theorem:
    # an internal error (exit 3), never a rejected input
    def rejecting(group, spans, tol=harmonic.DEFAULT_TOL):
        raise NotACoideal("input span is not a coideal (defect 1.00e+00)")
    monkeypatch.setattr(coideal, "coideals_from_spans", rejecting)
    with pytest.raises(InternalInconsistency,
                       match="expectation range failed certification"):
        coideal.as_idempotent_state(harmonic.haar_functional(c_s3))
    path = tmp_path / "c_s3.json"
    path.write_text(hopf.save(c_s3) + "\n")
    assert cli.main(["idempotents", str(path)]) == cli.EXIT_INTERNAL
    assert "expectation range failed certification" in capsys.readouterr().err


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_bijection_roundtrip(name):
    g = catalog.builtin(name)
    for f in catalog.catalog_functionals(g, name):
        state = coideal.as_idempotent_state(f)
        back = coideal.state_from_coideal(state.coideal)
        assert back.functional.distance(f) < 1e-9
        forth = coideal.as_idempotent_state(back.functional).coideal
        assert subspace_distance(forth.gns_basis(),
                                 state.coideal.gns_basis()) < 1e-9


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_expectation_embeds_as_projection(name):
    # the embedded expectation is exactly the orthogonal range projection
    g = catalog.builtin(name)
    space = hopf.gns(g)
    for f in catalog.catalog_functionals(g, name):
        state = coideal.as_idempotent_state(f)
        l2map = (space.orthonormal_basis @ state.conditional_expectation
                 @ space.inverse_basis)
        assert frob(l2map - state.l2_projection) < 1e-10


def test_order_criteria_through_coideal_operations(c_s3):
    # reverify the order equivalences with coideal-level machinery only
    states = [coideal.as_idempotent_state(f)
              for f in catalog.catalog_functionals(c_s3, "c_s3")]
    for a in states:
        for b in states:
            conv = harmonic.convolve(a.functional, b.functional).distance(
                b.functional) < 1e-9
            comp = frob(a.conditional_expectation @ b.conditional_expectation
                        - b.conditional_expectation) < 1e-7
            crossing = subspace_intersection(a.coideal.gns_basis(),
                                             b.coideal.gns_basis())
            contain = subspace_distance(crossing, b.coideal.gns_basis()) < 1e-7
            porder = frob(a.l2_projection @ b.l2_projection
                          - b.l2_projection) < 1e-7
            assert conv == comp == contain == porder


def reference_span_defects(g, basis_gns):
    # the einsum strings that the stacked contractions replace, on one span
    space = hopf.gns(g)
    n, k = basis_gns.shape
    basis_alg = space.inverse_basis @ basis_gns
    t, proj = space.orthonormal_basis, basis_gns @ basis_gns.conj().T
    products = np.einsum("ai,abc,bj->cij", basis_alg, g.mult,
                         basis_alg).reshape(n, k * k)
    seconds = np.einsum("pq,iqr,rs->ips", t, np.einsum(
        "ai,ajk->ijk", basis_alg, g.comult), t.T)
    lifted = t @ products
    d_sub = np.abs(lifted - proj @ lifted).max() if k else 0.0
    d_coid = max((frob(s @ (np.eye(n) - proj).T) for s in seconds), default=0.0)
    return d_sub, d_coid


@pytest.mark.parametrize("name", ["c_s3", "cg_s3"])
@pytest.mark.parametrize("k", [0, 1, 4, 6])
def test_span_defects_match_single_contractions(name, k):
    # a random span of width k, zero-padded in a stack beside a span of
    # width 5, against the einsum strings on each span alone
    g = catalog.builtin(name)
    space = hopf.gns(g)
    rng = np.random.default_rng(k)
    spans = [orthonormal_columns(space.orthonormal_basis @ (
        rng.standard_normal((6, w)) + 1j * rng.standard_normal((6, w)))) for w in (k, 5)]
    width = max(b.shape[1] for b in spans)
    padded = np.zeros((2, 6, width), complex)
    for i, b in enumerate(spans):
        padded[i, :, :b.shape[1]] = b
    defects = coideal._span_defects(g, space.inverse_basis @ padded, padded)
    for i, b in enumerate(spans):
        d_sub, d_coid = reference_span_defects(g, b)
        assert abs(defects["subalgebra"][i] - d_sub) < 1e-12
        assert abs(defects["coideal"][i] - d_coid) < 1e-12


def reference_choi(group, e_mat):
    # the three unpathed einsums that _choi contracts pairwise
    group = hopf.with_haar(group)
    sm = hopf.star_mult_tensor(group)
    n = group.dim
    mapped = np.einsum("ab,jkb->jka", e_mat, sm)
    t1 = np.einsum("ai,jkb,abc->ijkc", group.star, mapped, group.mult)
    t2 = np.einsum("ijkc,cld,d->ijkl", t1, group.mult, group.haar)
    return t2.transpose(0, 1, 3, 2).reshape(n * n, n * n)


def reference_bimodularity(group, basis_alg, e):
    # the five unpathed einsums of the bimodularity certificate before
    xz = np.einsum("ai,abc->ibc", basis_alg, group.mult)
    xzy = np.einsum("ibc,cde,dj->ibje", xz, group.mult, basis_alg)
    lhs = np.einsum("fe,ibje->ibjf", e, xzy)
    x_ez = np.einsum("ai,acq,cb->ibq", basis_alg, group.mult, e)
    rhs = np.einsum("ibq,qde,dj->ibje", x_ez, group.mult, basis_alg)
    return frob(lhs - rhs)


def choi_pairing(group):
    # h((e_i)* e_b e_l), the group's part of every Choi matrix
    return hopf.star_mult_tensor(group) @ (group.mult @ group.haar)


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "kp"])
def test_pairwise_map_certificates_match_the_einsums(name):
    # on each state's expectation, where both certificates hold, and on a
    # random map, where neither does and the residuals are of order one
    group = named_group(name)
    n = group.dim
    rng = np.random.default_rng(n)
    for s in lattice.enumerate_idempotents(group).states:
        random_map = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for e in (s.conditional_expectation, random_map):
            choi = coideal._choi(group, e, choi_pairing(group))
            reference = reference_choi(group, e)
            assert frob(choi - reference) < 1e-12 * max(1.0, frob(reference))
            bimodular = reference_bimodularity(group, s.coideal.basis, e)
            pairwise = coideal._bimodularity_defect(group, s.coideal.basis, e)
            assert abs(pairwise - bimodular) < 1e-12 * max(1.0, bimodular)


def test_expectation_rejects_a_map_that_is_not_completely_positive(c_s3):
    # the negated expectation is still bimodular, but its Choi matrix is
    # the negative of a nonzero positive one
    state = coideal.as_idempotent_state(catalog.catalog_functionals(c_s3, "c_s3")[1])
    negated = dataclasses.replace(
        state, conditional_expectation=-state.conditional_expectation)
    with pytest.raises(InternalInconsistency, match="not completely positive"):
        coideal.expectation(negated)


# ----------------------------------------------------------------------
# the stacked verifiers against their one-item cases
# ----------------------------------------------------------------------

def assert_same_state(got, expected):
    assert got.name == expected.name
    assert got.coideal.dim == expected.coideal.dim
    for field in ("coeffs", "q_perp", "conditional_expectation", "l2_projection"):
        assert np.abs(getattr(got, field) - getattr(expected, field)).max() < 1e-14, field
    assert np.abs(got.coideal.basis - expected.coideal.basis).max() < 1e-14


@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_as_idempotent_states_matches_the_one_state_calls(name):
    states = lattice.enumerate_idempotents(named_group(name)).states
    functionals = [s.functional for s in states]
    batch = coideal.as_idempotent_states(functionals)
    for f, got in zip(functionals, batch):
        assert got.functional is f
        assert_same_state(got, coideal.as_idempotent_state(f))
    # a verified state passes through unchanged, beside functionals
    mixed = coideal.as_idempotent_states([states[0], functionals[1]])
    assert mixed[0] is states[0]
    assert_same_state(mixed[1], batch[1])


@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_states_from_coideals_matches_the_one_coideal_calls(name):
    states = lattice.enumerate_idempotents(named_group(name)).states
    batch = coideal.states_from_coideals([s.coideal for s in states])
    for s, got in zip(states, batch):
        assert_same_state(got, coideal.state_from_coideal(s.coideal))
        assert np.abs(got.coeffs - s.coeffs).max() < 1e-9


def test_as_idempotent_states_raises_for_the_first_failing_functional(c_z2):
    good = harmonic.haar_functional(c_z2)
    bad = harmonic.Functional(home=c_z2, coeffs=[0.25, 0.75])
    with pytest.raises(NotIdempotent) as info:
        coideal.as_idempotent_states([good, bad])
    with pytest.raises(NotIdempotent) as one:
        coideal.as_idempotent_state(bad)
    assert str(info.value) == str(one.value)


# ----------------------------------------------------------------------
# the stacked certificates against their one-item cases
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_coideals_from_spans_match_the_one_span_calls(name):
    # spans of every width in one list, each against its own call
    group = named_group(name)
    spans = [s.conditional_expectation for s in lattice.enumerate_idempotents(group).states]
    spans += [s.coideal.basis for s in lattice.enumerate_idempotents(group).states]
    for span, got in zip(spans, coideal.coideals_from_spans(group, spans)):
        one = coideal.coideal_from_span(group, span)
        assert np.array_equal(got.basis, one.basis)
        for key, value in one.defects.items():
            assert abs(got.defects[key] - value) < 1e-14, key


def test_coideals_from_spans_raise_for_the_first_failing_span(c_s3):
    # a subalgebra that is no coideal, then a span that is no subalgebra:
    # the first raises, with its own call's message
    whole = np.eye(c_s3.dim)
    no_coideal = delta_e_and_unit(c_s3)
    no_algebra = np.eye(c_s3.dim)[:, 1:3]
    with pytest.raises(NotACoideal) as one:
        coideal.coideal_from_span(c_s3, no_coideal)
    with pytest.raises(NotACoideal) as stacked:
        coideal.coideals_from_spans(c_s3, [whole, no_coideal, no_algebra])
    assert str(stacked.value) == str(one.value)
    with pytest.raises(NotASubalgebra) as one:
        coideal.coideal_from_span(c_s3, no_algebra)
    with pytest.raises(NotASubalgebra) as stacked:
        coideal.coideals_from_spans(c_s3, [whole, no_algebra, no_coideal])
    assert str(stacked.value) == str(one.value)


@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_expectations_match_the_one_state_calls(name):
    states = lattice.enumerate_idempotents(named_group(name)).states
    for s, got in zip(states, coideal.expectations(states)):
        assert np.array_equal(got, coideal.expectation(s))
        assert got is s.conditional_expectation


def test_expectations_raise_for_the_first_failing_state():
    # state 2 is not completely positive (its map negated) and state 4 not
    # bimodular (another state's map, which is completely positive); each
    # is checked in list order, complete positivity first
    states = lattice.enumerate_idempotents(named_group("kp")).states
    negated = dataclasses.replace(
        states[2], conditional_expectation=-states[2].conditional_expectation)
    borrowed = dataclasses.replace(
        states[4], conditional_expectation=states[5].conditional_expectation)
    for bad, message in ((negated, "not completely positive"), (borrowed, "not bimodular")):
        with pytest.raises(InternalInconsistency, match=message) as one:
            coideal.expectation(bad)
        with pytest.raises(InternalInconsistency) as stacked:
            coideal.expectations([states[0], bad, states[1]])
        assert str(stacked.value) == str(one.value)
    with pytest.raises(InternalInconsistency, match="not bimodular"):
        coideal.expectations([states[0], borrowed, negated])
    with pytest.raises(InternalInconsistency, match="not completely positive"):
        coideal.expectations([states[0], negated, borrowed])


def spectrum_says_completely_positive(group, e, tol=hopf.DERIVED_TOL):
    # the oracle: the lowest eigenvalue of the Choi matrix against the bound
    return linalg.min_eigval(coideal._choi(group, e, choi_pairing(group))) >= -hopf.GAP * tol


ALL_INPUTS = ["c_z2", "c_z3", "c_z4", "c_s3", "cg_s3", "cg_z4", "kp",
              "c_d4", "c_d5", "c_d6", "cg_d4", "cg_d5", "cg_d6"]


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_cholesky_and_spectrum_decide_complete_positivity_alike(name):
    # every state's expectation passes both; its negation fails both
    group = named_group(name)
    states = lattice.enumerate_idempotents(group).states
    coideal.expectations(states)
    for s in states:
        assert spectrum_says_completely_positive(group, s.conditional_expectation)
        negated = -s.conditional_expectation
        assert not spectrum_says_completely_positive(group, negated)
        with pytest.raises(InternalInconsistency, match="not completely positive"):
            coideal.expectation(dataclasses.replace(s, conditional_expectation=negated))


def test_expectation_rejects_a_positive_map_that_is_not_completely_positive():
    # on KP's 2 x 2 block, with matrix units delta_a, delta_b, delta_a u and
    # delta_b u (a = (1, 0), b = (0, 1); coordinates 1, 2, 5 and 6), the
    # transpose swaps coordinates 5 and 6; it is the identity on the other
    # blocks, so the map is positive, but not completely positive
    group = named_group("kp")
    space = hopf.gns(group)
    transpose = np.eye(group.dim)[[0, 1, 2, 3, 4, 6, 5, 7]]
    rng = np.random.default_rng(3)
    for _ in range(20):
        # positive: a* a goes to an element whose L2 operator is positive
        a = rng.standard_normal(group.dim) + 1j * rng.standard_normal(group.dim)
        image = transpose @ group.multiply(group.adjoint(a), a)
        assert linalg.min_eigval(space.represent(image)) > -1e-12
    assert not spectrum_says_completely_positive(group, transpose)
    counit = next(s for s in lattice.enumerate_idempotents(group).states
                  if s.coideal.dim == group.dim)
    with pytest.raises(InternalInconsistency, match="not completely positive"):
        coideal.expectation(dataclasses.replace(counit, conditional_expectation=transpose))
