import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qglab import catalog, checks, coideal, harmonic, hopf, lattice
from qglab.errors import CriteriaDisagree, InternalInconsistency
from qglab.linalg import frob, subspace_intersection
from conftest import assert_same_lattice, dihedral_table, named_group, s3_subgroup
from test_basis_invariance import ill_conditioned_s3


def states_by_subgroup(name):
    g = catalog.builtin(name)
    out = {}
    for f in catalog.catalog_functionals(g, name):
        s = coideal.as_idempotent_state(f, name=f.name)
        out[catalog.subgroup_of_state(name, s.coeffs)] = s
    return g, out


# ----------------------------------------------------------------------
# meet and join against the subgroup oracle
# ----------------------------------------------------------------------

def test_meet_is_idempotent_on_arguments(c_s3):
    _, by_sub = states_by_subgroup("c_s3")
    for s in by_sub.values():
        assert lattice.meet(s, s).distance(s) < 1e-9
        assert lattice.join(s, s).distance(s) < 1e-9


def test_meet_of_transposition_subgroups_is_counit():
    g, by_sub = states_by_subgroup("c_s3")
    a = by_sub[s3_subgroup({"e", "(12)"})]
    b = by_sub[s3_subgroup({"e", "(13)"})]
    got = lattice.meet(a, b)
    assert got.distance(harmonic.convolution_unit(g)) < 1e-9


def test_meet_absorbs_contained_subgroup():
    _, by_sub = states_by_subgroup("c_s3")
    whole = by_sub[frozenset(range(6))]
    half = by_sub[s3_subgroup({"e", "(12)"})]
    assert lattice.meet(whole, half).distance(half) < 1e-9


def test_join_generates_whole_group():
    g, by_sub = states_by_subgroup("c_s3")
    a = by_sub[s3_subgroup({"e", "(12)"})]
    b = by_sub[s3_subgroup({"e", "(13)"})]
    got, diag = lattice.join_with_diagnostics(a, b)
    assert got.distance(harmonic.haar_functional(g)) < 1e-9
    assert diag.iterations <= 200
    assert diag.two_path_distance < 1e-8
    assert diag.slice_residual < 1e-8


def test_join_on_group_algebra_is_pointwise():
    g, by_sub = states_by_subgroup("cg_s3")
    a = by_sub[s3_subgroup({"e", "(12)"})]
    b = by_sub[s3_subgroup({"e", "(13)"})]
    got = lattice.join(a, b)
    # the intersection subgroup is trivial, so the join is the point mass,
    # which is the invariant state of the group algebra
    assert got.distance(harmonic.haar_functional(g)) < 1e-9


def scaled(state, eps):
    """The state times (1 + eps), verified anew."""
    f = harmonic.Functional(home=state.home, coeffs=(1.0 + eps) * state.coeffs)
    return coideal.as_idempotent_state(f)


def test_join_stops_on_off_normalization_state(c_s3):
    # this state is off its unit value by 1e-11, below the state tolerance:
    # the rank cut counts every singular value of M - I as zero, so the
    # limit is the product itself, 2e-11 from the counit
    counit = coideal.as_idempotent_state(harmonic.convolution_unit(c_s3))
    t = scaled(counit, 1e-11)
    got, diag = lattice.join_with_diagnostics(t, t)
    assert diag.iterations < 10
    assert got.distance(counit) < 1e-9


@functools.cache
def catalog_states(name):
    return list(states_by_subgroup(name)[1].values())


def limit_of_powers(a, b):
    return lattice.join_with_diagnostics(a, b)[0]


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(catalog.BUILTIN_NAMES), data=st.data(),
       eps=st.floats(min_value=-1e-10, max_value=1e-10),
       route=st.sampled_from([lattice.join, limit_of_powers]))
def test_join_is_stable_near_the_tolerance(name, data, eps, route):
    states = catalog_states(name)
    a = data.draw(st.sampled_from(states))
    b = data.draw(st.sampled_from(states))
    got = route(scaled(a, eps), b)
    assert got.distance(lattice.join(a, b)) < 1e-8


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_join_is_the_limit_of_convolution_powers(name):
    states = catalog_states(name)
    for i, a in enumerate(states):
        for b in states[i:]:
            assert lattice.join(a, b).distance(limit_of_powers(a, b)) < 1e-8


@functools.cache
def lattice_states(name):
    if name in ("kp", "c_d4"):
        return lattice.enumerate_idempotents(named_group(name)).states
    return catalog_states(name)


@pytest.mark.parametrize("name", [*catalog.BUILTIN_NAMES, "kp", "c_d4"])
def test_join_limit_is_reached_by_plain_powers(name):
    # the definition without an SVD: omega^{*1024} and (P_1 P_2)^1024 by ten
    # squarings, and omega^{*k} for the iteration count k
    tol = harmonic.DEFAULT_TOL
    states = lattice_states(name)
    for i, a in enumerate(states):
        for b in states[i:]:
            limit, diag = lattice.join_with_diagnostics(a, b)
            omega = harmonic.convolve(a.functional, b.functional)
            power, l2_power = omega, a.l2_projection @ b.l2_projection
            for _ in range(10):
                power = harmonic.convolve(power, power)
                l2_power = l2_power @ l2_power
            assert harmonic.sup(power.coeffs - limit.coeffs) < 1e-10
            assert frob(l2_power - diag.l2_limit) < 1e-10
            kth = omega
            for _ in range(diag.iterations - 1):
                kth = harmonic.convolve(kth, omega)
            assert harmonic.sup(kth.coeffs - limit.coeffs) < 10 * tol


def test_lattice_runs_no_convolution_loop(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    real = lattice.join_with_diagnostics
    monkeypatch.setattr(lattice, "join_with_diagnostics", counted)
    for name in catalog.BUILTIN_NAMES:
        enum = lattice.enumerate_idempotents(catalog.builtin(name))
        lattice.build_lattice(enum.states)
    assert calls == []


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

@pytest.mark.parametrize("table, count", [
    ([[a ^ b for b in range(8)] for a in range(8)], 16),   # needs 3 generators
    (dihedral_table(4), 10),
    (dihedral_table(6), 16),
], ids=["z2^3", "d4", "d6"])
def test_subgroup_counts(table, count):
    subs = catalog.subgroups(table)
    assert len(subs) == count
    assert frozenset(range(len(table))) in subs


EXPECTED_COUNTS = {"c_z2": 2, "c_z3": 2, "c_z4": 3, "c_s3": 6,
                   "cg_s3": 6, "cg_z4": 3}


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_catalog_enumeration_counts(name):
    enum = lattice.enumerate_idempotents(catalog.builtin(name),
                                         strategy="catalog")
    assert len(enum.states) == EXPECTED_COUNTS[name]
    # closed under both operations, contains the two extremes
    g = catalog.builtin(name)
    names = {s.name for s in enum.states}
    assert len(names) == len(enum.states)
    coeffs = [s.coeffs for s in enum.states]
    assert any(np.max(np.abs(c - g.counit)) < 1e-9 for c in coeffs)
    assert any(np.max(np.abs(c - g.haar)) < 1e-9 for c in coeffs)


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_generated_equals_catalog(name):
    g = catalog.builtin(name)
    got = lattice.enumerate_idempotents(g, strategy="generated")
    expected = lattice.enumerate_idempotents(g, strategy="catalog")
    assert got.report.coverage == "full"
    assert [s.name for s in got.states] == [s.name for s in expected.states]
    assert all(a.distance(b) < 1e-9 for a, b in zip(got.states, expected.states))
    for table in ("order", "meet_table", "join_table"):
        assert np.array_equal(getattr(got.lattice, table),
                              getattr(expected.lattice, table))


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_subgroup_state_table_round_trips(name):
    # each catalog state maps back to its own subgroup, and each enumerated
    # state, catalog or generated, carries its subgroup's catalog name
    states = catalog.subgroup_states(name)
    table, _ = catalog.group_table(name.split("_", 1)[1])
    assert list(states) == catalog.subgroups(table)
    for sub, (_, coeffs) in states.items():
        assert catalog.subgroup_of_state(name, coeffs) == sub
    for strategy in ("catalog", "generated"):
        enum = lattice.enumerate_idempotents(catalog.builtin(name), strategy=strategy)
        assert sorted(s.name for s in enum.states) == sorted(
            tag for tag, _ in states.values())
        for s in enum.states:
            assert s.name == states[catalog.subgroup_of_state(name, s.coeffs)][0]


@pytest.mark.parametrize("m", [4, 5, 6, 8])
@pytest.mark.parametrize("family", ["function", "group"])
def test_generated_finds_every_dihedral_subgroup(family, m):
    # unrecognized input, so "auto" collects generated idempotents; C(D_m)
    # has uniform measures on subgroups, C*(D_m) subgroup indicators
    table = dihedral_table(m)
    if family == "function":
        g, state_of = hopf.function_algebra(table), catalog.uniform_measure_functional
    else:
        g, state_of = hopf.group_algebra(table), catalog.indicator_functional
    enum = lattice.enumerate_idempotents(g)
    assert enum.report.strategy == "generated"
    assert enum.report.coverage == "generated (G and Ĝ)"
    subs = catalog.subgroups(table)
    assert len(enum.states) == len(subs)
    for sub in subs:
        expected = state_of(g, sub).coeffs
        assert sum(np.abs(s.coeffs - expected).max() < 1e-9 for s in enum.states) == 1


def test_generated_report_counts_each_side(cg_s3):
    # C*(S3) is cocommutative: its own spectral seeds reach 3 of its 6
    # states, and its dual C(S3) reaches the Haar states of the five
    # cyclic subgroups, which pull back to the rest
    report = lattice.enumerate_idempotents(cg_s3, strategy="generated").report
    assert report.strategy == "generated"
    assert report.generated == {"seeds": {"group": 6, "dual": 6},
                                "limits": {"group": 3, "dual": 5},
                                "one_side": {"group": 1, "dual": 3},
                                "closure_added": 0}


@pytest.mark.parametrize("tol", [3e-3, 5e-3, 9e-3])
@pytest.mark.parametrize("name", ["kp", "c_d4", "c_d5", "c_d6", "cg_d4"])
def test_generated_keeps_every_state_at_large_tolerances(name, tol):
    # distinct states can lie 2/n apart in coefficients, below the gap
    # bound 100 * tol; on these inputs their coideals' projections lie at
    # least 1 apart (measured, not proved)
    group = named_group(name)
    default = lattice.enumerate_idempotents(group)
    wide = lattice.enumerate_idempotents(group, tol=tol)
    assert len(wide.states) == len(default.states) == {
        "kp": 8, "c_d4": 10, "c_d5": 8, "c_d6": 16, "cg_d4": 10}[name]
    assert wide.report == default.report


def test_enumeration_deterministic(c_s3):
    first = lattice.enumerate_idempotents(c_s3, strategy="generated")
    second = lattice.enumerate_idempotents(c_s3, strategy="generated")
    assert len(first.states) == len(second.states)
    for a, b in zip(first.states, second.states):
        assert np.array_equal(a.coeffs, b.coeffs)


@functools.cache
def seed_stream_input(name):
    return ill_conditioned_s3(1e3)[1] if name == "c_s3_kappa_1e3" else named_group(name)


@functools.cache
def default_stream_states(name):
    return lattice.enumerate_idempotents(seed_stream_input(name),
                                         strategy="generated").states


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["kp", "c_d4", "cg_d5", "c_s3_kappa_1e3"]),
       stream=st.integers(1, 2**32 - 1))
def test_generated_states_do_not_depend_on_the_seed_stream(name, stream):
    # another self-adjoint x gives other spectral seeds, but the states
    # they generate, closed under meet and join, are the group's
    expected = default_stream_states(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_SEED_STREAM", stream)
        got = lattice.enumerate_idempotents(seed_stream_input(name),
                                            strategy="generated").states
    assert len(got) == len(expected)
    assert all(a.distance(b) < 1e-9 for a, b in zip(got, expected))


def test_catalog_strategy_requires_builtin(c_z2):
    import dataclasses

    scrambled = dataclasses.replace(c_z2, haar=None, labels=None,
                                    counit=c_z2.counit.copy())
    # still recognized (tensors unchanged): allowed
    assert lattice.enumerate_idempotents(scrambled, strategy="catalog")
    with pytest.raises(ValueError):
        lattice.enumerate_idempotents(c_z2, strategy="bogus")


# ----------------------------------------------------------------------
# the lattice itself
# ----------------------------------------------------------------------

def test_build_lattice_chain_z2(c_z2):
    enum = lattice.enumerate_idempotents(c_z2, strategy="catalog")
    lat = lattice.build_lattice(enum.states)
    assert lat.order.sum() == 3  # two reflexive pairs plus one strict
    assert lat.hasse_edges == [(0, 1)]


def test_lattice_matches_subgroup_lattice_oracle(c_s3):
    subs, order, meet_idx, join_idx = catalog.subgroup_lattice_oracle("c_s3")
    enum = lattice.enumerate_idempotents(c_s3, strategy="catalog")
    lat = lattice.build_lattice(enum.states)
    # align enumerated states with oracle subgroups
    position = []
    for s in lat.states:
        sub = catalog.subgroup_of_state("c_s3", s.coeffs)
        position.append(subs.index(sub))
    k = len(subs)
    assert sorted(position) == list(range(k))
    for i in range(k):
        for j in range(k):
            assert lat.order[i, j] == order[position[i], position[j]]
            assert (position[lat.meet_table[i, j]]
                    == meet_idx[position[i], position[j]])
            assert (position[lat.join_table[i, j]]
                    == join_idx[position[i], position[j]])
    # Hasse edges match the oracle's cover relation
    oracle_covers = set()
    for i in range(k):
        for j in range(k):
            if i != j and order[i, j] and not any(
                    l not in (i, j) and order[i, l] and order[l, j]
                    for l in range(k)):
                oracle_covers.add((i, j))
    got = {(position[i], position[j]) for i, j in lat.hasse_edges}
    assert got == oracle_covers


def test_group_algebra_lattice_is_reversed_subgroup_lattice(cg_s3):
    subs, order, _, _ = catalog.subgroup_lattice_oracle("cg_s3")
    enum = lattice.enumerate_idempotents(cg_s3, strategy="catalog")
    lat = lattice.build_lattice(enum.states)
    position = [subs.index(catalog.subgroup_of_state("cg_s3", s.coeffs))
                for s in lat.states]
    for i in range(len(subs)):
        for j in range(len(subs)):
            assert lat.order[i, j] == order[position[j], position[i]]


def test_to_dot_syntax(c_s3):
    enum = lattice.enumerate_idempotents(c_s3, strategy="catalog")
    lat = lattice.build_lattice(enum.states)
    dot = lattice.to_dot(lat)
    lines = dot.strip().splitlines()
    assert lines[0] == "digraph idempotent_lattice {"
    assert lines[-1] == "}"
    node = re.compile(r'^  "[^"]+" \[label="[^"]+"\];$')
    edge = re.compile(r'^  "[^"]+" -> "[^"]+";$')
    for line in lines[1:-1]:
        assert node.match(line) or edge.match(line), line
    assert sum(1 for line in lines if edge.match(line)) == len(lat.hasse_edges)


# every way the lattice verifier can refuse: each raise is forced once on
# the catalog lattice of C(S3), whose states[0] is the counit (the least
# state) and states[-1] the Haar state (the greatest)

@functools.cache
def s3_lattice():
    return lattice.enumerate_idempotents(catalog.builtin("c_s3"), strategy="catalog").lattice


def verify_tables(states, meet_table, join_table):
    return lattice._lattice_from_tables(states, meet_table, join_table,
                                        harmonic.DEFAULT_TOL)


def test_lattice_verifier_rejects_a_duplicated_state():
    lat = s3_lattice()
    k = len(lat.states) + 1
    with pytest.raises(InternalInconsistency,
                       match=r"^order is not antisymmetric; duplicates\?$"):
        verify_tables(lat.states + [lat.states[1]], np.zeros((k, k), dtype=int),
                      np.zeros((k, k), dtype=int))


@pytest.mark.parametrize("table, message", [
    ("meet", "meet is not the largest common lower bound"),
    ("join", "join is not the smallest common upper bound"),
])
def test_lattice_verifier_rejects_a_swapped_entry(table, message):
    lat = s3_lattice()
    last = len(lat.states) - 1
    # the pair (least, greatest) swaps its entry with a diagonal pair's
    fixed = (last, last) if table == "meet" else (0, 0)
    original = getattr(lat, f"{table}_table")
    swapped = original.copy()
    swapped[0, last], swapped[fixed] = original[fixed], original[0, last]
    assert swapped[0, last] != original[0, last]
    tables = {"meet": lat.meet_table, "join": lat.join_table, table: swapped}
    with pytest.raises(InternalInconsistency, match=f"^{message}$"):
        verify_tables(lat.states, tables["meet"], tables["join"])


def patch_order_table(monkeypatch, keep):
    """The verifier's order table with the pairs (a, b) that keep refuses dropped."""
    real = lattice.order_table
    monkeypatch.setattr(lattice, "order_table", lambda mus, nus, tol: real(mus, nus, tol)
                        & np.array([[keep(a, b) for b in nus] for a in mus]))


def test_lattice_verifier_rejects_a_non_reflexive_order(monkeypatch):
    lat = s3_lattice()
    patch_order_table(monkeypatch, lambda a, b: a is not b)
    with pytest.raises(InternalInconsistency, match="^order is not reflexive$"):
        verify_tables(lat.states, lat.meet_table, lat.join_table)


def test_lattice_verifier_rejects_a_non_transitive_order(monkeypatch):
    lat = s3_lattice()
    least, greatest = lat.states[0], lat.states[-1]
    patch_order_table(monkeypatch, lambda a, b: not (a is least and b is greatest))
    with pytest.raises(InternalInconsistency, match="^order is not transitive$"):
        verify_tables(lat.states, lat.meet_table, lat.join_table)


def reference_verdict(order, meet_table, join_table):
    # the k**3 loops the verifier's array expressions replaced: the first
    # property that fails, in the verifier's order, or else the Hasse edges
    r = range(len(order))

    def not_extremal(table, below):
        for i in r:
            for j in r:
                bounds = [l for l in r if below(l, i) and below(l, j)]
                if table[i, j] not in bounds or not all(below(l, table[i, j])
                                                        for l in bounds):
                    return True
        return False

    failing = [
        ("order is not reflexive", not all(order[i, i] for i in r)),
        ("order is not antisymmetric; duplicates?",
         any(i != j and order[i, j] and order[j, i] for i in r for j in r)),
        ("order is not transitive", any(order[i, j] and order[j, l] and not order[i, l]
                                        for i in r for j in r for l in r)),
        ("meet is not the largest common lower bound",
         not_extremal(meet_table, lambda a, b: order[a, b])),
        ("join is not the smallest common upper bound",
         not_extremal(join_table, lambda a, b: order[b, a])),
    ]
    for message, failed in failing:
        if failed:
            return message
    return [(i, j) for i in r for j in r if i != j and order[i, j] and not any(
        l not in (i, j) and order[i, l] and order[l, j] for l in r)]


def test_lattice_verifier_matches_the_loops(monkeypatch):
    # random families of subsets ordered by inclusion, with the tables of
    # intersection and union where the family holds them, then one entry of
    # the order or of a table overwritten at random; the verifier reads the
    # order through order_table, patched to look it up
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(400):
        masks = rng.integers(0, 8, size=rng.integers(1, 7)).tolist()
        k = len(masks)
        order = np.array([[a & ~b == 0 for b in masks] for a in masks])
        meet = np.array([[masks.index(a & b) if a & b in masks else rng.integers(k)
                          for b in masks] for a in masks])
        join = np.array([[masks.index(a | b) if a | b in masks else rng.integers(k)
                          for b in masks] for a in masks])
        target = [order, meet, join, None][rng.integers(4)]
        if target is not None:
            i, j = rng.integers(k, size=2)
            target[i, j] = not target[i, j] if target is order else rng.integers(k)
        monkeypatch.setattr(lattice, "order_table",
                            lambda mus, nus, tol: order[np.ix_(mus, nus)])
        try:
            got = verify_tables(list(range(k)), meet, join).hasse_edges
        except InternalInconsistency as exc:
            got = str(exc)
        expected = reference_verdict(order, meet, join)
        assert got == expected
        verdicts.add(expected if isinstance(expected, str) else "lattice")
    assert len(verdicts) == 6   # every raise, and lattices that pass


def test_empty_list_is_the_empty_lattice():
    lat = lattice.build_lattice([])
    assert lat.order.shape == lat.meet_table.shape == lat.join_table.shape == (0, 0)
    assert lat.hasse_edges == []


def test_lattice_verifier_accepts_the_catalog_tables():
    lat = s3_lattice()
    again = verify_tables(lat.states, lat.meet_table, lat.join_table)
    assert np.array_equal(again.order, lat.order)
    assert again.hasse_edges == lat.hasse_edges
    assert all(type(x) is int for edge in again.hasse_edges for x in edge)


# ----------------------------------------------------------------------
# commutation equivalences and the modular law
# ----------------------------------------------------------------------

def test_commutation_with_counit_all_true(c_s3):
    _, by_sub = states_by_subgroup("c_s3")
    eps = by_sub[frozenset({0})]
    for other in by_sub.values():
        report = lattice.commutation_equivalences(eps, other)
        assert report.commute


def test_commutation_normal_subgroup_true():
    _, by_sub = states_by_subgroup("c_s3")
    rho = by_sub[s3_subgroup({"e", "(123)", "(132)"})]
    mu = by_sub[s3_subgroup({"e", "(12)"})]
    assert lattice.commutation_equivalences(rho, mu).commute


def test_commutation_two_transpositions_false():
    _, by_sub = states_by_subgroup("c_s3")
    rho = by_sub[s3_subgroup({"e", "(12)"})]
    mu = by_sub[s3_subgroup({"e", "(13)"})]
    report = lattice.commutation_equivalences(rho, mu)
    assert not report.commute
    assert all(v >= 1e-9 for v in report.residuals.values())


def test_commutation_never_disagrees_on_catalog(c_s3):
    _, by_sub = states_by_subgroup("c_s3")
    states = list(by_sub.values())
    for a in states:
        for b in states:
            lattice.commutation_equivalences(a, b)  # must not raise


def loop_commutation(rho, mu, joined):
    """The three commutation residuals of one pair, as a per-pair loop takes them."""
    conv = lambda a, b: np.einsum("ijk,j,k->i", rho.home.comult, a, b)
    rm, mr = conv(rho.coeffs, mu.coeffs), conv(mu.coeffs, rho.coeffs)
    return [float(np.max(np.abs(x - rm)))
            for x in (joined, conv(mr, mu.coeffs), mr)]


@pytest.mark.parametrize("name", ["kp", "c_d6"])
def test_commutation_table_matches_the_loop(name):
    lat = lattice.enumerate_idempotents(named_group(name)).lattice
    states = lat.states
    coeffs = np.array([s.coeffs for s in states])
    table = lattice.commutation_table(states, states, coeffs[lat.join_table])
    for i, rho in enumerate(states):
        for j, mu in enumerate(states):
            expected = loop_commutation(rho, mu, coeffs[lat.join_table[i, j]])
            got = [table.residuals[key][i, j] for key in ("join", "sandwich", "swap")]
            assert np.allclose(got, expected, rtol=0.0, atol=1e-13)
            assert table.commute[i, j] == (expected[0] < harmonic.DEFAULT_TOL)
            one = lattice.commutation_equivalences(rho, mu, joined=states[lat.join_table[i, j]])
            assert one.commute == table.commute[i, j]


def test_commutation_table_names_the_first_disagreeing_pair():
    # the join of the counit with itself replaced by the Haar state: only the
    # join criterion sees it, at the pair (0, 0), the first in row-major order
    lat = lattice.enumerate_idempotents(named_group("kp")).lattice
    states = lat.states
    coeffs = np.array([s.coeffs for s in states])
    joined = coeffs[lat.join_table]
    joined[0, 0] = states[-1].coeffs
    residuals = loop_commutation(states[0], states[0], joined[0, 0])
    message = ("commutation criteria disagree: join {:.2e}, sandwich {:.2e}, "
               "swap {:.2e}").format(*residuals)
    with pytest.raises(CriteriaDisagree) as info:
        lattice.commutation_table(states, states, joined)
    assert str(info.value) == message
    with pytest.raises(CriteriaDisagree) as info:
        lattice.commutation_equivalences(states[0], states[0], joined=states[-1])
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["kp", "c_d4"])
def test_joins_with_diagnostics_match_the_per_pair_calls(name):
    states = lattice.enumerate_idempotents(named_group(name)).states
    rows, cols = np.triu_indices(len(states))
    batch = lattice.joins_with_diagnostics([states[i] for i in rows],
                                           [states[j] for j in cols])
    assert len(batch) == len(rows)
    for i, j, (limit, diag) in zip(rows, cols, batch):
        one, one_diag = lattice.join_with_diagnostics(states[i], states[j])
        assert np.abs(limit.coeffs - one.coeffs).max() < 1e-13
        assert np.abs(diag.l2_limit - one_diag.l2_limit).max() < 1e-13
        assert diag.iterations == one_diag.iterations
        assert abs(diag.slice_residual - one_diag.slice_residual) < 1e-13
        assert abs(diag.two_path_distance - one_diag.two_path_distance) < 1e-13


def s3_lattice_indices():
    """The c_s3 lattice and the index of each subgroup's state in it."""
    lat = lattice.enumerate_idempotents(catalog.builtin("c_s3"),
                                        strategy="catalog").lattice
    return lat, {catalog.subgroup_of_state("c_s3", s.coeffs): i
                 for i, s in enumerate(lat.states)}


def test_modular_law_named_instance():
    # the triple meets every hypothesis, and the two bracketings agree
    lat, index = s3_lattice_indices()
    omega = index[frozenset(range(6))]
    mu = index[s3_subgroup({"e", "(12)"})]
    rho = index[s3_subgroup({"e", "(123)", "(132)"})]
    law = checks.modular_law(lat)
    assert (omega, mu, rho) in law
    assert law[omega, mu, rho] < 1e-9


def test_modular_law_flags_failed_hypothesis():
    lat, index = s3_lattice_indices()
    omega = index[s3_subgroup({"e", "(12)"})]
    mu = index[s3_subgroup({"e", "(13)"})]
    rho = index[s3_subgroup({"e", "(123)", "(132)"})]
    assert not lat.order[rho, omega]
    assert (omega, mu, rho) not in checks.modular_law(lat)


def test_modular_law_with_counit_trivial():
    lat, index = s3_lattice_indices()
    omega = index[s3_subgroup({"e", "(12)"})]
    mu = index[s3_subgroup({"e", "(123)", "(132)"})]
    eps = index[frozenset({0})]
    law = checks.modular_law(lat)
    assert (omega, mu, eps) in law
    assert law[omega, mu, eps] < 100 * 1e-9


# ----------------------------------------------------------------------
# order extremality over the enumerated set
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_meet_join_are_extremal_bounds(name):
    enum = lattice.enumerate_idempotents(catalog.builtin(name),
                                         strategy="catalog")
    lat = lattice.build_lattice(enum.states)
    k = len(lat.states)
    for i in range(k):
        for j in range(k):
            lower = [l for l in range(k) if lat.order[l, i] and lat.order[l, j]]
            assert all(lat.order[l, lat.meet_table[i, j]] for l in lower)
            upper = [l for l in range(k) if lat.order[i, l] and lat.order[j, l]]
            assert all(lat.order[lat.join_table[i, j], l] for l in upper)
            assert lat.meet_table[i, lat.join_table[i, j]] == i
            assert lat.join_table[i, lat.meet_table[i, j]] == i


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_enumerated_lattice_matches_build_lattice(name):
    # the closure's tables, permuted into canonical order, are the tables
    # that build_lattice computes afresh on the sorted states
    enum = lattice.enumerate_idempotents(catalog.builtin(name))
    assert_same_lattice(enum.lattice, lattice.build_lattice(enum.states))


def test_build_lattice_rejects_a_set_that_is_not_closed():
    _, by_sub = states_by_subgroup("c_s3")
    a = by_sub[s3_subgroup({"e", "(12)"})]
    b = by_sub[s3_subgroup({"e", "(13)"})]
    with pytest.raises(InternalInconsistency, match="left the enumerated set"):
        lattice.build_lattice([a, b])


def test_closure_builds_a_state_for_each_new_coideal():
    # the meet and join of two transposition subgroups' states are new
    # coideals, so the closure builds them: the counit and the Haar state
    _, by_sub = states_by_subgroup("c_s3")
    a = by_sub[s3_subgroup({"e", "(12)"})]
    b = by_sub[s3_subgroup({"e", "(13)"})]
    closed, meet_table, join_table = lattice._close([a, b], 1e-9)
    assert len(closed) == 4
    assert closed[0] is a and closed[1] is b
    assert closed[2].distance(by_sub[s3_subgroup({"e"})]) < 1e-9
    assert closed[3].distance(by_sub[frozenset(range(6))]) < 1e-9
    assert meet_table[0, 1] == 2 and join_table[0, 1] == 3


def test_singleton_lattice_is_trivial(c_z2):
    eps = coideal.as_idempotent_state(harmonic.convolution_unit(c_z2))
    lat = lattice.build_lattice([eps])
    assert lat.order.tolist() == [[True]]
    assert lat.hasse_edges == []
    assert lat.meet_table.tolist() == [[0]] and lat.join_table.tolist() == [[0]]


# ----------------------------------------------------------------------
# the closure's comparable pairs, read off the order
# ----------------------------------------------------------------------

def reference_close(states, tol=hopf.DERIVED_TOL):
    # the closure that generates the meet and intersects the join of every
    # pair, comparable or not, one pair at a time
    states = list(states)
    meets, joins = {}, {}

    def index_of(basis):
        proj = basis @ basis.conj().T
        for idx, s in enumerate(states):
            if (s.coideal.dim == basis.shape[1]
                    and frob(s.l2_projection - proj) <= hopf.GAP * tol):
                return idx
        states.append(lattice._state_of_span(states[0].home, basis, tol))
        return len(states) - 1

    done = 0
    while done < len(states):
        size = len(states)
        for i in range(size):
            for j in range(max(i, done), size):
                a, b = states[i].coideal, states[j].coideal
                meets[i, j] = index_of(coideal.generated_gns_basis(a, b))
                joins[i, j] = index_of(subspace_intersection(a.gns_basis(), b.gns_basis()))
        done = size
    k = len(states)
    meet_table, join_table = np.zeros((k, k), dtype=int), np.zeros((k, k), dtype=int)
    for (i, j), m in meets.items():
        meet_table[i, j] = meet_table[j, i] = m
        join_table[i, j] = join_table[j, i] = joins[i, j]
    return states, meet_table, join_table


@pytest.mark.parametrize("name", ["kp", "c_d4", "c_d5", "c_d6", "c_z2", "c_z3", "c_z4",
                                  "c_s3", "cg_s3", "cg_z4"])
def test_close_matches_a_closure_that_generates_every_pair(name):
    # on the enumerated states in reverse, and on every second one, whose
    # closure appends states
    states = lattice.enumerate_idempotents(named_group(name)).states
    for given in (states[::-1], states[::2]):
        got = lattice._close(given, hopf.DERIVED_TOL)
        expected = reference_close(given)
        assert [s.coeffs.tolist() for s in got[0]] == [s.coeffs.tolist() for s in expected[0]]
        assert np.array_equal(got[1], expected[1])
        assert np.array_equal(got[2], expected[2])


@pytest.mark.parametrize("name, generated", [("kp", 10), ("c_d6", 72), ("c_s3", 6)])
def test_closure_generates_only_incomparable_pairs(name, generated, monkeypatch):
    # KP: 26 of its 36 pairs are comparable; C(D6): 64 of 136
    calls = []
    real = lattice.generated_gns_basis
    monkeypatch.setattr(lattice, "generated_gns_basis",
                        lambda a, b: calls.append(1) or real(a, b))
    lattice.enumerate_idempotents(named_group(name))
    assert len(calls) == generated
