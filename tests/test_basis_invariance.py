"""The machinery is basis-free: transport a built-in through a random
invertible change of basis and everything must still work, with results
matching the originals after transport.

This guards against hidden reliance on 0/1 structure constants,
orthonormal starting bases, or real-valued tensors.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qglab import catalog, cli, harmonic, hopf, lattice


def transported(group: hopf.FiniteQuantumGroup, m: np.ndarray) -> hopf.FiniteQuantumGroup:
    """The same quantum group written in the basis with coordinate map m."""
    m_inv = np.linalg.inv(m)
    mult = np.einsum("ai,bj,abc,kc->ijk", m, m, group.mult, m_inv)
    unit = m_inv @ group.unit
    comult = np.einsum("ai,abc,jb,kc->ijk", m, group.comult, m_inv, m_inv)
    counit = group.counit @ m
    antipode = m_inv @ group.antipode @ m
    star = m_inv @ group.star @ np.conj(m)
    haar = group.haar @ m
    return hopf.FiniteQuantumGroup(dim=group.dim, mult=mult, unit=unit,
                                   comult=comult, counit=counit,
                                   antipode=antipode, star=star, haar=haar)


@pytest.fixture(scope="module")
def moved_s3():
    g = catalog.builtin("c_s3")
    rng = np.random.default_rng(23)
    m = np.eye(6) + 0.25 * (rng.standard_normal((6, 6))
                            + 1j * rng.standard_normal((6, 6)))
    return g, m, transported(g, m)


def test_transported_group_validates(moved_s3):
    _, _, moved = moved_s3
    report = hopf.validate(moved)
    assert report.passed, report.failing()


def test_transport_is_not_recognized_as_builtin(moved_s3):
    _, _, moved = moved_s3
    assert catalog.recognize(moved) is None


def test_invariant_state_transports(moved_s3):
    g, m, moved = moved_s3
    computed = hopf.compute_haar(hopf.FiniteQuantumGroup(
        dim=6, mult=moved.mult, unit=moved.unit, comult=moved.comult,
        counit=moved.counit, antipode=moved.antipode, star=moved.star))
    assert np.max(np.abs(computed - g.haar @ m)) < 1e-10


def test_generated_recovers_transported_catalog(moved_s3):
    g, m, moved = moved_s3
    enum = lattice.enumerate_idempotents(moved)
    assert enum.report.strategy == "generated"
    assert len(enum.states) == 6
    # functionals transport contravariantly: values on the new basis are
    # values on the old images
    expected = sorted(
        tuple(np.round(f.coeffs @ m, 7)) for f in
        catalog.catalog_functionals(g, "c_s3"))
    got = sorted(tuple(np.round(s.coeffs, 7)) for s in enum.states)
    for a, b in zip(expected, got):
        assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-6


def test_lattice_shape_is_basis_independent(moved_s3):
    _, _, moved = moved_s3
    enum = lattice.enumerate_idempotents(moved, strategy="generated")
    lat = lattice.build_lattice(enum.states)
    order_counts = sorted(lat.order.sum(axis=1).tolist())
    # the subgroup lattice of S3: the counit below everything, the
    # invariant state on top, four pairwise incomparable states between
    assert order_counts == [1, 2, 2, 2, 2, 6]
    assert len(lat.hasse_edges) == 8


def test_support_postconditions_on_random_degenerate_states():
    # support projections of non-idempotent, rank-deficient states still
    # satisfy their compression identities (checked inside the call)
    g = catalog.builtin("cg_s3")
    rng = np.random.default_rng(31)
    for _ in range(10):
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y[rng.random(6) < 0.5] = 0.0
        if not np.any(y):
            continue
        rho = g.multiply(g.adjoint(y), y)
        coeffs = np.einsum("i,ijk,k->j", rho, g.mult, g.haar)
        norm = coeffs @ g.unit
        state = harmonic.Functional(home=g, coeffs=coeffs / norm)
        qperp = harmonic.support_projection(state)
        assert harmonic.projection_defect(g, qperp) < 1e-9
        assert abs(state(g.unit - qperp)) < 1e-9


def ill_conditioned_s3(kappa, unitary_seed=0):
    """C(S3) in the basis Q diag(logspace(0, log10 kappa)), Q a fixed unitary."""
    rng = np.random.default_rng(unitary_seed)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6))
                        + 1j * rng.standard_normal((6, 6)))
    m = q @ np.diag(np.logspace(0, np.log10(kappa), 6))
    return m, transported(catalog.builtin("c_s3"), m)


@pytest.mark.parametrize("unitary_seed", [0, 1])
@pytest.mark.parametrize("kappa", [10, 30, 100, 1e3])
def test_auto_recovers_transported_catalog_when_ill_conditioned(kappa, unitary_seed):
    m, moved = ill_conditioned_s3(kappa, unitary_seed)
    enum = lattice.enumerate_idempotents(moved)
    assert enum.report.strategy == "generated"
    assert len(enum.states) == 6
    for f in catalog.catalog_functionals(catalog.builtin("c_s3"), "c_s3"):
        assert sum(np.abs(s.coeffs - f.coeffs @ m).max() < 1e-6
                   for s in enum.states) == 1


def test_ill_conditioned_basis_is_not_an_internal_error(tmp_path, capsys):
    # a valid group in a basis of condition number 1e3: every state is
    # enumerated, and --restarts is accepted and unused
    _, moved = ill_conditioned_s3(1e3)
    path = tmp_path / "ill.json"
    path.write_text(hopf.save(moved) + "\n")
    code = cli.main(["idempotents", "--restarts", "10", "--format", "json",
                     str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert len(doc["states"]) == 6


def near_built_in(name: str, eps: float, seed: int) -> hopf.FiniteQuantumGroup:
    """A built-in transported through m = I + eps (G + iG'), G and G' seeded normals."""
    g = catalog.builtin(name)
    rng = np.random.default_rng(seed)
    m = np.eye(g.dim) + eps * (rng.standard_normal((g.dim, g.dim))
                               + 1j * rng.standard_normal((g.dim, g.dim)))
    return transported(g, m)


def check_exit_code(group, path) -> int:
    path.write_text(hopf.save(group) + "\n")
    return cli.main(["check", str(path)])


@pytest.mark.parametrize("name", ["c_s3", "cg_s3", "c_z4"])
def test_input_near_a_built_in_is_not_recognized_as_it(name, tmp_path):
    # entries about 1e-10 off the built-in's: its exact subgroup states are
    # idempotent here only to about that, so recognition must not hand them
    # over, and the generated states pass every check
    moved = near_built_in(name, 1e-10, 0)
    assert catalog.recognize(moved) is None
    assert check_exit_code(moved, tmp_path / "near.json") == cli.EXIT_OK


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["c_s3", "cg_s3"]),
       log_eps=st.floats(min_value=-13, max_value=-6),
       seed=st.integers(0, 2**32 - 1))
def test_perturbation_near_the_tolerance_passes_check(name, log_eps, seed,
                                                      tmp_path_factory):
    moved = near_built_in(name, 10.0 ** log_eps, seed)
    path = tmp_path_factory.mktemp("near") / "near.json"
    assert check_exit_code(moved, path) == cli.EXIT_OK
