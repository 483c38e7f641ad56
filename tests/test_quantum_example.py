"""End-to-end run on a genuinely quantum example (dim 8).

The six built-ins are each commutative or cocommutative, so none of them
exercises the regime where the co-opposite dual differs from the dual and
where idempotent states exist that do not come from any subgroup.  This
module constructs the smallest object that is neither commutative nor
cocommutative, as a cocycle crossed product of the Klein four-group by the
swap involution, and drives the whole toolkit over it.

The construction is self-verifying: the antipode is obtained as the
convolution inverse of the identity (a linear solve) and the axiom
validator certifies the result before anything else runs.
"""
import json

import numpy as np
import pytest

from qglab import checks, cli, coideal, harmonic, hopf, lattice
from conftest import assert_same_lattice

KLEIN = [(0, 0), (1, 0), (0, 1), (1, 1)]
IDX = {k: i for i, k in enumerate(KLEIN)}


def _mul(x, y):
    return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)


def _swap(x):
    return (x[1], x[0])


def _basis_index(k, layer):
    return layer * 4 + IDX[k]


def _antipode_by_convolution_inverse(mult, unit, comult, counit):
    """The antipode is the convolution inverse of the identity map."""
    n = unit.size
    rows = np.zeros((n * n, n * n), dtype=complex)
    rhs = np.zeros(n * n, dtype=complex)
    for i in range(n):
        block = np.zeros((n, n * n), dtype=complex)
        for q in range(n):
            for r in range(n):
                w = comult[i, q, r]
                if abs(w) < 1e-14:
                    continue
                for p in range(n):
                    block[:, p * n + q] += w * mult[p, r, :]
        rows[i * n:(i + 1) * n] = block
        rhs[i * n:(i + 1) * n] = counit[i] * unit
    sol, _, _, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    fit = float(np.linalg.norm(rows @ sol - rhs))
    assert fit < 1e-10, f"no convolution inverse of the identity ({fit:.1e})"
    return sol.reshape(n, n)


def build_quantum_example() -> hopf.FiniteQuantumGroup:
    """Crossed product of functions on the Klein four-group by the swap.

    The extra layer u satisfies u delta_k = delta_swap(k) u and u^2 = 1;
    its coproduct carries the unique (up to gauge) cocycle table with
    fourth roots of unity that makes everything a Hopf *-algebra while
    staying noncommutative and noncocommutative.
    """
    n = 8
    tau = np.ones((4, 4), dtype=complex)
    tau[1, 2], tau[1, 3] = 1j, -1j
    tau[2, 1], tau[2, 3] = -1j, 1j
    tau[3, 1], tau[3, 2] = 1j, -1j

    mult = np.zeros((n, n, n), dtype=complex)
    for k in KLEIN:
        for l in KLEIN:
            if k == l:
                mult[_basis_index(k, 0), _basis_index(l, 0), _basis_index(k, 0)] = 1
                mult[_basis_index(k, 0), _basis_index(l, 1), _basis_index(k, 1)] = 1
            if k == _swap(l):
                mult[_basis_index(k, 1), _basis_index(l, 0), _basis_index(k, 1)] = 1
                mult[_basis_index(k, 1), _basis_index(l, 1), _basis_index(k, 0)] = 1
    unit = np.zeros(n, dtype=complex)
    unit[:4] = 1
    comult = np.zeros((n, n, n), dtype=complex)
    for k in KLEIN:
        for l1 in KLEIN:
            l2 = _mul(k, l1)
            comult[_basis_index(k, 0), _basis_index(l1, 0), _basis_index(l2, 0)] += 1
            comult[_basis_index(k, 1), _basis_index(l1, 1), _basis_index(l2, 1)] += (
                tau[IDX[l1], IDX[l2]])
    counit = np.zeros(n, dtype=complex)
    counit[_basis_index((0, 0), 0)] = 1
    counit[_basis_index((0, 0), 1)] = 1
    star = np.zeros((n, n), dtype=complex)
    for k in KLEIN:
        star[_basis_index(k, 0), _basis_index(k, 0)] = 1
        star[_basis_index(_swap(k), 1), _basis_index(k, 1)] = 1
    antipode = _antipode_by_convolution_inverse(mult, unit, comult, counit)
    labels = tuple(f"d{IDX[k]}u{j}" for j in (0, 1) for k in KLEIN)
    return hopf.with_haar(hopf.FiniteQuantumGroup(
        dim=n, mult=mult, unit=unit, comult=comult, counit=counit,
        antipode=antipode, star=star, labels=labels))


@pytest.fixture(scope="module")
def quantum():
    return build_quantum_example()


# the eight idempotent states, times 4, in canonical order: the structure
# constants lie in {0, +-1, +-i}, so each is idempotent exactly in floats
ORACLE = [[4, 0, 0, 0, 4, 0, 0, 0], [2, 0, 0, 2, 2, 0, 0, -2],
          [2, 0, 0, 2, 2, 0, 0, 2], [4, 0, 0, 0, 0, 0, 0, 0],
          [2, 0, 0, 2, 0, 0, 0, 0], [2, 0, 2, 0, 0, 0, 0, 0],
          [2, 2, 0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0, 0]]


@pytest.fixture(scope="module")
def quantum_enum(quantum):
    return lattice.enumerate_idempotents(quantum)


@pytest.fixture(scope="module")
def quantum_states(quantum):
    return [coideal.as_idempotent_state(harmonic.Functional(
                home=quantum, coeffs=np.array(v, dtype=complex) / 4))
            for v in ORACLE]


def test_validates_and_is_genuinely_quantum(quantum):
    report = hopf.validate(quantum)
    assert report.passed and report.max_residual < 1e-12
    assert not np.allclose(quantum.mult, quantum.mult.transpose(1, 0, 2))
    assert not np.allclose(quantum.comult, quantum.comult.transpose(0, 2, 1))
    assert np.allclose(quantum.haar.real[:4], 0.25)
    assert np.allclose(quantum.haar[4:], 0.0)


def test_oracle_states_are_exactly_idempotent(quantum_states):
    for s in quantum_states:
        assert np.array_equal(harmonic.convolve(s.functional, s.functional).coeffs,
                              s.coeffs)
    dims = sorted(s.coideal.dim for s in quantum_states)
    assert dims == [1, 2, 2, 2, 4, 4, 4, 8]


def test_auto_generates_the_eight_states_without_searching(quantum_enum,
                                                           quantum_states):
    enum = quantum_enum
    assert enum.report.strategy == "generated"
    assert enum.report.coverage == "generated (G and Ĝ)"
    assert [s.coideal.dim for s in enum.states] == [8, 4, 4, 4, 2, 2, 2, 1]
    assert sum(not harmonic.haar_type_test(s) for s in enum.states) == 2
    # the same set as the exact oracle; canonical order is the oracle's order
    assert len(enum.states) == len(quantum_states)
    for s in quantum_states:
        assert sum(harmonic.sup(s.coeffs - t.coeffs) < 1e-12 for t in enum.states) == 1
    assert all(a.distance(b) < 1e-12 for a, b in zip(enum.states, quantum_states))


def test_generated_json_does_not_depend_on_the_seed(quantum, tmp_path, capsys):
    path = tmp_path / "kp.json"
    path.write_text(hopf.save(quantum) + "\n")
    outs = []
    for seed in ("1", "1729"):
        assert cli.main(["idempotents", "--format", "json", "--seed", seed,
                         str(path)]) == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])["report"]
    assert set(report) == {"strategy", "recognized", "coverage", "generated"}
    assert report["strategy"] == "generated"
    assert set(report["generated"]) == {"seeds", "limits", "one_side",
                                        "closure_added"}


def test_exactly_two_states_are_not_haar_type(quantum_states):
    # idempotent states that do not come from any quantum subgroup:
    # both have two-dimensional coideals and live on the function layer
    exotic = [s for s in quantum_states if not harmonic.haar_type_test(s)]
    assert len(exotic) == 2
    for s in exotic:
        assert s.coideal.dim == 2
        assert np.allclose(s.coeffs[4:], 0.0, atol=1e-9)
        assert sorted(np.round(s.coeffs.real, 6)[:4].tolist()) == [0.0, 0.0, 0.5, 0.5]


def test_enumerated_lattice_matches_build_lattice(quantum_enum):
    assert_same_lattice(quantum_enum.lattice,
                        lattice.build_lattice(quantum_enum.states))


def test_full_property_suite_passes(quantum):
    results = checks.run_all_checks(quantum)
    failed = [r.key for r in results if not r.passed]
    assert not failed, failed
    by_key = {r.key: r for r in results}
    assert "8 states" in by_key["enumeration"].detail
