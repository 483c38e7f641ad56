import functools

import numpy as np
import pytest

from qglab import catalog, hopf


@pytest.fixture(scope="session")
def c_z2():
    return catalog.builtin("c_z2")


@pytest.fixture(scope="session")
def c_z3():
    return catalog.builtin("c_z3")


@pytest.fixture(scope="session")
def c_z4():
    return catalog.builtin("c_z4")


@pytest.fixture(scope="session")
def c_s3():
    return catalog.builtin("c_s3")


@pytest.fixture(scope="session")
def cg_s3():
    return catalog.builtin("cg_s3")


@pytest.fixture(scope="session")
def cg_z4():
    return catalog.builtin("cg_z4")


def s3_subgroup(label_set):
    """Index set of a subgroup of S3 given by element labels."""
    _, labels = catalog.group_table("s3")
    return frozenset(labels.index(x) for x in label_set)


def dihedral_table(m):
    """Multiplication table of D_m (order 2m); index e*m + k is r^k s^e.

    r^a s^e . r^b s^f = r^(a + (-1)^e b) s^(e + f).
    """
    elems = [(k, e) for e in (0, 1) for k in range(m)]
    return [[(e ^ f) * m + (a + (-b if e else b)) % m for b, f in elems]
            for a, e in elems]


@functools.cache
def named_group(name):
    """"kp", a built-in, or "c_dM" / "cg_dM": the function / group algebra of D_M."""
    if name == "kp":
        from test_quantum_example import build_quantum_example
        return build_quantum_example()
    if name in catalog.BUILTIN_NAMES:
        return catalog.builtin(name)
    family, m = name.split("_d")
    build = hopf.function_algebra if family == "c" else hopf.group_algebra
    return build(dihedral_table(int(m)))


def assert_same_lattice(got, expected):
    """Same states, order, tables and Hasse diagram."""
    assert [s.coeffs.tolist() for s in got.states] == [
        s.coeffs.tolist() for s in expected.states]
    assert np.array_equal(got.order, expected.order)
    assert np.array_equal(got.meet_table, expected.meet_table)
    assert np.array_equal(got.join_table, expected.join_table)
    assert got.hasse_edges == expected.hasse_edges
