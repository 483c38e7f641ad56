import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qglab import catalog, duality, hopf
from qglab.errors import (
    DimensionMismatch,
    NoHaarState,
    NonUniqueHaar,
    NotAGroup,
    NotPositive,
    ParseError,
)
from conftest import dihedral_table, named_group

ALL = list(catalog.BUILTIN_NAMES)


@pytest.mark.parametrize("name", ALL)
def test_builtins_validate(name):
    report = hopf.validate(catalog.builtin(name), tol=1e-12)
    assert report.passed
    assert report.max_residual < 1e-12


def test_perturbed_mult_fails(c_z2):
    mult = c_z2.mult.copy()
    mult[0, 0, 0] += 1e-3
    broken = dataclasses.replace(c_z2, mult=mult)
    report = hopf.validate(broken, tol=1e-12)
    assert not report.passed
    assert report.max_residual >= 1e-4


def test_validate_fail_fast_stops_early(c_z2):
    mult = c_z2.mult.copy()
    mult[0, 0, 0] += 1e-3
    broken = dataclasses.replace(c_z2, mult=mult)
    report = hopf.validate(broken, tol=1e-12, fail_fast=True)
    assert not report.passed
    assert len(report.checks) < len(hopf.validate(c_z2).checks)


def test_comult_multiplicative_matches_single_contraction(c_z3):
    # oracle: the right side Delta(a)Delta(b) as one four-operand einsum
    rng = np.random.default_rng(3)
    shape = (3, 3, 3)
    for _ in range(3):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = dataclasses.replace(c_z3, mult=m, comult=d, haar=None)
        expected = np.linalg.norm(
            np.einsum("ijk,kab->ijab", m, d)
            - np.einsum("iab,jce,acp,beq->ijpq", d, d, m, m))
        got = dict(hopf.axiom_table(g))["comult-multiplicative"]()
        assert abs(got - expected) <= 1e-12 * expected


def comult_multiplicative_oracle(g):
    # the pairwise einsums, not the n^8 single contraction tested above
    x = np.einsum("iab,acp->icpb", g.comult, g.mult)
    y = np.einsum("jce,beq->jcbq", g.comult, g.mult)
    rhs = np.tensordot(x, y, axes=([1, 3], [1, 2])).transpose(0, 2, 1, 3)
    return np.linalg.norm(np.einsum("ijk,kab->ijab", g.mult, g.comult) - rhs)


# the einsum strings that the axiom table's contractions replaced
AXIOM_ORACLES = {
    "comult-multiplicative": comult_multiplicative_oracle,
    "antipode-axiom": lambda g: max(
        np.linalg.norm(np.einsum("ijk,aj,akq->iq", g.comult, g.antipode, g.mult)
                       - np.outer(g.counit, g.unit)),
        np.linalg.norm(np.einsum("ijk,ak,jaq->iq", g.comult, g.antipode, g.mult)
                       - np.outer(g.counit, g.unit))),
    "associativity": lambda g: np.linalg.norm(
        np.einsum("ijp,pkq->ijkq", g.mult, g.mult)
        - np.einsum("jkp,ipq->ijkq", g.mult, g.mult)),
    "star-antimultiplicative": lambda g: np.linalg.norm(
        np.einsum("ijk,ak->ija", np.conj(g.mult), g.star)
        - np.einsum("pj,qi,pqa->ija", g.star, g.star, g.mult)),
    "coassociativity": lambda g: np.linalg.norm(
        np.einsum("ipr,pab->iabr", g.comult, g.comult)
        - np.einsum("iap,pbr->iabr", g.comult, g.comult)),
    "comult-star": lambda g: np.linalg.norm(
        np.einsum("ai,ajk->ijk", g.star, g.comult)
        - np.einsum("ijk,pj,qk->ipq", np.conj(g.comult), g.star, g.star)),
}


def random_structure(n, seed):
    # no axiom holds, and nothing commutes: a wrong transpose shows
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return hopf.FiniteQuantumGroup(
        dim=n, mult=draw(n, n, n), unit=draw(n), comult=draw(n, n, n),
        counit=draw(n), antipode=draw(n, n), star=draw(n, n))


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_axiom_contractions_match_einsum_oracles(n, seed):
    g = random_structure(n, seed)
    table = dict(hopf.axiom_table(g))
    for name, oracle in AXIOM_ORACLES.items():
        expected = oracle(g)
        assert abs(table[name]() - expected) <= 1e-12 * expected, name


def exact_groups():
    groups = [catalog.builtin(name) for name in ALL]
    for m in (4, 5, 6):
        table = dihedral_table(m)
        groups += [hopf.function_algebra(table), hopf.group_algebra(table)]
    return groups + [duality.dual(g).dual_group for g in groups]


def test_axiom_contractions_equal_einsum_oracles_exactly():
    # structure constants 0, +-1, +-i: every summation order is exact
    for g in exact_groups():
        table = dict(hopf.axiom_table(g))
        for name, oracle in AXIOM_ORACLES.items():
            assert table[name]() == oracle(g), (g.labels, name)


@pytest.mark.parametrize("name", ["c_s3", "cg_s3"])
@pytest.mark.parametrize("axiom, field, index", [
    ("comult-multiplicative", "comult", (1, 2, 3)),
    ("antipode-axiom", "antipode", (1, 2)),
    ("associativity", "mult", (1, 2, 3)),
    ("star-antimultiplicative", "mult", (1, 2, 3)),
    ("coassociativity", "comult", (1, 2, 3)),
    # a real bump of comult leaves C(S3)'s real coproduct star-compatible
    ("comult-star", "star", (1, 2)),
])
def test_bumped_entry_fails_its_axiom(name, axiom, field, index):
    g = catalog.builtin(name)
    bumped = getattr(g, field).copy()
    bumped[index] += 1e-6
    broken = dataclasses.replace(g, **{field: bumped})
    assert axiom in hopf.validate(broken).failing()


def test_group_algebra_matches_multiplication_table():
    # oracle: the product tensor is exactly the indicator of the table
    table, _ = catalog.group_table("s3")
    g = hopf.group_algebra(table)
    for a, b in itertools.product(range(6), repeat=2):
        expected = np.zeros(6)
        expected[table[a][b]] = 1.0
        assert np.allclose(g.mult[a, b], expected)
    assert hopf.validate(g).passed


def test_function_algebra_counit_is_evaluation_at_identity(c_s3):
    # identity of S3 sits at index 0 in the lexicographic ordering
    assert c_s3.counit[0] == 1.0
    assert np.allclose(c_s3.counit[1:], 0.0)


def test_not_a_group_rejected():
    with pytest.raises(NotAGroup):
        hopf.function_algebra([[0, 1], [1, 1]])  # no inverses
    with pytest.raises(NotAGroup):
        hopf.group_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 2]])  # not associative
    with pytest.raises(NotAGroup):
        hopf.function_algebra([[1, 0], [1, 0]])  # no identity


def test_compute_haar_uniform_on_cyclic(c_z3):
    stripped = dataclasses.replace(c_z3, haar=None)
    h = hopf.compute_haar(stripped)
    assert np.allclose(h, np.full(3, 1 / 3))


def test_compute_haar_group_algebra_point_mass(cg_s3):
    # independent oracle first: the claimed value satisfies invariance
    claimed = np.zeros(6, dtype=complex)
    claimed[0] = 1.0
    lhs = np.einsum("ijk,k->ij", cg_s3.comult, claimed)
    assert np.allclose(lhs, np.outer(claimed, cg_s3.unit))
    stripped = dataclasses.replace(cg_s3, haar=None)
    assert np.allclose(hopf.compute_haar(stripped), claimed)


def test_compute_haar_rejects_broken_coproduct(c_z3):
    rng = np.random.default_rng(3)
    junk = rng.standard_normal((3, 3, 3))
    broken = dataclasses.replace(c_z3, comult=junk, haar=None)
    with pytest.raises((NoHaarState, NonUniqueHaar)):
        hopf.compute_haar(broken)


def test_compute_haar_detects_nonunique(c_z2):
    # the trivial coaction coproduct x -> 1 (x) x makes every functional
    # invariant, so the solution space is two dimensional
    trivial = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        trivial[i, :, i] = c_z2.unit
    broken = dataclasses.replace(c_z2, comult=trivial, haar=None)
    with pytest.raises(NonUniqueHaar):
        hopf.compute_haar(broken)


def test_haar_permutation_invariance(c_s3):
    rng = np.random.default_rng(11)
    perm = rng.permutation(6)
    inv = np.argsort(perm)
    moved = hopf.FiniteQuantumGroup(
        dim=6,
        mult=c_s3.mult[np.ix_(inv, inv, inv)],
        unit=c_s3.unit[inv],
        comult=c_s3.comult[np.ix_(inv, inv, inv)],
        counit=c_s3.counit[inv],
        antipode=c_s3.antipode[np.ix_(inv, inv)],
        star=c_s3.star[np.ix_(inv, inv)])
    h = hopf.compute_haar(moved)
    assert np.max(np.abs(h - c_s3.haar[inv])) < 1e-12


def test_gns_gram_oracles(c_z2, cg_s3):
    assert np.allclose(hopf.gns(c_z2).gram, np.diag([0.5, 0.5]))
    assert np.allclose(hopf.gns(cg_s3).gram, np.eye(6))


@pytest.mark.parametrize("name", ALL)
def test_gns_unit_represents_to_identity(name):
    g = catalog.builtin(name)
    space = hopf.gns(g)
    assert np.allclose(space.represent(g.unit), np.eye(g.dim))


@pytest.mark.parametrize("name", ALL)
def test_gns_left_regular_compatibility(name):
    g = catalog.builtin(name)
    space = hopf.gns(g)
    eye = np.eye(g.dim)
    for i in range(g.dim):
        for a in range(g.dim):
            lhs = space.left_mult[i] @ space.embed(eye[a])
            rhs = space.embed(g.multiply(eye[i], eye[a]))
            assert np.linalg.norm(lhs - rhs) < 1e-12


def test_gns_inner_product_matches_state(c_s3):
    space = hopf.gns(c_s3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = np.vdot(space.embed(a), space.embed(b))
        rhs = c_s3.haar_of(c_s3.multiply(c_s3.adjoint(a), b))
        assert abs(lhs - rhs) < 1e-12


def test_gns_rejects_indefinite_state(c_z2):
    fake = dataclasses.replace(c_z2, haar=np.array([1.5, -0.5]))
    with pytest.raises(NotPositive):
        hopf.gns(fake)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hopf.FiniteQuantumGroup(
            dim=2, mult=np.zeros((2, 2, 3)), unit=np.ones(2),
            comult=np.zeros((2, 2, 2)), counit=np.ones(2),
            antipode=np.eye(2), star=np.eye(2))


@pytest.mark.parametrize("name", ALL)
def test_save_load_roundtrip(name):
    g = catalog.builtin(name)
    text = hopf.save(g)
    again = hopf.loads(text)
    assert hopf.save(again) == text
    assert hopf.group_hash(again) == hopf.group_hash(g)


def test_load_missing_field_names_it(c_z2):
    doc = json.loads(hopf.save(c_z2))
    del doc["comult"]
    with pytest.raises(ParseError, match="comult"):
        hopf.load_dict(doc)


def test_load_rejects_dim_zero(c_z2):
    doc = json.loads(hopf.save(c_z2))
    doc["dim"] = 0
    with pytest.raises(ParseError, match="dim"):
        hopf.load_dict(doc)


def test_load_reports_bad_entry_path(c_z2):
    doc = json.loads(hopf.save(c_z2))
    doc["mult"][0][1][0] = [0.0]
    with pytest.raises(ParseError, match=r"mult\[0\]\[1\]\[0\]"):
        hopf.load_dict(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field, index", [
    ("mult", (1, 0, 1)), ("comult", (1, 0, 1)), ("antipode", (2, 1)),
    ("haar", (3,)),
])
def test_load_rejects_non_finite_entry(c_s3, field, index, value):
    doc = json.loads(hopf.save(c_s3))
    entry = doc[field]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = [0.5, value]
    path = re.escape(field + "".join(f"[{i}]" for i in index))
    with pytest.raises(ParseError, match=path + ".*not finite"):
        hopf.load_dict(doc)
    with pytest.raises(ParseError, match=path + ".*not finite"):
        hopf.loads(json.dumps(doc))


def test_load_rejects_integer_beyond_float_range(c_s3):
    doc = json.loads(hopf.save(c_s3))
    doc["haar"][0] = [10**400, 0]
    with pytest.raises(ParseError, match=r"haar\[0\].*not finite"):
        hopf.load_dict(doc)


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        hopf.loads("not json at all {")


def test_group_hash_stable(c_s3):
    assert hopf.group_hash(c_s3).startswith("sha256:")
    reloaded = hopf.loads(hopf.save(c_s3))
    assert hopf.group_hash(reloaded) == hopf.group_hash(c_s3)


def test_arrays_are_frozen(c_z2):
    with pytest.raises(ValueError):
        c_z2.mult[0, 0, 0] = 5.0


def test_tensor_square_operations(c_s3):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # product against the unit tensor is the identity
    one = np.outer(c_s3.unit, c_s3.unit)
    assert np.allclose(c_s3.tensor_multiply(one, x), x)
    assert np.allclose(c_s3.tensor_multiply(x, one), x)


@pytest.mark.parametrize("name", ["c_s3", "cg_s3"])
def test_tensor_multiply_matches_single_contraction(name):
    g = catalog.builtin(name)
    rng = np.random.default_rng(4)
    x, y = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            for _ in range(2))
    reference = np.einsum("jk,ab,jap,kbq->pq", x, y, g.mult, g.mult)
    assert np.abs(g.tensor_multiply(x, y) - reference).max() < 1e-12


# ----------------------------------------------------------------------
# report encoding: the standard encoder's bytes, arrays as [re, im] pairs
# ----------------------------------------------------------------------

def _listify(obj):
    """Arrays as nested [re, im] lists, one Python float at a time."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return _listify(obj.reshape(1))[0]
        if obj.ndim == 1:
            return [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in obj]
        return [_listify(sub) for sub in obj]
    if isinstance(obj, dict):
        return {k: _listify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_listify(v) for v in obj]
    return obj


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, float("nan"),
                               float("inf"), float("-inf"), 1.0, -7.0, 2.0 ** 53])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(), st.integers(-10 ** 6, 10 ** 6).map(float))
SHAPES = array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5)
ARRAYS = (arrays(np.complex128, SHAPES, elements=st.builds(complex, FLOATS, FLOATS))
          | arrays(np.float64, SHAPES, elements=FLOATS))
TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\u00e9\u2028\U0001f642 ')) | st.text()
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
REPORTS = st.recursive(
    SCALARS | ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(REPORTS)
def test_report_json_is_the_standard_indented_encoding(report):
    assert hopf.report_json(report) == json.dumps(_listify(report), sort_keys=True,
                                                  indent=2)


@settings(max_examples=150, deadline=None)
@given(REPORTS)
def test_report_json_compact_is_the_standard_compact_encoding(report):
    assert hopf.report_json(report, indent=None) == json.dumps(
        _listify(report), sort_keys=True, separators=(",", ":"))


def _standard(report, indent):
    """Python's own encoding of report, indented or compact."""
    if indent is None:
        return json.dumps(_listify(report), sort_keys=True, separators=(",", ":"))
    return json.dumps(_listify(report), sort_keys=True, indent=indent)


# a few distinct entries, each repeated many times: NaN in either component
# (complex(nan, 0) and complex(0, nan) print differently), both zeros, both
# infinities, the least subnormal and 2**53
POOL_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -0.5, float("nan"), float("inf"),
                               float("-inf"), 5e-324, 2.0 ** 53])
REPEATED = st.lists(st.builds(complex, POOL_FLOATS, POOL_FLOATS),
                    min_size=1, max_size=4).flatmap(
    lambda pool: arrays(np.complex128, array_shapes(min_dims=0, max_dims=4, max_side=6),
                        elements=st.sampled_from(pool)))


@pytest.mark.parametrize("indent", ["  ", None])
@settings(max_examples=150, deadline=None)
@given(arr=REPEATED, depth=st.integers(0, 3))
def test_report_json_of_arrays_with_repeated_entries(indent, arr, depth):
    report = arr
    for _ in range(depth):   # the array written deeper inside the report
        report = {"k": [report]}
    assert hopf.report_json(report, indent=indent) == _standard(report, indent)


@pytest.mark.parametrize("indent", ["  ", None])
@pytest.mark.parametrize("arr", [
    np.array(-0.0 - 0.0j), np.array(complex(float("nan"), -0.0)), np.array(2.0),
    np.array([5e-324]), np.array([[complex(-0.0, float("-inf"))]]),
    np.array([[[2.0 ** 53 + 1j]]]),
], ids=["0d-zeros", "0d-nan", "0d-real", "1", "1x1", "1x1x1"])
def test_report_json_of_zero_dim_and_one_entry_arrays(indent, arr):
    for report in (arr, {"k": [arr]}):
        assert hopf.report_json(report, indent=indent) == _standard(report, indent)


def test_report_json_keeps_the_nan_component_of_each_entry():
    nan = float("nan")
    arr = np.array([complex(0.0, nan), complex(nan, 0.0), complex(0.0, nan)])
    assert hopf.report_json(arr, indent=None) == "[[0.0,NaN],[NaN,0.0],[0.0,NaN]]"


def test_report_json_of_a_zero_dim_array_is_one_pair():
    assert hopf.report_json(np.array(-0.0 + 0.5j)) == "[\n  0.0,\n  0.5\n]"
    assert hopf.report_json(np.array(-0.0 + 0.5j), indent=None) == "[0.0,0.5]"


@pytest.mark.parametrize("indent", ["  ", None])
def test_report_json_of_array_free_reports_with_numpy_scalars(indent):
    # np.float64 is a float: one call writes it as the float it equals
    report = {"checks": [{"name": "unit", "residual": np.float64(2.5e-17),
                          "passed": True}], "tol": np.float64(1e-12), "x": -0.0}
    plain = {"checks": [{"name": "unit", "residual": 2.5e-17, "passed": True}],
             "tol": 1e-12, "x": -0.0}
    assert hopf.report_json(report, indent=indent) == _standard(plain, indent)
    # a 0-d array in an otherwise array-free report: the walk, same bytes
    report["checks"][0]["value"] = np.array(-0.0 + 0.5j)
    assert hopf.report_json(report, indent=indent) == _standard(report, indent)


@pytest.mark.parametrize("leaf", [np.bool_(True), np.int64(3)])
def test_report_json_rejects_what_json_rejects(leaf):
    for report in (leaf, {"a": [leaf]}, {"a": [leaf], "b": np.array([1j])}):
        with pytest.raises(TypeError):
            json.dumps(_listify(report))
        with pytest.raises(TypeError):
            hopf.report_json(report)


@pytest.mark.parametrize("indent", ["  ", None])
@pytest.mark.parametrize("shape", [(12, 12, 12), (144, 144)])
def test_report_json_of_arrays_with_mostly_distinct_entries(indent, shape):
    rng = np.random.default_rng(len(shape))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr.reshape(-1)[::7] = arr.reshape(-1)[1]      # a few repeated entries
    arr.reshape(-1)[::11] = complex(arr.reshape(-1)[2].real, 0.5)   # a repeated re
    for report in (arr, {"w": arr, "residuals": {"a": 1e-16}}):
        assert hopf.report_json(report, indent=indent) == _standard(report, indent)


@pytest.mark.parametrize("name", ALL + ["kp"])
def test_save_is_the_compact_report_of_the_group_document(name):
    group = named_group(name)
    expected = json.dumps(_listify(hopf.group_doc(group)), sort_keys=True,
                          separators=(",", ":"))
    assert hopf.save(group) == expected
    assert "\n" not in hopf.save(group)


# ----------------------------------------------------------------------
# bulk decoding agrees with the walker, which still names bad paths
# ----------------------------------------------------------------------

FIELDS = ("mult", "unit", "comult", "counit", "antipode", "star", "haar")


@pytest.mark.parametrize("name", ALL + ["kp"])
def test_load_dict_matches_the_walker_bit_for_bit(name):
    group = named_group(name)
    doc = json.loads(hopf.save(group))
    loaded = hopf.load_dict(doc)
    for field in FIELDS:
        shape = getattr(group, field).shape
        walked = hopf._tensor_at(doc[field], shape, field)
        assert getattr(loaded, field).tobytes() == walked.tobytes(), field


@pytest.mark.parametrize("leaf", [
    "1.0", [0.0], [1, 2, 3], None, {},
    # pairs of the right shape that np.array would not read as numbers
    ["1.0", "0.0"], [None, 0.0],
])
def test_load_names_the_malformed_leaf(c_s3, leaf):
    doc = json.loads(hopf.save(c_s3))
    doc["mult"][0][1][0] = leaf
    with pytest.raises(ParseError, match=r"^mult\[0\]\[1\]\[0\]: expected \[re, im\] pair$"):
        hopf.load_dict(doc)


def test_load_names_a_ragged_middle_row(c_s3):
    doc = json.loads(hopf.save(c_s3))
    doc["comult"][2][3] = doc["comult"][2][3][:-1]
    with pytest.raises(ParseError,
                       match=r"^comult\[2\]\[3\]: expected a list of length 6$"):
        hopf.load_dict(doc)


# a JSON boolean is not a number: np.array would read [true, false] as
# 1+0j, and a boolean among floats as a float, so both are rejected

def test_load_rejects_bool_leaves(c_z2):
    doc = json.loads(hopf.save(c_z2))
    doc["unit"] = [[True, False], [True, False]]
    with pytest.raises(ParseError, match=r"^unit\[0\]: expected \[re, im\] pair$"):
        hopf.load_dict(doc)


@pytest.mark.parametrize("leaf", [[True, 0.0], [0.0, False], [1, True]])
def test_load_rejects_a_bool_among_numbers(c_s3, leaf):
    doc = json.loads(hopf.save(c_s3))
    doc["comult"][0][0][0] = leaf
    with pytest.raises(ParseError, match=r"^comult\[0\]\[0\]\[0\]: expected \[re, im\] pair$"):
        hopf.load_dict(doc)
    with pytest.raises(ParseError, match=r"^comult\[0\]\[0\]\[0\]: expected"):
        hopf.loads(json.dumps(doc))


def test_walker_rejects_bool_leaves():
    # the walker alone, as a field the bulk decode cannot read reaches it
    with pytest.raises(ParseError, match=r"^x\[1\]: expected \[re, im\] pair$"):
        hopf._tensor_at([[0.0, 0.0], [False, 0.0]], (2,), "x")
    doc = [[0.0, 0.0], [True, 1.0], "junk"]
    with pytest.raises(ParseError, match=r"^x\[1\]: expected \[re, im\] pair$"):
        hopf._tensor(doc, (3,), "x")
