"""Finite quantum groups given by dense structure-constant tensors.

A finite quantum group is a finite-dimensional Hopf *-algebra whose
underlying algebra is a C*-algebra carrying a faithful two-sided invariant
state.  Everything is stored relative to a fixed linear basis
e_0, ..., e_{n-1}:

    mult[i, j, k]     e_i e_j = sum_k mult[i, j, k] e_k
    unit[i]           coefficients of the algebra unit
    comult[i, j, k]   coproduct(e_i) = sum_{j,k} comult[i, j, k] e_j (x) e_k
    counit[i]         counit applied to e_i
    antipode[:, i]    coefficients of antipode(e_i); acts as a matrix on
                      coefficient columns
    star[:, i]        coefficients of (e_i)*; the involution of an element x
                      is star @ conj(x)
    haar[i]           invariant state evaluated on e_i (may be absent)

Algebra elements are complex coefficient vectors, functionals complex
covectors, and an element of the tensor square A (x) A is an (n, n) matrix
whose [j, k] entry multiplies e_j (x) e_k.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    NoHaarState,
    NonUniqueHaar,
    NotAGroup,
    NotPositive,
    ParseError,
)
from .linalg import dagger, frob, hermitize, min_eigval, nullspace

AXIOM_TOL = 1e-12
DERIVED_TOL = 1e-9
# The gap bound GAP * tol: a derived residual up to it still counts as zero,
# and two coideal projections within it (Frobenius) are one.  Projections of
# different rank lie at least 1 apart, so a tolerance stays below 1 / GAP.
GAP = 100

# The six structure tensors, in the order a load checks them: name -> rank;
# each has shape (dim,) * rank.
TENSORS = {"mult": 3, "unit": 1, "comult": 3, "counit": 1, "antipode": 2, "star": 2}


@dataclasses.dataclass(frozen=True, eq=False)
class FiniteQuantumGroup:
    """Immutable structure-constant description of a finite quantum group."""

    dim: int
    mult: np.ndarray
    unit: np.ndarray
    comult: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    star: np.ndarray
    haar: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = int(self.dim)
        if n < 1:
            raise DimensionMismatch(f"dim must be positive, got {n}")
        object.__setattr__(self, "dim", n)
        for name, rank in TENSORS.items():
            shape = (n,) * rank
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != shape:
                raise DimensionMismatch(
                    f"{name}: expected shape {shape}, got {arr.shape}")
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.haar is not None:
            h = np.asarray(self.haar, dtype=complex)
            if h.shape != (n,):
                raise DimensionMismatch(f"haar: expected shape ({n},), got {h.shape}")
            h = np.ascontiguousarray(h)
            h.setflags(write=False)
            object.__setattr__(self, "haar", h)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != n:
                raise DimensionMismatch("labels: wrong length")
            object.__setattr__(self, "labels", labels)

    # ------------------------------------------------------------------
    # algebra operations on coefficient vectors
    # ------------------------------------------------------------------
    def multiply(self, a, b) -> np.ndarray:
        """The product a b, or the product of each pair of rows of two stacks."""
        return np.einsum("...i,...j,ijk->...k", np.asarray(a, complex),
                         np.asarray(b, complex), self.mult)

    def adjoint(self, a) -> np.ndarray:
        """The *-involution."""
        return self.star @ np.conj(np.asarray(a, complex))

    def coproduct(self, a) -> np.ndarray:
        return np.einsum("i,ijk->jk", np.asarray(a, complex), self.comult)

    def antipode_of(self, a) -> np.ndarray:
        return self.antipode @ np.asarray(a, complex)

    def haar_of(self, a) -> complex:
        if self.haar is None:
            raise NoHaarState("group carries no invariant state; "
                              "call compute_haar/with_haar first")
        return complex(np.dot(self.haar, np.asarray(a, complex)))

    # tensor-square helpers; X, Y are (n, n) coefficient matrices
    def tensor_multiply(self, x, y) -> np.ndarray:
        # pairwise: x with the first leg's mult, then y, then the second mult
        xm = np.tensordot(np.asarray(x, complex), self.mult, axes=([0], [0]))
        xym = np.tensordot(xm, np.asarray(y, complex), axes=([1], [0]))
        return np.tensordot(xym, self.mult, axes=([0, 2], [0, 1]))


# ----------------------------------------------------------------------
# cached derived tensors
# ----------------------------------------------------------------------

@lru_cache(maxsize=128)
def star_mult_tensor(group: FiniteQuantumGroup) -> np.ndarray:
    """sm[i, j, k] so that (e_i)* e_j = sum_k sm[i, j, k] e_k."""
    return np.einsum("ai,ajk->ijk", group.star, group.mult)


def sesquilinear_matrix(group: FiniteQuantumGroup, phi) -> np.ndarray:
    """The matrix [phi((e_i)* e_j)] of a functional phi, or of each of a stack."""
    return np.einsum("ijk,...k->...ij", star_mult_tensor(group),
                     np.asarray(phi, complex))


@lru_cache(maxsize=128)
def group_hash(group: FiniteQuantumGroup) -> str:
    """Content hash of the canonical JSON serialization."""
    digest = hashlib.sha256(save(group).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

@dataclasses.dataclass
class AxiomCheck:
    name: str
    residual: float
    passed: bool


@dataclasses.dataclass
class ValidationReport:
    tol: float
    checks: list[AxiomCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = [f"{'axiom':<28}{'residual':>14}  ok"]
        for c in self.checks:
            lines.append(f"{c.name:<28}{c.residual:>14.3e}  {'yes' if c.passed else 'NO'}")
        verdict = "pass" if self.passed else f"FAIL ({', '.join(self.failing())})"
        lines.append(f"overall: {verdict} at tol {self.tol:g}")
        return "\n".join(lines)


def axiom_table(group: FiniteQuantumGroup) -> list[tuple[str, Callable[[], float]]]:
    """The defining axioms in report order: (name, residual function) pairs.

    The invariant-state axioms appear only when the group carries one.
    Residual functions are evaluated lazily, so a caller may run a subset.
    """
    n = group.dim
    m, d = group.mult, group.comult
    u, eps = group.unit, group.counit
    s, sig = group.antipode, group.star
    eye = np.eye(n)
    psi = group.haar

    def tracial():
        bil = np.einsum("ijk,k->ij", m, psi)
        return frob(bil - bil.T)

    def gram_positive():
        gram = sesquilinear_matrix(group, psi)
        herm = frob(gram - dagger(gram))
        return max(herm, -min(min_eigval(gram), 0.0))

    # each contraction below is a matmul on reshaped tensors
    m_rows, m_cols = m.reshape(n * n, n), m.reshape(n, n * n)
    d_rows, d_cols = d.reshape(n * n, n), d.reshape(n, n * n)
    m_swap = m.transpose(1, 0, 2).reshape(n, n * n)   # [j, (i, k)]
    d_swap = d.transpose(0, 2, 1).reshape(n * n, n)   # [(i, k), j]
    quad = lambda x: x.reshape(n, n, n, n)

    def comult_multiplicative():
        # Delta(e_i)Delta(e_j) = sum d[i,a,b] d[j,c,e] (e_a e_c) (x) (e_b e_e):
        # x[i,b,c,p] and y[j,c,b,q] as n^5 matmuls, then one n^6 over (b, c)
        x, y = quad(d_swap @ m_cols), quad(d_rows @ m_swap)
        rhs = (x.transpose(0, 3, 1, 2).reshape(n * n, n * n)
               @ y.transpose(2, 1, 0, 3).reshape(n * n, n * n))
        return frob(quad(m_rows @ d_cols) - quad(rhs).transpose(0, 2, 1, 3))

    table = [
        ("unit-law", lambda: max(frob(np.einsum("i,ijk->jk", u, m) - eye),
                                 frob(np.einsum("j,ijk->ik", u, m) - eye))),
        ("counit-law", lambda: max(frob(np.einsum("ijk,j->ik", d, eps) - eye),
                                   frob(np.einsum("ijk,k->ij", d, eps) - eye))),
    ]
    if psi is not None:
        table += [
            ("haar-normalized", lambda: abs(np.dot(psi, u) - 1.0)),
            ("haar-right-invariant",
             lambda: frob(np.einsum("ijk,k->ij", d, psi) - np.outer(psi, u))),
            ("haar-left-invariant",
             lambda: frob(np.einsum("ijk,j->ik", d, psi) - np.outer(psi, u))),
            ("kac-haar-antipode", lambda: frob(psi @ s - psi)),
            ("kac-haar-tracial", tracial),
        ]
    table += [
        ("star-involution", lambda: frob(sig @ np.conj(sig) - eye)),
        ("kac-antipode-involutive", lambda: frob(s @ s - eye)),
        ("kac-antipode-star", lambda: frob(s @ sig - sig @ np.conj(s))),
        ("antipode-axiom", lambda: max(
            frob((s @ d).reshape(n, n * n) @ m_rows - np.outer(eps, u)),
            frob((d @ s.T).reshape(n, n * n) @ m_rows - np.outer(eps, u)))),
        ("associativity", lambda: frob(quad(m_rows @ m_cols) - quad(
            m_rows @ m_swap).transpose(2, 0, 1, 3))),
        ("star-antimultiplicative",
         lambda: frob((np.conj(m_rows) @ sig.T).reshape(n, n, n)
                      - sig.T @ (sig.T @ m_swap).reshape(n, n, n))),
        ("coassociativity", lambda: frob(quad(d_swap @ d_cols).transpose(
            0, 2, 3, 1) - quad(d_rows @ d_cols))),
        ("comult-unital",
         lambda: frob(np.einsum("i,ijk->jk", u, d) - np.outer(u, u))),
        ("comult-star", lambda: frob((sig.T @ d_cols).reshape(n, n, n)
                                     - sig @ np.conj(d) @ sig.T)),
        ("comult-multiplicative", comult_multiplicative),
    ]
    if psi is not None:
        table.append(("gram-positive", gram_positive))
    return table


def validate(group: FiniteQuantumGroup, tol: float = AXIOM_TOL,
             fail_fast: bool = False) -> ValidationReport:
    """Check every defining axiom numerically and report residuals.

    With fail_fast=True the report stops at the first failing axiom,
    which keeps perturbation scans cheap.
    """
    checks: list[AxiomCheck] = []
    for name, residual in axiom_table(group):
        r = float(residual())
        checks.append(AxiomCheck(name, r, r < tol))
        if fail_fast and not checks[-1].passed:
            break
    return ValidationReport(tol=tol, checks=checks)


# ----------------------------------------------------------------------
# invariant state
# ----------------------------------------------------------------------

def compute_haar(group: FiniteQuantumGroup) -> np.ndarray:
    """Solve the invariance equations for the unique invariant state.

    The linear system encodes (id (x) h)(coproduct(x)) = h(x) 1 for every
    basis element, plus the normalization h(1) = 1.  The solution is checked
    to be invariant on the other side as well (finite quantum groups are
    unimodular; a one-sided solution signals bad input).
    """
    n = group.dim
    d, u = group.comult, group.unit
    system = d - np.einsum("ik,j->ijk", np.eye(n), u)
    kernel = nullspace(system.reshape(n * n, n), rel_tol=DERIVED_TOL)
    if kernel.shape[1] == 0:
        raise NoHaarState("the invariance equations have no solution")
    if kernel.shape[1] > 1:
        raise NonUniqueHaar(
            f"invariant functionals form a space of dimension {kernel.shape[1]}")
    h = kernel[:, 0]
    mass = complex(np.dot(h, u))
    if abs(mass) < DERIVED_TOL:
        raise NoHaarState("invariant functional kills the unit; not normalizable")
    h = h / mass
    left = frob(np.einsum("ijk,j->ik", d, h) - np.outer(h, u))
    if left >= DERIVED_TOL:
        raise NoHaarState(
            f"right-invariant solution is not left-invariant (residual {left:.2e})")
    return h


def with_haar(group: FiniteQuantumGroup) -> FiniteQuantumGroup:
    """Return the group itself, or a copy with the computed invariant state."""
    if group.haar is not None:
        return group
    return dataclasses.replace(group, haar=compute_haar(group))


# ----------------------------------------------------------------------
# GNS construction
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class GnsSpace:
    """L2 completion of the algebra in the invariant state.

    orthonormal_basis maps algebra coordinates to L2 coordinates; left_mult
    stacks the images of the basis elements under the left regular
    *-representation on L2.
    """

    group: FiniteQuantumGroup
    gram: np.ndarray
    orthonormal_basis: np.ndarray
    inverse_basis: np.ndarray
    left_mult: np.ndarray

    def embed(self, a) -> np.ndarray:
        return self.orthonormal_basis @ np.asarray(a, complex)

    def represent(self, x) -> np.ndarray:
        """The operator on L2 of an element, or of each of a stack."""
        return np.einsum("...i,iab->...ab", np.asarray(x, complex), self.left_mult)

    def on_l2(self, matrix) -> np.ndarray:
        """The operator on L2 of a linear map on algebra coordinates."""
        return self.orthonormal_basis @ matrix @ self.inverse_basis


@lru_cache(maxsize=64)
def gns(group: FiniteQuantumGroup) -> GnsSpace:
    """Orthonormalize the invariant inner product and represent the algebra.

    Uses a Hermitian eigendecomposition of the Gram matrix so that a
    near-singular inner product produces an informative error instead of a
    Cholesky failure.
    """
    group = with_haar(group)
    gram = hermitize(sesquilinear_matrix(group, group.haar))
    evals, vecs = np.linalg.eigh(gram)
    if evals[0] < -DERIVED_TOL:
        raise NotPositive(
            f"gram matrix has negative eigenvalue {evals[0]:.3e}; "
            "the invariant functional is not a state")
    if evals[0] <= DERIVED_TOL:
        raise NotPositive(
            f"gram matrix is numerically singular (min eigenvalue {evals[0]:.3e}); "
            "the invariant state is not faithful")
    roots = np.sqrt(evals)
    to_l2 = roots[:, None] * dagger(vecs)
    from_l2 = vecs * (1.0 / roots)[None, :]
    left_alg = group.mult.transpose(0, 2, 1)
    left_l2 = to_l2 @ left_alg @ from_l2
    return GnsSpace(group=group, gram=gram, orthonormal_basis=to_l2,
                    inverse_basis=from_l2, left_mult=left_l2)


# ----------------------------------------------------------------------
# classical constructions
# ----------------------------------------------------------------------

def _check_group_table(table) -> tuple[int, int, list[int]]:
    """Validate a multiplication table; return (order, identity, inverses)."""
    rows = [list(map(int, row)) for row in table]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise NotAGroup("table is not square")
    if any(x < 0 or x >= n for r in rows for x in r):
        raise NotAGroup("table entries out of range")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    raise NotAGroup(f"not associative at ({i}, {j}, {k})")
    identity = None
    for e in range(n):
        if all(rows[e][j] == j and rows[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inverses = []
    for g in range(n):
        inv = [h for h in range(n) if rows[g][h] == identity]
        if len(inv) != 1:
            raise NotAGroup(f"element {g} has no unique inverse")
        inverses.append(inv[0])
    return n, identity, inverses


def function_algebra(table, labels=None) -> FiniteQuantumGroup:
    """The commutative algebra of functions on a finite group.

    Indicator basis, pointwise product, coproduct dual to group
    multiplication, uniform invariant state.
    """
    n, identity, inverses = _check_group_table(table)
    rows = np.asarray(table, dtype=int)
    mult = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        mult[i, i, i] = 1.0
    comult = np.zeros((n, n, n), dtype=complex)
    for s in range(n):
        for t in range(n):
            comult[rows[s, t], s, t] = 1.0
    counit = np.zeros(n, dtype=complex)
    counit[identity] = 1.0
    antipode = np.zeros((n, n), dtype=complex)
    for g in range(n):
        antipode[inverses[g], g] = 1.0
    star = np.eye(n, dtype=complex)
    haar = np.full(n, 1.0 / n, dtype=complex)
    if labels is None:
        labels = [str(i) for i in range(n)]
    return FiniteQuantumGroup(
        dim=n, mult=mult, unit=np.ones(n, dtype=complex), comult=comult,
        counit=counit, antipode=antipode, star=star, haar=haar,
        labels=tuple(f"delta_{x}" for x in labels))


def group_algebra(table, labels=None) -> FiniteQuantumGroup:
    """The group algebra of a finite group.

    Group-like basis, convolution product, point mass at the identity as
    the invariant state.
    """
    n, identity, inverses = _check_group_table(table)
    rows = np.asarray(table, dtype=int)
    mult = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        for h in range(n):
            mult[g, h, rows[g, h]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[identity] = 1.0
    comult = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        comult[g, g, g] = 1.0
    counit = np.ones(n, dtype=complex)
    antipode = np.zeros((n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for g in range(n):
        antipode[inverses[g], g] = 1.0
        star[inverses[g], g] = 1.0
    haar = np.zeros(n, dtype=complex)
    haar[identity] = 1.0
    if labels is None:
        labels = [str(i) for i in range(n)]
    return FiniteQuantumGroup(
        dim=n, mult=mult, unit=unit, comult=comult, counit=counit,
        antipode=antipode, star=star, haar=haar,
        labels=tuple(f"lam_{x}" for x in labels))


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------

def _pairs_json(arr: np.ndarray, indent: str | None, level: int) -> str:
    """The JSON of arr's nested [re, im] pairs, written at nesting level.

    Negative zeros become 0.0.  One C-encoder call renders each distinct
    float once (every NaN prints alike), a search finds each float's text,
    and one join lays out the array, each float followed by its separator.
    """
    floats = (np.asarray(arr, complex) + 0.0).ravel().view(float)  # re, im, re, ...
    # np.sort, not np.unique: np.unique imports numpy.ma, 1.3 MB of peak RSS
    ordered = np.sort(floats)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    texts = json.dumps(distinct.tolist())[1:-1].split(", ")
    texts = np.array(texts, object)[np.searchsorted(distinct, floats)].tolist()
    newline, indent = ("", "") if indent is None else ("\n", indent)
    # innermost axis first: one list's separators, repeated for each item
    seps, close, opens = [None], "", ""
    for depth, size in reversed(list(enumerate(np.shape(arr) + (2,)))):
        seps[-1] = close + "," + newline + indent * (level + depth + 1) + opens
        seps = seps * size
        close += newline + indent * (level + depth) + "]"
        opens = "[" + newline + indent * (level + depth + 1) + opens
    seps[-1] = close
    parts = [opens] * (2 * len(seps) + 1)
    parts[1::2], parts[2::2] = texts, seps
    return "".join(parts)


def report_json(obj, indent: str | None = "  ", level: int = 0) -> str:
    """JSON text of obj with sorted keys, indented or compact.

    The bytes are those of json.dumps(obj, sort_keys=True, indent=indent),
    written at nesting level, and with indent=None those of the compact
    json.dumps(obj, sort_keys=True, separators=(",", ":")): no newlines.
    Every ndarray (none of them empty) is written by _pairs_json as the
    nested [re, im] pairs of its entries.  Each dict and list is laid out
    by one join, not by concatenations that copy an array's text again.
    Keys must be str.
    """
    if isinstance(obj, np.ndarray):
        return _pairs_json(obj, indent, level)
    colon = ":" if indent is None else ": "
    if isinstance(obj, dict):
        items = [json.dumps(key) + colon + report_json(obj[key], indent, level + 1)
                 for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [report_json(x, indent, level + 1) for x in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    newline, indent = ("", "") if indent is None else ("\n", indent)
    inner = newline + indent * (level + 1)
    parts = [brackets[0] + inner] + [None, "," + inner] * len(items)
    parts[1::2], parts[-1] = items, newline + indent * level + brackets[1]
    return "".join(parts)


def _complex_at(obj, path: str) -> complex:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in obj)):
        raise ParseError(f"{path}: expected [re, im] pair")
    try:
        return complex(float(obj[0]), float(obj[1]))
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"{path}: entry is not finite") from None


def _tensor_at(obj, shape: tuple[int, ...], path: str) -> np.ndarray:
    if not shape:
        return _complex_at(obj, path)
    if not isinstance(obj, list) or len(obj) != shape[0]:
        raise ParseError(f"{path}: expected a list of length {shape[0]}")
    out = np.empty(shape, dtype=complex)
    for i, sub in enumerate(obj):
        out[i] = _tensor_at(sub, shape[1:], f"{path}[{i}]")
    return out


def _tensor(obj, shape: tuple[int, ...], path: str) -> np.ndarray:
    """A field's complex tensor from its nested [re, im] lists.

    One np.array call reads a well-formed field, whose leaves are all JSON
    numbers; anything else, a boolean leaf included, goes to the walker,
    which names the first bad path.  A NaN or infinite entry is bad input
    too, named by its index.
    """
    try:  # ValueError: ragged nesting; OverflowError: an int beyond float range
        pairs = np.array(obj, dtype=object)
        if (pairs.shape != shape + (2,)
                or not set(map(type, pairs.ravel().tolist())) <= {int, float}):
            raise ValueError(f"{path}: not an array of numbers")
        out = pairs.astype(float).view(complex)[..., 0]
    except (ValueError, OverflowError):
        out = _tensor_at(obj, shape, path)
    if not np.isfinite(out).all():
        first = np.argwhere(~np.isfinite(out))[0]
        index = "".join(f"[{i}]" for i in first)
        raise ParseError(f"{path}{index}: entry {out[tuple(first)]} is not finite")
    return out


def group_doc(group: FiniteQuantumGroup) -> dict:
    """The JSON document of a group, tensors kept as complex arrays."""
    doc = {"dim": group.dim, **{name: getattr(group, name) for name in TENSORS}}
    if group.haar is not None:
        doc["haar"] = group.haar
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    return doc


def save(group: FiniteQuantumGroup) -> str:
    """Canonical JSON text; stable bytes for hashing and round-trips.

    The compact form of report_json on the group's document: sorted keys,
    "," and ":" separators, no newlines.
    """
    return report_json(group_doc(group), indent=None)


def load_dict(doc: dict) -> FiniteQuantumGroup:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    if "dim" not in doc:
        raise ParseError("missing field: dim")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError("dim: must be a positive integer")
    n = dim
    data = {}
    for name, rank in TENSORS.items():
        if name not in doc:
            raise ParseError(f"missing field: {name}")
        data[name] = _tensor(doc[name], (n,) * rank, name)
    haar = None
    if "haar" in doc and doc["haar"] is not None:
        haar = _tensor(doc["haar"], (n,), "haar")
    labels = None
    if "labels" in doc and doc["labels"] is not None:
        if not isinstance(doc["labels"], list) or len(doc["labels"]) != n:
            raise ParseError(f"labels: expected a list of {n} strings")
        labels = tuple(str(x) for x in doc["labels"])
    return FiniteQuantumGroup(dim=n, haar=haar, labels=labels, **data)


def loads(text: str) -> FiniteQuantumGroup:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return load_dict(doc)


def load_path(path) -> FiniteQuantumGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
