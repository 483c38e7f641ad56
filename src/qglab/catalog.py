"""Built-in example quantum groups and their classical subgroup data.

The six built-ins are the function algebras and group algebras of small
finite groups.  Their subgroup lattices double as independent oracles for
the idempotent-state machinery: on a function algebra the idempotent states
are uniform measures on subgroups, on a group algebra they are subgroup
indicator functionals.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import hopf
from .harmonic import Functional

BUILTIN_NAMES = ("c_z2", "c_z3", "c_z4", "c_s3", "cg_s3", "cg_z4")


# ----------------------------------------------------------------------
# underlying finite groups
# ----------------------------------------------------------------------

def cyclic_table(k: int) -> tuple[list[list[int]], list[str]]:
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return table, [str(i) for i in range(k)]


def _perm_label(p: tuple[int, ...]) -> str:
    """Cycle notation on the letters 1..len(p)."""
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        cycles.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def s3_table() -> tuple[list[list[int]], list[str]]:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[x]] for x in range(3))
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return table, [_perm_label(p) for p in perms]


@lru_cache(maxsize=None)
def group_table(short: str) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    if short.startswith("z"):
        table, labels = cyclic_table(int(short[1:]))
    elif short == "s3":
        table, labels = s3_table()
    else:
        raise KeyError(f"unknown group {short!r}")
    return tuple(tuple(r) for r in table), tuple(labels)


# ----------------------------------------------------------------------
# built-in quantum groups
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def builtin(name: str) -> hopf.FiniteQuantumGroup:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown built-in {name!r}; choose from {BUILTIN_NAMES}")
    kind, short = name.split("_", 1)
    table, labels = group_table(short)
    if kind == "c":
        return hopf.function_algebra(table, labels)
    return hopf.group_algebra(table, labels)


def recognize(group: hopf.FiniteQuantumGroup) -> str | None:
    """Name of the built-in with the same structure tensors, if any."""
    for name in BUILTIN_NAMES:
        b = builtin(name)
        if all(np.array_equal(getattr(b, t), getattr(group, t))
               for t in hopf.TENSORS):
            return name
    return None


# ----------------------------------------------------------------------
# subgroup machinery (brute force on the multiplication table)
# ----------------------------------------------------------------------

def subgroup_closure(table, generators) -> frozenset[int]:
    n = len(table)
    identity = next(e for e in range(n)
                    if all(table[e][j] == j for j in range(n)))
    current = set(generators) | {identity}
    while True:
        nxt = {table[a][b] for a in current for b in current}
        if nxt <= current:
            return frozenset(current)
        current |= nxt


def subgroups(table) -> list[frozenset[int]]:
    """All subgroups: the cyclic ones, closed under generating pairs.

    Every subgroup is generated by its cyclic subgroups, so closing the
    cyclic subgroups under the subgroup any two of them generate reaches
    every subgroup, whatever the number of generators it needs.
    """
    found = {subgroup_closure(table, (g,)) for g in range(len(table))}
    fresh = set(found)
    while fresh:
        new = {subgroup_closure(table, tuple(h | k))
               for h in fresh for k in found} - found
        found |= new
        fresh = new
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def subgroup_label(subset, labels) -> str:
    return "{" + ",".join(labels[i] for i in sorted(subset)) + "}"


def is_normal(table, subset) -> bool:
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][j] == j for j in range(n)))
    inverse = [next(h for h in range(n) if table[g][h] == identity) for g in range(n)]
    return all(table[table[g][h]][inverse[g]] in subset
               for g in range(n) for h in subset)


def subgroup_lattice_oracle(name: str):
    """Subgroups with containment order and intersection/generation tables."""
    _, short = name.split("_", 1)
    table, labels = group_table(short)
    subs = subgroups(table)
    index = {s: i for i, s in enumerate(subs)}
    k = len(subs)
    order = np.zeros((k, k), dtype=bool)
    meet = np.zeros((k, k), dtype=int)
    join = np.zeros((k, k), dtype=int)
    for i, hi in enumerate(subs):
        for j, hj in enumerate(subs):
            order[i, j] = hi <= hj
            meet[i, j] = index[subgroup_closure(table, tuple(hi & hj))]
            join[i, j] = index[subgroup_closure(table, tuple(hi | hj))]
    return subs, order, meet, join


# ----------------------------------------------------------------------
# canonical idempotent states of the built-ins
# ----------------------------------------------------------------------

def _subgroup_coeffs(kind: str, dim: int, subset) -> np.ndarray:
    """H's state, read-only: 1/|H| on H on C(G) (kind "c"), 1 on H on C*(G)."""
    coeffs = np.zeros(dim, dtype=complex)
    coeffs[sorted(subset)] = 1.0 / len(subset) if kind == "c" else 1.0
    coeffs.setflags(write=False)
    return coeffs


def uniform_measure_functional(group, subset, name=None) -> Functional:
    """Uniform probability measure on a subgroup, on a function algebra."""
    return Functional(home=group, coeffs=_subgroup_coeffs("c", group.dim, subset), name=name)


def indicator_functional(group, subset, name=None) -> Functional:
    """Subgroup indicator functional on a group algebra."""
    return Functional(home=group, coeffs=_subgroup_coeffs("cg", group.dim, subset), name=name)


@lru_cache(maxsize=None)
def subgroup_states(name: str) -> MappingProxyType:
    """Each subgroup of a built-in's group with its idempotent state.

    In the order of subgroups(), each subgroup H maps to (state name,
    coefficients): the uniform measure "unif{...}" on a function algebra,
    the indicator "ind{...}" on a group algebra.
    """
    kind, short = name.split("_", 1)
    table, labels = group_table(short)
    prefix = "unif" if kind == "c" else "ind"
    return MappingProxyType({
        sub: (prefix + subgroup_label(sub, labels), _subgroup_coeffs(kind, len(table), sub))
        for sub in subgroups(table)})


def catalog_functionals(group: hopf.FiniteQuantumGroup, name: str) -> list[Functional]:
    """The known idempotent states of a recognized built-in, one per subgroup.

    `group` may be any instance with the built-in's tensors (for example one
    loaded from a file); the returned functionals live on that instance.
    """
    return [Functional(home=group, coeffs=coeffs, name=tag)
            for tag, coeffs in subgroup_states(name).values()]


def subgroup_of_state(name: str, coeffs: np.ndarray) -> frozenset[int] | None:
    """Match a state's coefficient vector back to a subgroup, if it is one."""
    return next((sub for sub, (_, expected) in subgroup_states(name).items()
                 if np.max(np.abs(expected - coeffs)) < 1e-7), None)
