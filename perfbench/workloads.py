"""Inputs and operations of the benchmark's workloads.

Every input group is built here and written as JSON; every operation is
one `qglab` command line, run in-process through `qglab.cli.main`.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys
import traceback
from typing import Callable

import numpy as np

from qglab import catalog, checks, cli, coideal, duality, harmonic, hopf, lattice

RESTARTS = 200
BUILTINS = ("c_z2", "c_z3", "c_z4", "c_s3", "cg_s3", "cg_z4")
DIHEDRAL_ORDERS = (4, 5, 6)          # D_4, D_5, D_6: dimensions 8, 10, 12
SWEEP_DIMS = tuple(2 * m for m in DIHEDRAL_ORDERS)


@dataclasses.dataclass(frozen=True)
class Group:
    name: str
    path: str
    family: str   # "function" (commutative), "group" (cocommutative) or "quantum"
    dim: int


@dataclasses.dataclass(frozen=True)
class Op:
    group: Group
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


# ----------------------------------------------------------------------
# running qglab as its command line does
# ----------------------------------------------------------------------

_CACHED = tuple(
    fn for module in (hopf, harmonic, coideal, lattice, duality, catalog, checks)
    for fn in vars(module).values() if hasattr(fn, "cache_clear"))


def fresh_process_caches() -> None:
    """Empty qglab's memo caches, as a new `qglab` process starts with them."""
    for fn in _CACHED:
        fn.cache_clear()


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `qglab` invocation."""
    fresh_process_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_op(op) -> tuple[int, str]:
    """Exit code and stdout; an exception escaping qglab counts as exit 3."""
    try:
        code, out, err = run_cli(op.argv)
    except Exception:  # noqa: BLE001 - reported, and the benchmark goes on
        code, out, err = 3, "", traceback.format_exc()
    if code != 0:
        sys.stderr.write(f"qglab {' '.join(op.argv)} exited {code}: {err.strip()}\n")
    return code, out


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

KLEIN = ((0, 0), (1, 0), (0, 1), (1, 1))


def kac_paljutkin() -> hopf.FiniteQuantumGroup:
    """The 8-dim Kac-Paljutkin-type algebra from its structure constants.

    Basis d_k (functions on the Klein group V) and d_k u, index 4*layer + k.
    Products: d_k d_l = [k=l] d_k, d_k (d_l u) = [k=l] d_k u,
    (d_k u) d_l = [k=swap l] d_k u, (d_k u)(d_l u) = [k=swap l] d_k.
    Coproducts: d_k -> sum_l d_l (x) d_{k+l} and
    d_k u -> sum_l tau(l, k+l) d_l u (x) d_{k+l} u with the fourth-root
    cocycle tau.  The antipode is solved as the convolution inverse of the
    identity; the Haar state is 1/4 on each d_k and 0 on the u layer.
    """
    n = 8
    idx = {k: i for i, k in enumerate(KLEIN)}
    swap = {k: (k[1], k[0]) for k in KLEIN}
    add = {(k, l): ((k[0] + l[0]) % 2, (k[1] + l[1]) % 2) for k in KLEIN for l in KLEIN}
    tau = np.ones((4, 4), dtype=complex)
    for (a, b), v in {(1, 2): 1j, (1, 3): -1j, (2, 1): -1j,
                      (2, 3): 1j, (3, 1): 1j, (3, 2): -1j}.items():
        tau[a, b] = v

    mult = np.zeros((n, n, n), dtype=complex)
    comult = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for k in KLEIN:
        i = idx[k]
        mult[i, i, i] = mult[i, 4 + i, 4 + i] = 1
        j = idx[swap[k]]
        mult[4 + i, j, 4 + i] = mult[4 + i, 4 + j, i] = 1
        for l in KLEIN:
            r = idx[add[k, l]]
            comult[i, idx[l], r] = 1
            comult[4 + i, 4 + idx[l], 4 + r] = tau[idx[l], r]
        star[i, i] = 1
        star[4 + j, 4 + i] = 1
    unit = np.r_[np.ones(4), np.zeros(4)].astype(complex)
    counit = np.zeros(n, dtype=complex)
    counit[0] = counit[4] = 1
    haar = np.r_[np.full(4, 0.25), np.zeros(4)].astype(complex)

    # m (S (x) id) coproduct = unit counit, linear in the entries S[p, q]
    system = np.einsum("iqr,prk->ikpq", comult, mult).reshape(n * n, n * n)
    rhs = np.outer(counit, unit).reshape(-1)
    antipode = np.linalg.lstsq(system, rhs, rcond=None)[0].reshape(n, n)
    return hopf.FiniteQuantumGroup(
        dim=n, mult=mult, unit=unit, comult=comult, counit=counit,
        antipode=antipode, star=star, haar=haar,
        labels=tuple(f"d{i}u{layer}" for layer in (0, 1) for i in range(4)))


def dihedral_table(m: int) -> tuple[list[list[int]], list[str]]:
    """D_m of order 2m; index e*m + k is r^k s^e, and s r = r^-1 s."""
    def index(k, e):
        return e * m + k % m
    elems = [(k, e) for e in (0, 1) for k in range(m)]
    table = [[index(a + (b if e == 0 else -b), e ^ f) for b, f in elems]
             for a, e in elems]
    labels = [f"r{k}" + ("s" if e else "") for k, e in elems]
    return table, labels


def _write(group: hopf.FiniteQuantumGroup, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hopf.save(group) + "\n")


def build_kp8(workdir: str) -> list[Group]:
    group = kac_paljutkin()
    report = hopf.validate(group)
    if not report.passed:
        raise RuntimeError(f"Kac-Paljutkin tensors fail {report.failing()}")
    path = os.path.join(workdir, "kp8.json")
    _write(group, path)
    return [Group("kp8", path, "quantum", 8)]


def build_builtins(workdir: str) -> list[Group]:
    groups = []
    for name in BUILTINS:
        path = os.path.join(workdir, f"{name}.json")
        code, _, err = run_cli(["examples", name, "--out", path])
        if code != 0:
            raise RuntimeError(f"qglab examples {name}: {err.strip()}")
        family = "function" if name.startswith("c_") else "group"
        groups.append(Group(name, path, family, catalog.builtin(name).dim))
    return groups


def build_dihedral(workdir: str) -> list[Group]:
    groups = []
    for m in DIHEDRAL_ORDERS:
        table, labels = dihedral_table(m)
        for prefix, family, ctor in (("c", "function", hopf.function_algebra),
                                     ("cg", "group", hopf.group_algebra)):
            name = f"{prefix}_d{m}"
            path = os.path.join(workdir, f"{name}.json")
            _write(ctor(table, labels), path)
            groups.append(Group(name, path, family, 2 * m))
    return groups


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def check_ops(groups, seed) -> list[Op]:
    return [Op(g, ("check", "--format", "json", "--seed", str(seed),
                   "--restarts", str(RESTARTS), g.path))
            for g in groups]


def sweep_ops(groups, seed) -> list[Op]:
    ops = []
    for g in groups:
        ops.append(Op(g, ("validate", "--format", "json", g.path)))
        ops.append(Op(g, ("dual", "--format", "json", g.path)))
    return ops


def states_op(group: Group, seed: int) -> Op:
    """`qglab idempotents` with the settings `qglab check` uses."""
    return Op(group, ("idempotents", "--format", "json", "--seed", str(seed),
                      "--restarts", str(RESTARTS), group.path))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[str], list[Group]]
    ops: Callable[[list[Group], int], list[Op]]
    checks_states: bool   # runs `qglab check`: states are checked, lattice layers traced


WORKLOADS = {
    "kp8-check": Workload("kp8-check", build_kp8, check_ops, True),
    "builtins-check": Workload("builtins-check", build_builtins, check_ops, True),
    "dual-sweep": Workload("dual-sweep", build_dihedral, sweep_ops, False),
}
