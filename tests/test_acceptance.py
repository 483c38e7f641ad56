"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
live; they also appear in captured output).
"""
import dataclasses
import time

import numpy as np

from qglab import catalog, checks, coideal, duality, harmonic, hopf, lattice
from qglab.linalg import dagger, frob, subspace_distance
from conftest import s3_subgroup

ALL = list(catalog.BUILTIN_NAMES)
DUAL_TRIPLE = ("c_s3", "cg_s3", "c_z4")

_state_cache: dict[str, list] = {}


def enumerated(name):
    if name not in _state_cache:
        _state_cache[name] = lattice.enumerate_idempotents(
            catalog.builtin(name), strategy="catalog").states
    return _state_cache[name]


def report(number, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} {label}{tail}"


def s3_state(labels):
    target = s3_subgroup(labels)
    for s in enumerated("c_s3"):
        if catalog.subgroup_of_state("c_s3", s.coeffs) == target:
            return s
    raise AssertionError(f"no state for subgroup {labels}")


def test_criterion_01_axioms_and_perturbations():
    start = time.perf_counter()
    ok = True
    for name in ALL:
        g = catalog.builtin(name)
        rep = hopf.validate(g, tol=1e-12)
        ok = ok and rep.passed and rep.max_residual < 1e-12
        for field in ("mult", "unit", "comult", "counit", "antipode",
                      "star", "haar"):
            base = getattr(g, field)
            flat = base.reshape(-1)
            for idx in range(flat.size):
                arr = base.copy()
                arr.reshape(-1)[idx] += 1e-3
                broken = dataclasses.replace(g, **{field: arr})
                bad = hopf.validate(broken, tol=1e-12, fail_fast=True)
                ok = ok and (not bad.passed) and bad.max_residual >= 1e-4
    elapsed = time.perf_counter() - start
    report(1, "axioms-and-perturbations", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_criterion_02_enumeration_vs_oracle():
    start = time.perf_counter()
    expected = {"c_z2": 2, "c_s3": 6, "cg_s3": 6}
    ok = True
    for name, count in expected.items():
        g = catalog.builtin(name)
        enum = lattice.enumerate_idempotents(g, strategy="generated")
        ok = ok and len(enum.states) == count and enum.report.coverage == "full"
        found = {catalog.subgroup_of_state(name, s.coeffs)
                 for s in enum.states}
        table, _ = catalog.group_table(name.split("_", 1)[1])
        ok = ok and found == set(catalog.subgroups(table))
    elapsed = time.perf_counter() - start
    report(2, "generated-enumeration-vs-subgroup-oracle",
           ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_03_lattice_isomorphism():
    subs, order, meet_idx, join_idx = catalog.subgroup_lattice_oracle("c_s3")
    lat = lattice.build_lattice(enumerated("c_s3"), tol=1e-9)
    position = [subs.index(catalog.subgroup_of_state("c_s3", s.coeffs))
                for s in lat.states]
    k = len(subs)
    ok = sorted(position) == list(range(k))
    for i in range(k):
        for j in range(k):
            ok = ok and lat.order[i, j] == order[position[i], position[j]]
            ok = ok and position[lat.meet_table[i, j]] == meet_idx[position[i],
                                                                   position[j]]
            ok = ok and position[lat.join_table[i, j]] == join_idx[position[i],
                                                                   position[j]]
    oracle_covers = {(i, j) for i in range(k) for j in range(k)
                     if i != j and order[i, j] and not any(
                         l not in (i, j) and order[i, l] and order[l, j]
                         for l in range(k))}
    got = {(position[i], position[j]) for i, j in lat.hasse_edges}
    ok = ok and got == oracle_covers
    report(3, "lattice-isomorphic-to-subgroup-lattice", ok)


def test_criterion_04_join_convergence_and_projections():
    a = s3_state({"e", "(12)"})
    b = s3_state({"e", "(13)"})
    joined, diag = lattice.join_with_diagnostics(a, b, tol=1e-9)
    g = catalog.builtin("c_s3")
    ok = joined.distance(harmonic.haar_functional(g)) < 1e-9
    ok = ok and diag.iterations <= 200
    ok = ok and diag.two_path_distance < 1e-8
    worst = 0.0
    for name in ALL:
        states = enumerated(name)
        for i, x in enumerate(states):
            for y in states[i:]:
                _, d = lattice.join_with_diagnostics(x, y, tol=1e-9)
                joined = lattice.join(x, y, tol=1e-9)
                worst = max(worst, frob(d.l2_limit - joined.l2_projection))
    ok = ok and worst < 1e-9
    report(4, "join-power-limit-and-projection-intersection", ok,
           f"worst intersection residual {worst:.1e}")


def test_criterion_05_support_reconstruction():
    worst = 0.0
    for name in ALL:
        g = catalog.builtin(name)
        for s in enumerated(name):
            rebuilt = harmonic.state_from_qperp(g, s.q_perp)
            worst = max(worst, rebuilt.distance(s.functional))
    report(5, "state-reconstruction-from-support", worst < 1e-9,
           f"worst {worst:.1e}")


def test_criterion_06_order_criteria_agreement():
    disagreements = 0
    pairs = 0
    for name in ALL:
        states = enumerated(name)
        for a in states:
            for b in states:
                pairs += 1
                try:
                    harmonic.preceq(a, b, tol=1e-9)
                except Exception:
                    disagreements += 1
    report(6, "order-criteria-agreement", disagreements == 0,
           f"{pairs} ordered pairs")


def test_criterion_07_support_structure():
    worst = 0.0
    for name in ALL:
        g = catalog.builtin(name)
        space = hopf.gns(g)
        for s in enumerated(name):
            q = s.q_perp
            # membership criterion: the kernel of the compression identity
            # is exactly the coideal
            from qglab.linalg import nullspace, orthonormal_columns

            cols = []
            eye = np.eye(g.dim)
            one_q = np.outer(g.unit, q)
            for i in range(g.dim):
                lhs = g.tensor_multiply(g.coproduct(eye[i]), one_q)
                cols.append((lhs - np.outer(eye[i], q)).reshape(-1))
            kernel = orthonormal_columns(
                space.orthonormal_basis @ nullspace(np.column_stack(cols)))
            worst = max(worst, subspace_distance(kernel, s.coideal.gns_basis()))
            # annihilation of the complement
            qc = g.unit - q
            worst = max(worst, frob(g.tensor_multiply(
                g.coproduct(qc), np.outer(q, q))))
            # antipode invariance, group-likeness
            worst = max(worst, frob(g.antipode_of(qc) - qc))
            worst = max(worst, harmonic.group_like_defect(g, q))
            worst = max(worst, harmonic.projection_defect(g, q))
            # minimal and central in the coideal
            basis = s.coideal.basis
            compressed = []
            for i in range(basis.shape[1]):
                col = basis[:, i]
                worst = max(worst, frob(g.multiply(q, col) - g.multiply(col, q)))
                compressed.append(g.multiply(g.multiply(q, col), q))
            rank = orthonormal_columns(np.column_stack(compressed)).shape[1]
            worst = max(worst, 0.0 if rank == 1 else 1.0)
            worst = max(worst, 0.0 if s.coideal.contains(q, 1e-9) else 1.0)
    report(7, "support-projection-structure", worst < 1e-9,
           f"worst {worst:.1e}")


def test_criterion_08_duality():
    ok = True
    worst_pentagon = 0.0
    for name in ALL:
        reg = duality.regular_unitary(catalog.builtin(name))
        worst_pentagon = max(worst_pentagon,
                             duality.pentagon_defect(reg.w,
                                                     reg.group.dim))
    ok = ok and worst_pentagon < 1e-10
    worst_dd = worst_slice = worst_exchange = 0.0
    mismatches = 0
    for name in DUAL_TRIPLE:
        g = catalog.builtin(name)
        space = hopf.gns(g)
        pair = duality.dual(g)
        double = duality.dual(pair.dual_group)
        states = enumerated(name)
        for s in states:
            ds = duality.dual_state(s, pair)
            back = duality.dual_state(ds, double)
            worst_dd = max(worst_dd, float(np.max(np.abs(back.coeffs - s.coeffs))))
            sliced = space.represent(ds.coeffs)
            worst_slice = max(worst_slice,
                              frob(sliced - space.represent(s.q_perp)))
        for i, a in enumerate(states):
            for b in states[i:]:
                da, db = duality.dual_state(a, pair), duality.dual_state(b, pair)
                meet_dual = duality.dual_state(lattice.meet(a, b), pair)
                join_dual = duality.dual_state(lattice.join(a, b), pair)
                worst_exchange = max(
                    worst_exchange,
                    float(np.max(np.abs(meet_dual.coeffs - lattice.join(da, db).coeffs))),
                    float(np.max(np.abs(join_dual.coeffs - lattice.meet(da, db).coeffs))))
            for b in states:
                claimed = harmonic.preceq(a, b)
                via_q = frob(g.multiply(b.q_perp, a.q_perp) - a.q_perp) < 1e-9
                mismatches += int(claimed != via_q)
    ok = ok and worst_dd < 1e-8 and worst_slice < 1e-8
    ok = ok and worst_exchange < 1e-8 and mismatches == 0
    report(8, "duality-roundtrip-and-exchange", ok,
           f"pentagon {worst_pentagon:.1e}, double-dual {worst_dd:.1e}, "
           f"exchange {worst_exchange:.1e}")


def test_criterion_09_modular_law_instance():
    omega = s3_state({"e", "(23)", "(12)", "(123)", "(132)", "(13)"})
    mu = s3_state({"e", "(12)"})
    rho = s3_state({"e", "(123)", "(132)"})
    lat = lattice.build_lattice(enumerated("c_s3"), tol=1e-9)
    triple = tuple(next(i for i, s in enumerate(lat.states) if s is x)
                   for x in (omega, mu, rho))
    law = checks.modular_law(lat, tol=1e-9)
    ok = triple in law and law[triple] < 1e-9
    commuting = lattice.commutation_equivalences(rho, mu, tol=1e-9)
    ok = ok and commuting.commute
    crossing = lattice.commutation_equivalences(
        s3_state({"e", "(12)"}), s3_state({"e", "(13)"}), tol=1e-9)
    ok = ok and not crossing.commute
    report(9, "modular-law-and-commutation-instances", ok)


def test_criterion_10_haar_type_detection():
    ok = all(harmonic.haar_type_test(s) for s in enumerated("c_s3"))
    by_sub = {catalog.subgroup_of_state("cg_s3", s.coeffs): s
              for s in enumerated("cg_s3")}
    ok = ok and not harmonic.haar_type_test(by_sub[s3_subgroup({"e", "(12)"})])
    ok = ok and harmonic.haar_type_test(
        by_sub[s3_subgroup({"e", "(123)", "(132)"})])
    report(10, "haar-type-detection", ok)


def test_criterion_11_coideal_bijection_and_projection_identity():
    worst = 0.0
    for name in ALL:
        g = catalog.builtin(name)
        reg = duality.regular_unitary(g)
        eye = np.eye(g.dim)
        for s in enumerated(name):
            back = coideal.state_from_coideal(s.coideal, tol=1e-9)
            worst = max(worst, back.functional.distance(s.functional))
            p = s.l2_projection
            identity = (dagger(reg.w) @ np.kron(eye, p) @ reg.w
                        @ np.kron(p, eye) - np.kron(p, p))
            worst = max(worst, frob(identity))
    report(11, "coideal-bijection-and-projection-identity", worst < 1e-9,
           f"worst {worst:.1e}")
