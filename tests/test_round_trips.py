"""The suite's round trips: second routes computed as arrays, certified nowhere.

Each raw half must return, to the bit, what its certifying constructor
returns, so a round trip compares the same numbers it compared when it
built and certified a second copy.  A perturbed second route must still
fail its check, with a finite residual at least as large as the
perturbation.
"""
import dataclasses
import functools

import numpy as np
import pytest

from qglab import checks, coideal, duality, harmonic, hopf
from qglab.errors import NotACoideal
from conftest import named_group

INPUTS = ["c_z2", "c_z3", "c_z4", "c_s3", "cg_s3", "cg_z4", "kp", "c_d4", "c_d5", "c_d6"]


def context(name):
    c = checks.CheckContext(named_group(name), hopf.AXIOM_TOL, hopf.DERIVED_TOL,
                            checks.DEFAULT_SEED)
    checks._enumerate(c)
    checks._dual(c)
    return c


held = functools.cache(context)   # read only by the oracles below


def run(c, key, fn):
    bound = next(b for k, b, _ in checks.check_table if k == key)
    return checks._safe(key, fn, c, bound(c) if callable(bound) else bound)


@pytest.mark.parametrize("name", INPUTS)
def test_candidate_coeffs_are_the_states_of_the_coideals(name):
    c = held(name)
    coids = [s.coideal for s in c.states]
    built = coideal.states_from_coideals(coids, c.tol)
    assert np.array_equal(coideal.candidate_coeffs(coids), [s.coeffs for s in built])


@pytest.mark.parametrize("name", INPUTS)
def test_range_projectors_are_the_certified_l2_projections(name):
    c = held(name)
    coeffs = coideal.candidate_coeffs([s.coideal for s in c.states])
    built = coideal.as_idempotent_states(
        [harmonic.Functional(home=c.group, coeffs=f) for f in coeffs], c.tol)
    assert np.array_equal(coideal.range_projectors(c.group, coeffs),
                          [s.l2_projection for s in built])


@pytest.mark.parametrize("name", INPUTS)
def test_codual_kernels_orthonormalize_as_the_certified_way_back(name):
    c = held(name)
    mirror = duality.dual(c.pair.dual_group, c.tol)
    kernels = duality.codual_kernels(c.coduals, mirror)
    once = duality.coduals(c.coduals, mirror, c.tol)
    _, raw_once = coideal.orthonormal_spans(mirror.dual_group, kernels)
    assert all(np.array_equal(raw, coid.basis) for raw, coid in zip(raw_once, once))
    backs = coideal.coideals_from_spans(c.group, [coid.basis for coid in once], c.tol)
    _, raw_backs = coideal.orthonormal_spans(c.group, raw_once)
    assert np.array_equal(coideal.l2_projectors(c.group, raw_backs),
                          [back.l2_projector() for back in backs])


@pytest.mark.parametrize("name", INPUTS)
def test_dual_functionals_are_the_double_dual_states(name):
    c = held(name)
    pair2 = duality.dual(c.pair.dual_group, c.tol)
    raw = duality.dual_functionals(c.dual_states, pair2, c.tol)
    built = duality.dual_states(c.dual_states, pair2, c.tol)
    assert np.array_equal([f.coeffs for f in raw], [s.coeffs for s in built])
    assert [f.name for f in raw] == [s.name for s in built]


@pytest.mark.parametrize("name", ["kp", "c_d4", "cg_s3"])
def test_perturbed_trace_expectation_fails_the_bijection(name, monkeypatch):
    c = context(name)
    shift = 1e-6
    real = coideal.trace_expectation
    monkeypatch.setattr(coideal, "trace_expectation",
                        lambda coid: real(coid) + shift * np.eye(coid.home.dim))
    result = run(c, "state-coideal-bijection", checks._bijection)
    # the counit's largest entry is 1 on these inputs
    assert not result.passed and np.isfinite(result.residual)
    assert result.residual >= shift * (1 - 1e-6)


@pytest.mark.parametrize("name", ["kp", "c_d4", "cg_s3"])
def test_dropped_codual_kernel_vector_fails_the_involution(name, monkeypatch):
    c = context(name)
    c.coduals   # held before the way back is perturbed
    real = duality.codual_kernels

    def dropped(coids, pair):
        kernels = real(coids, pair)
        widest = max(range(len(kernels)), key=lambda i: kernels[i].shape[1])
        kernels[widest] = kernels[widest][:, 1:]
        return kernels

    monkeypatch.setattr(duality, "codual_kernels", dropped)
    result = run(c, "codual-involution", checks._codual_involution)
    # one dimension lost: the projectors differ by a rank-one projection
    assert not result.passed and np.isfinite(result.residual)
    assert result.residual >= 1 - 1e-6


@pytest.mark.parametrize("name", ["kp", "c_d4", "cg_s3"])
def test_shifted_double_dual_coefficient_fails_the_roundtrip(name, monkeypatch):
    c = context(name)
    shift = 1e-6
    real = duality.dual_functionals

    def shifted(states, pair, tol):
        out = real(states, pair, tol)
        coeffs = out[0].coeffs.copy()
        coeffs[0] += shift
        out[0] = dataclasses.replace(out[0], coeffs=coeffs)
        return out

    c.dual_states   # held before the way back is perturbed
    monkeypatch.setattr(duality, "dual_functionals", shifted)
    result = run(c, "double-dual-roundtrip", checks._double_dual)
    assert not result.passed and np.isfinite(result.residual)
    assert result.residual >= shift * (1 - 1e-6)


@pytest.mark.parametrize("name", ["kp", "c_d4", "cg_s3"])
def test_tilted_codual_raises_the_range_message(name):
    c = context(name)
    space = hopf.gns(c.pair.dual_group)
    coduals = list(c.coduals)
    # a co-dual that is neither the scalars nor everything, its first basis
    # vector tilted by 1e-4 toward the complement
    i = next(i for i, coid in enumerate(coduals) if 1 < coid.dim < coid.home.dim)
    basis = coduals[i].gns_basis()
    outside = np.linalg.svd(np.eye(len(basis)) - basis @ basis.conj().T)[0][:, 0]
    tilted = basis.copy()
    tilted[:, 0] = np.cos(1e-4) * basis[:, 0] + np.sin(1e-4) * outside
    coduals[i] = dataclasses.replace(coduals[i], basis=space.inverse_basis @ tilted)
    c.coduals = coduals
    with pytest.raises(NotACoideal, match="state's range differs from the input coideal"):
        checks._codual_state(c)
    result = run(c, "codual-state-consistency", checks._codual_state)
    assert not result.passed and "state's range differs" in result.detail
