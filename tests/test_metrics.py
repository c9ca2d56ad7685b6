import math

import numpy as np
import pytest

from isac_pareto.metrics import (
    TransmitCovariance,
    assemble_covariance,
    crb_from_trace_budget,
    crb_trace,
    rate,
    rate_from_powers,
    rotate_from_eigenbasis,
    trace_budget,
)
from isac_pareto.scenario import ChannelMatrix, Scenario, rician_channel


def _random_psd(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q = a @ a.conj().T / m * scale
    return 0.5 * (q + q.conj().T)


def _random_unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_rate_zero_covariance():
    H = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    assert rate(np.zeros((2, 2)), H, 1.0) == 0.0


def test_rate_scalar_channel():
    assert rate(np.array([[3.0]]), np.array([[1.0]]), 1.0) == pytest.approx(2.0, abs=1e-12)


def test_rate_matches_singular_value_form(rng):
    sc = Scenario(M=6, Nc=4, Ns=12, L=200, P=30.0, Kc=2.0, seed=8)
    H = rician_channel(sc)
    Q = (sc.P / sc.M) * np.eye(sc.M, dtype=complex)
    direct = rate(Q, H, sc.sigma_c2)
    by_svs = rate_from_powers(H.lambdas2, np.full(sc.M, sc.P / sc.M), sc.sigma_c2)
    assert direct == pytest.approx(by_svs, abs=1e-10)


def test_rate_dimension_mismatch():
    with pytest.raises(ValueError):
        rate(np.eye(3), np.eye(2), 1.0)


def test_crb_trace_diagonal():
    assert crb_trace(4.0 * np.eye(2), 1.0, 12, 200) == pytest.approx(0.03, abs=1e-15)


def test_crb_trace_isotropic_scenario1_value():
    q = (800.0 / 8.0) * np.eye(8)
    assert crb_trace(q, 1.0, 12, 200) == pytest.approx(0.0048, abs=1e-15)


def test_crb_trace_rank_deficient_is_infinite():
    q = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert crb_trace(q, 1.0, 12, 200) == math.inf


def test_crb_trace_monotone_in_diagonal_entries(rng):
    for _ in range(50):
        d = rng.uniform(0.1, 5.0, 5)
        before = crb_trace(np.diag(d).astype(complex), 1.0, 12, 200)
        i = rng.integers(0, 5)
        d2 = d.copy()
        d2[i] += rng.uniform(0.01, 2.0)
        after = crb_trace(np.diag(d2).astype(complex), 1.0, 12, 200)
        assert after <= before + 1e-15


def test_trace_budget_roundtrip():
    gt = trace_budget(0.0152, 1.0, 12, 200)
    assert gt == pytest.approx(200 * 0.0152 / 12, abs=1e-18)
    assert crb_from_trace_budget(gt, 1.0, 12, 200) == pytest.approx(0.0152, rel=1e-15)


def test_rotation_identity_matrix():
    q = np.diag([1.0, 2.0]).astype(complex)
    np.testing.assert_array_equal(rotate_from_eigenbasis(q, np.eye(2, dtype=complex)), q)


def test_rotation_roundtrip_and_trace_preserved(rng):
    for _ in range(20):
        q = _random_psd(rng, 6)
        u = _random_unitary(rng, 6)
        qt = rotate_from_eigenbasis(q, u.conj().T)
        back = rotate_from_eigenbasis(qt, u)
        assert np.linalg.norm(back - q) <= 1e-12 * max(1.0, np.linalg.norm(q))
        assert np.trace(qt).real == pytest.approx(np.trace(q).real, abs=1e-10)


def test_rotation_preserves_trace_inverse(rng):
    for _ in range(20):
        q = _random_psd(rng, 5) + 0.5 * np.eye(5)
        u = _random_unitary(rng, 5)
        qt = rotate_from_eigenbasis(q, u.conj().T)
        ti = np.trace(np.linalg.inv(q)).real
        ti_rot = np.trace(np.linalg.inv(qt)).real
        assert ti_rot == pytest.approx(ti, rel=1e-8)


def test_hadamard_determinant_bound(rng):
    # det(I + S q / s2) never exceeds the same with q replaced by diag(q)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        q = _random_psd(rng, m)
        svals = np.zeros(m)
        k = int(rng.integers(1, m + 1))
        svals[:k] = rng.uniform(0.1, 4.0, k)
        s2 = float(rng.uniform(0.5, 2.0))
        lhs = np.linalg.det(np.eye(m) + np.diag(svals) @ q / s2).real
        rhs = np.linalg.det(np.eye(m) + np.diag(svals * np.diagonal(q).real) / s2).real
        assert lhs <= rhs * (1 + 1e-10)


def test_diagonal_trace_inverse_bound(rng):
    # tr(diag(q)^-1) <= tr(q^-1) for positive definite q
    for _ in range(200):
        m = int(rng.integers(2, 7))
        q = _random_psd(rng, m) + 0.2 * np.eye(m)
        lhs = float((1.0 / np.diagonal(q).real).sum())
        rhs = np.trace(np.linalg.inv(q)).real
        assert lhs <= rhs * (1 + 1e-10)


def test_covariance_validation():
    good = TransmitCovariance(Q=np.eye(3, dtype=complex), budget=3.0)
    good.validate()
    bad_budget = TransmitCovariance(Q=np.eye(3, dtype=complex), budget=2.0)
    with pytest.raises(ValueError):
        bad_budget.validate()
    skew = TransmitCovariance(Q=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), budget=5.0)
    with pytest.raises(ValueError):
        skew.validate()


def test_assemble_covariance_diagonal():
    q = assemble_covariance(np.eye(2, dtype=complex), [1.0, 2.0])
    np.testing.assert_allclose(q.Q, np.diag([1.0, 2.0]), atol=1e-15)


def test_assemble_covariance_isotropic_rotation_invariant(rng):
    u = _random_unitary(rng, 4)
    q = assemble_covariance(u, np.full(4, 2.5))
    np.testing.assert_allclose(q.Q, 2.5 * np.eye(4), atol=1e-12)


def test_assemble_covariance_spectrum(rng):
    u = _random_unitary(rng, 5)
    p = np.sort(rng.uniform(0.5, 3.0, 5))[::-1]
    q = assemble_covariance(u, p, budget=p.sum())
    assert np.trace(q.Q).real == pytest.approx(p.sum(), abs=1e-10)
    eigs = np.sort(np.linalg.eigvalsh(q.Q))[::-1]
    np.testing.assert_allclose(eigs, p, atol=1e-10)
    # the two-block range/null-space split reproduces the same matrix
    k = 3
    split = (u[:, :k] * p[:k]) @ u[:, :k].conj().T + (u[:, k:] * p[k:]) @ u[:, k:].conj().T
    assert np.linalg.norm(split - q.Q) <= 1e-12 * np.linalg.norm(q.Q)
