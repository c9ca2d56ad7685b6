import math
import re

import numpy as np
import pytest

from isac_pareto.scenario import (
    ChannelMatrix,
    FixtureFormatError,
    Scenario,
    load_fixture,
    preset_scenario,
    rician_channel,
    save_fixture,
    steering_vector,
)


def test_steering_broadside():
    np.testing.assert_allclose(steering_vector(4, 0.0), np.ones(4))


def test_steering_quarter_turn_phases():
    # sin(pi/6) = 1/2 forces successive phases of pi/2
    np.testing.assert_allclose(
        steering_vector(4, math.pi / 6), [1, 1j, -1, -1j], atol=1e-15
    )


def test_steering_endfire():
    np.testing.assert_allclose(steering_vector(2, math.pi / 2), [1, -1], atol=1e-12)


def test_steering_unit_modulus():
    v = steering_vector(9, 0.7345)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    assert v[0] == 1.0


def test_steering_rejects_empty():
    with pytest.raises(ValueError):
        steering_vector(0, 0.0)


def test_los_only_channel_is_rank_one_outer_product():
    sc = Scenario(M=8, Nc=6, Ns=12, L=200, P=800.0, Kc=math.inf, seed=5)
    H = rician_channel(sc)
    a_rx = steering_vector(6, sc.theta)
    a_tx = steering_vector(8, sc.theta)
    np.testing.assert_array_equal(H.H, np.outer(a_rx, a_tx))
    assert H.r == 1


def test_diffuse_channel_full_rank():
    sc = Scenario(M=4, Nc=4, Ns=12, L=200, P=10.0, Kc=0.0, seed=42)
    H = rician_channel(sc)
    assert H.r == 4
    assert np.all(H.lambdas > 1e-9 * H.lambdas[0])


def test_strong_los_concentration():
    # the diffuse remainder has expected squared Frobenius norm 48/101;
    # three times the RMS bound should essentially never be exceeded
    bound = 3 * math.sqrt(48 / 101)
    a_rx = steering_vector(6, math.pi / 6)
    a_tx = steering_vector(8, math.pi / 6)
    los = math.sqrt(100 / 101) * np.outer(a_rx, a_tx)
    bad = 0
    for seed in range(40):
        sc = Scenario(M=8, Nc=6, Ns=12, L=200, P=800.0, Kc=100.0, seed=seed)
        H = rician_channel(sc)
        if np.linalg.norm(H.H - los) > bound:
            bad += 1
    assert bad <= 2


def test_svd_invariants_on_generated_channels():
    for seed in range(10):
        sc = Scenario(M=5, Nc=3, Ns=12, L=200, P=10.0, Kc=1.5, seed=seed)
        H = rician_channel(sc)
        H.validate()
        assert H.r <= min(3, 5)


def test_same_seed_same_channel_bitwise():
    sc = Scenario(M=6, Nc=4, Ns=12, L=200, P=10.0, Kc=2.0, seed=77)
    H1 = rician_channel(sc)
    H2 = rician_channel(sc)
    assert np.array_equal(H1.H, H2.H)


def test_fixture_roundtrip_identity(tmp_path):
    path = tmp_path / "eye.csv"
    save_fixture(np.eye(2, dtype=complex), path)
    loaded = load_fixture(path)
    np.testing.assert_array_equal(loaded.H, np.eye(2))


def test_fixture_roundtrip_random_channel_exact(tmp_path):
    sc = Scenario(M=8, Nc=6, Ns=12, L=200, P=800.0, Kc=0.0, seed=11)
    H = rician_channel(sc)
    path = tmp_path / "ch.csv"
    save_fixture(H, path)
    loaded = load_fixture(path)
    assert np.linalg.norm(loaded.H - H.H) == 0.0


def test_fixture_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3,2\n1,0,2,0\n")
    with pytest.raises(FixtureFormatError):
        load_fixture(path)


def test_fixture_bad_field_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1\n1,zap\n")
    with pytest.raises(FixtureFormatError):
        load_fixture(path)


@pytest.mark.parametrize("field", ["inf", "-inf", "nan"])
def test_fixture_non_finite_field_rejected(tmp_path, field):
    # an infinite field used to be reported as a rank-0 channel, and a NaN
    # one as an SVD that did not converge
    path = tmp_path / "bad.csv"
    path.write_text(f"2,2\n1,0,0,0\n0,0,1,{field}\n")
    with pytest.raises(FixtureFormatError, match=re.escape(f"{path}: row 1 has a non-finite field")):
        load_fixture(path)


def test_fixture_dimension_mismatch_rejected(tmp_path):
    path = tmp_path / "small.csv"
    save_fixture(np.eye(2, dtype=complex), path)
    sc = Scenario(M=3, Nc=2, Ns=12, L=200, P=1.0, fixture_path=str(path))
    with pytest.raises(FixtureFormatError):
        rician_channel(sc)


def test_fixture_path_used_instead_of_sampling(tmp_path):
    sc_gen = Scenario(M=4, Nc=3, Ns=12, L=200, P=5.0, Kc=3.0, seed=9)
    H = rician_channel(sc_gen)
    path = tmp_path / "ch.csv"
    save_fixture(H, path)
    sc_load = Scenario(M=4, Nc=3, Ns=12, L=200, P=5.0, Kc=3.0, seed=12345,
                       fixture_path=str(path))
    loaded = rician_channel(sc_load)
    assert np.array_equal(loaded.H, H.H)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(M=1, Nc=2, Ns=1, L=10, P=1.0),
        dict(M=2, Nc=1, Ns=1, L=10, P=1.0),
        dict(M=2, Nc=2, Ns=0, L=10, P=1.0),
        dict(M=2, Nc=2, Ns=1, L=2, P=1.0),
        dict(M=2, Nc=2, Ns=1, L=10, P=0.0),
        dict(M=2, Nc=2, Ns=1, L=10, P=1.0, sigma_c2=0.0),
        dict(M=2, Nc=2, Ns=1, L=10, P=1.0, Kc=-1.0),
        dict(M=2, Nc=2, Ns=1, L=10, P=math.nan),
        dict(M=2, Nc=2, Ns=1, L=10, P=math.inf),
        dict(M=2, Nc=2, Ns=1, L=10, P=1.0, sigma_s2=math.nan),
        dict(M=2, Nc=2, Ns=1, L=10, P=1.0, Kc=math.nan),
        dict(M=2, Nc=2, Ns=1, L=10, P=1.0, theta=math.nan),
        dict(M=2, Nc=2, Ns=1, L=10, P=1.0, theta=math.inf),
    ],
)
def test_scenario_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        Scenario(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(P=1e-320),                  # M^2/P overflows
    dict(P=1e-300, sigma_s2=1e10),   # only the minimum CRB overflows
])
def test_scenario_power_with_overflowing_minimum_crb_rejected(kwargs):
    with pytest.raises(ValueError, match=f"P={kwargs['P']}"):
        Scenario(M=4, Nc=3, Ns=12, L=200, seed=1, **kwargs)


@pytest.mark.parametrize("P", [6e-307, 1e-300, 1e-250, 1e-200, 1e160])
def test_scenario_power_whose_square_per_antenna_is_not_normal_rejected(P):
    # the KKT certificate works in the original units, where mu is about
    # v (P/M)^2; below about 1e-154 M that square is subnormal or 0, above
    # about 1e154 M it overflows
    with pytest.raises(ValueError, match=re.escape(f"P={P}")):
        Scenario(M=4, Nc=3, Ns=12, L=200, P=P, seed=1)


def test_presets_have_expected_shape_and_rank(fixtures_dir):
    s1 = preset_scenario("scenario1")
    H1 = rician_channel(s1)
    assert H1.shape == (6, 8) and H1.r == 6
    s2 = preset_scenario("scenario2")
    H2 = rician_channel(s2)
    assert H2.shape == (6, 6) and H2.r == 6
    # the committed fixtures are exactly these draws
    np.testing.assert_array_equal(load_fixture(fixtures_dir / "scenario1.csv").H, H1.H)
    np.testing.assert_array_equal(load_fixture(fixtures_dir / "scenario2.csv").H, H2.H)
