import numpy as np
import pytest

from qnet import (
    LengthMismatch,
    WallisEulerCoeffs,
    build_parallel,
    build_series,
    critical_coupling,
    hybrid_R_critical_unbalanced,
    hybrid_R_homogeneous,
    hybrid_critical_unbalanced,
    hybrid_homogeneous,
    lower_hybrid,
    parallel_R_general_N2,
    parallel_R_homogeneous,
    parallel_R_unbalanced,
    series_R,
    simple_T,
    simple_group_delay,
    smatrix,
)

GRID = np.linspace(-8.0, 9.0, 57)


def oracle_T(net, freqs):
    return np.array([smatrix(net, w)[1, 0] for w in freqs])


def oracle_R(net, freqs):
    return np.array([smatrix(net, w)[0, 0] for w in freqs])


def test_simple_T_matches_oracle():
    gamma, Gamma, w0 = 1.1, 2.3, 0.4
    net = build_parallel([w0], [gamma], [Gamma])
    np.testing.assert_allclose(
        simple_T(gamma, Gamma, GRID - w0), oracle_T(net, GRID), atol=1e-12
    )


def test_simple_T_peak_value():
    gamma, Gamma = 0.7, 1.9
    peak = abs(simple_T(gamma, Gamma, 0.0)) ** 2
    assert peak == pytest.approx(4 * gamma * Gamma / (gamma + Gamma) ** 2)


def test_simple_group_delay_peak():
    assert simple_group_delay(1.0, 3.0, 0.0) == pytest.approx(0.5)


def test_critical_coupling_value():
    assert critical_coupling(1.0, 4.0) == pytest.approx(1.0)


def test_parallel_unbalanced_matches_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        gammas = rng.uniform(0.2, 2.0, n)
        k = float(rng.uniform(0.3, 3.0))
        om = rng.uniform(-3, 3, n)
        net = build_parallel(om, gammas, k * gammas)
        d = GRID[:, None] - om[None, :]
        np.testing.assert_allclose(
            parallel_R_unbalanced(gammas, k, d), oracle_R(net, GRID), atol=1e-11
        )


def test_parallel_homogeneous_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        gamma, Gamma = rng.uniform(0.2, 2.5, 2)
        om = rng.uniform(-3, 3, n)
        net = build_parallel(om, np.full(n, gamma), np.full(n, Gamma))
        d = GRID[:, None] - om[None, :]
        np.testing.assert_allclose(
            parallel_R_homogeneous(gamma, Gamma, d), oracle_R(net, GRID), atol=1e-11
        )


def test_parallel_general_two_state_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g1, g2, G1, G2 = rng.uniform(0.2, 2.5, 4)
        w1, w2 = rng.uniform(-2, 2, 2)
        net = build_parallel([w1, w2], [g1, g2], [G1, G2])
        np.testing.assert_allclose(
            parallel_R_general_N2(g1, g2, G1, G2, GRID - w1, GRID - w2),
            oracle_R(net, GRID),
            atol=1e-11,
        )


def test_parallel_general_reduces_to_homogeneous():
    gamma, Gamma = 0.9, 1.4
    w1, w2 = -0.5, 0.8
    np.testing.assert_allclose(
        parallel_R_general_N2(gamma, gamma, Gamma, Gamma, GRID - w1, GRID - w2),
        parallel_R_homogeneous(
            gamma, Gamma, np.stack([GRID - w1, GRID - w2], axis=-1)
        ),
        atol=1e-12,
    )


def test_parallel_unbalanced_reduces_to_homogeneous():
    gammas = np.array([0.8, 0.8])
    k = 1.9
    om = np.array([-1.0, 0.6])
    d = GRID[:, None] - om[None, :]
    np.testing.assert_allclose(
        parallel_R_unbalanced(gammas, k, d),
        parallel_R_homogeneous(0.8, 0.8 * k, d),
        atol=1e-12,
    )


def test_series_matches_oracle_all_sizes():
    rng = np.random.default_rng(13)
    gamma, Gamma = 0.9, 1.4
    for n in range(1, 9):
        om = rng.uniform(-2, 2, n)
        chain = rng.uniform(0.3, 1.5, max(n - 1, 0))
        if n == 1:
            net = build_parallel(om, [gamma], [Gamma])
        else:
            net = build_series(om, gamma, Gamma, chain)
        d = GRID[:, None] - om[None, :]
        np.testing.assert_allclose(
            series_R(gamma, Gamma, d, chain), oracle_R(net, GRID), atol=1e-11
        )


def test_series_long_chain_rescale_path():
    # strong coupling over 70 states overflows without the running rescale
    n = 70
    om = np.zeros(n)
    chain = np.full(n - 1, 50 * critical_coupling(1.0, 1.0))
    net = build_series(om, 1.0, 1.0, chain)
    d = GRID[:, None] - om[None, :]
    got = series_R(1.0, 1.0, d, chain)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, oracle_R(net, GRID), atol=1e-10)


def test_series_regular_on_resonance_grid_point():
    om = np.array([0.0, 1.0])
    d = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = series_R(1.0, 2.0, d, [0.7])
    assert np.all(np.isfinite(got))


def test_wallis_euler_rejects_mismatched_lists():
    with pytest.raises(LengthMismatch):
        WallisEulerCoeffs(a=[0.0, 1.0], b=[1.0])


def test_wallis_euler_known_fraction():
    # 1/(1 + 1/(1 + 1/1)) = 2/3 as b0=0-style fraction: use b0=0? anchor with
    # leading term instead: value = b0 + a1/(b1 + a2/b2)
    coeffs = WallisEulerCoeffs(a=[0.0, 1.0, 1.0], b=[1.0, 1.0, 1.0])
    # 1 + 1/(1 + 1/1) = 3/2
    assert coeffs.evaluate() == pytest.approx(1.5)


def test_hybrid_homogeneous_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        manifolds = [rng.uniform(-2, 2, int(rng.integers(1, 4))) for _ in range(m)]
        gamma, Gamma = rng.uniform(0.3, 2.0, 2)
        gs = rng.uniform(0.3, 1.2, max(m - 1, 0))
        h = hybrid_homogeneous(manifolds, gamma, Gamma, gs)
        net = lower_hybrid(h)
        np.testing.assert_allclose(
            hybrid_R_homogeneous(h, GRID), oracle_R(net, GRID), atol=1e-11
        )


def test_hybrid_critical_unbalanced_matches_oracle():
    rng = np.random.default_rng(15)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        manifolds = [rng.uniform(-2, 2, int(rng.integers(1, 4))) for _ in range(m)]
        mg = [rng.uniform(0.3, 1.5, len(man)) for man in manifolds]
        ratios = rng.uniform(0.4, 2.5, m)
        h = hybrid_critical_unbalanced(manifolds, mg, ratios)
        net = lower_hybrid(h)
        np.testing.assert_allclose(
            hybrid_R_critical_unbalanced(h, GRID), oracle_R(net, GRID), atol=1e-11
        )


def test_hybrid_single_manifold_reduces_to_parallel():
    manifolds = [np.array([-0.4, 0.9, 1.3])]
    h = hybrid_homogeneous(manifolds, 0.8, 1.7, [])
    d = GRID[:, None] - manifolds[0][None, :]
    np.testing.assert_allclose(
        hybrid_R_homogeneous(h, GRID),
        parallel_R_homogeneous(0.8, 1.7, d),
        atol=1e-12,
    )


def test_series_unitarity_identity():
    # lossless two-port: |R|^2 + |T|^2 = 1
    om = np.array([-0.3, 0.2, 0.9])
    chain = np.array([0.6, 0.8])
    net = build_series(om, 1.0, 2.0, chain)
    d = GRID[:, None] - om[None, :]
    R = series_R(1.0, 2.0, d, chain)
    T = oracle_T(net, GRID)
    np.testing.assert_allclose(np.abs(R) ** 2 + np.abs(T) ** 2, 1.0, atol=1e-12)


def ref_series_R(gamma, Gamma, detunings, chain_couplings):
    """The chain recursion as first written: every a_n broadcast into a
    full array of ones, one list entry per b_n, a fresh array per step."""
    d = np.asarray(detunings, dtype=complex)
    n = d.shape[-1]
    if n == 1:
        return (0.5 * (Gamma - gamma) - 1j * d[..., 0]) / (0.5 * (gamma + Gamma) - 1j * d[..., 0])
    couplings = np.asarray(chain_couplings, dtype=float)
    one = np.ones(d.shape[:-1], dtype=complex)
    a = [0.0 * one, -gamma * one]
    b = [one, 0.5 * gamma - 1j * d[..., 0]]
    for m in range(2, n):
        a.append(couplings[m - 2] ** 2 * one)
        b.append(-1j * d[..., m - 1])
    a.append(couplings[n - 2] ** 2 * one)
    b.append(0.5 * Gamma - 1j * d[..., n - 1])
    cur = np.empty((2,) + one.shape, dtype=complex)
    cur[0], cur[1] = b[0], 1.0
    prev = np.empty_like(cur)
    prev[0], prev[1] = 1.0, 0.0
    for k in range(1, len(a)):
        cur, prev = b[k] * cur + a[k] * prev, cur
        if np.abs(cur.view(float)).max(initial=0.0) < 0.5e150:
            continue
        m = np.abs(cur).max(axis=0)
        big = m > 1e150
        if big.any():
            s = np.where(big, m, 1.0)
            cur, prev = cur / s, prev / s
        assert np.isfinite(m).all()
    return cur[0] / cur[1]


def _reference_cases():
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        om = np.sort(rng.uniform(-2, 2, n))
        chain = rng.uniform(0.02, 20.0, n - 1)
        yield f"random-{n}", rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), GRID[:, None] - om, chain
    # grid points on the resonances: zero detunings
    om = np.array([GRID[5], GRID[20], GRID[21]])
    yield "on-resonance", 1.0, 2.0, GRID[:, None] - om, [0.7, 0.4]
    yield "on-resonance-1", 1.0, 2.0, GRID[:, None] - GRID[5], []
    # states laid out along the grid axis, a single frequency, a 1-d grid point
    om = np.array([-0.5, 0.1, 0.8, 1.4])
    yield "transposed", 1.0, 2.0, (GRID - om[:, None]).T, [0.7, 1.1, 0.3]
    yield "one-frequency", 1.0, 2.0, (0.3 - om)[None, :], [0.7, 1.1, 0.3]
    yield "one-point", 1.0, 2.0, 0.3 - om, [0.7, 1.1, 0.3]
    # strong coupling over 140 states: the running rescale fires (from step 66)
    yield "rescale", 1.0, 1.0, np.repeat(GRID[:, None], 140, axis=1), np.full(139, 200.0)


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
def test_series_R_matches_broadcast_reference(case):
    _, gamma, Gamma, d, chain = case
    got = series_R(gamma, Gamma, d, chain)
    ref = ref_series_R(gamma, Gamma, d, chain)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.abs(got), np.abs(ref))
