from fractions import Fraction

import numpy as np
import pytest

from qnet import (
    NotNormalized,
    SweepGrid,
    UnresolvablePhaseJump,
    ValidationError,
    Wavepacket,
    WindowTooNarrow,
    bandwidth_grid,
    build_parallel,
    build_series,
    click_curve,
    click_probability,
    compute_report,
    dispersion,
    find_reflection_zeros,
    find_unity_peaks,
    group_delay,
    propagate_wavepacket,
    simple_group_delay,
    spectral_bandwidth,
    sweep,
    total_phase_change,
    transmitted_fraction,
    unwrap_phase,
)
from qnet.metrics import _chirp, _quadrature_ift
from qnet.scatter import _dense_smatrices, state_matrix


def sampled_phase(resp):
    """Phase unwrapped from the samples alone: half the unwrapped angle of
    T^2, which stays continuous through the sign flips of T."""
    return 0.5 * np.unwrap(np.angle(resp.transmission() ** 2))


def offset_gaussian(center, sigma, t0, points=4001):
    base = Wavepacket.gaussian(center, sigma, points=points)
    amp = base.amplitudes * np.exp(1j * base.grid.frequencies * t0)
    return Wavepacket(base.grid, amp)


# ---------------------------------------------------------------------------
# phase


def test_simple_model_total_phase_is_pi():
    net = build_parallel([0.0], [1.0], [2.0])
    resp = sweep(net, SweepGrid.linspace(-400.0, 400.0, 40001))
    phase = unwrap_phase(resp)
    assert total_phase_change(phase) == pytest.approx(np.pi, rel=1e-2)


def test_balanced_parallel_winds_n_pi():
    for n in (1, 3, 5):
        om = np.arange(n) * 3.0
        net = build_parallel(om, np.ones(n), np.ones(n))
        report = compute_report(net)
        assert report.total_phase_change == pytest.approx(n * np.pi, rel=1e-2)


def test_phase_anchored_in_principal_interval():
    net = build_parallel([0.0], [1.0], [1.0])
    resp = sweep(net, SweepGrid.linspace(-30, 30, 2001))
    phase = unwrap_phase(resp)
    assert -np.pi < phase[0] <= np.pi
    assert np.all(np.abs(np.diff(phase)) < np.pi)


def test_phase_continuous_through_transmission_zero():
    # two balanced resonances: T = 0 between them, but phase must keep going
    net = build_parallel([0.0, 2.0], [1.0, 1.0], [1.0, 1.0])
    # window wide enough that the arctan tails contribute < 1% of 2 pi
    resp = sweep(net, SweepGrid.linspace(-400, 402, 8001))
    phase = unwrap_phase(resp)
    assert total_phase_change(phase) == pytest.approx(2 * np.pi, rel=1e-2)


def test_side_channel_share_raises_unresolvable_jump():
    # the poles' share of the phase is exact on any grid; the side channel's
    # zeros' share is unwrapped from the samples, and a 0.2 step cannot
    # follow it through the zero near omega = 0.9
    net = build_parallel([0.0, 2.0], [1.0, 1.0], [1.0, 1.0], side_decays=([0.01, 0.0],))
    resp = sweep(net, SweepGrid.linspace(-10.0, 10.0, 101))
    with pytest.raises(UnresolvablePhaseJump) as info:
        unwrap_phase(resp)
    assert 0.8 <= info.value.omega_lo < info.value.omega_hi <= 1.0


def test_refiner_resolves_coarse_grid():
    # at 81 points a phase unwrapped from the samples silently loses whole
    # turns of winding; the pole phase keeps all five of them
    n = 5
    net = build_parallel(np.arange(n) * 2.0, np.ones(n), np.ones(n))
    resp = sweep(net, SweepGrid.linspace(-100.0 + 0.17, 100.17, 81))
    coarse = total_phase_change(sampled_phase(resp))
    assert abs(coarse - n * np.pi) > np.pi  # the coarse answer really is wrong
    phase = unwrap_phase(resp)
    assert total_phase_change(phase) == pytest.approx(n * np.pi, rel=1e-2)


# ---------------------------------------------------------------------------
# group delay


def test_group_delay_peak_simple():
    gamma, Gamma = 1.0, 2.0
    net = build_parallel([0.0], [gamma], [Gamma])
    # central differences need a fine step for 1e-6 absolute accuracy
    resp = sweep(net, SweepGrid.linspace(-0.5, 0.5, 2001))
    tau = group_delay(resp)
    w = resp.grid.frequencies
    assert tau[np.argmin(np.abs(w))] == pytest.approx(2 / (gamma + Gamma), abs=1e-6)


def test_group_delay_matches_closed_form_pointwise():
    gamma, Gamma = 1.0, 2.0
    net = build_parallel([0.0], [gamma], [Gamma])
    resp = sweep(net, SweepGrid.for_network(net, points_per_linewidth=40))
    tau = group_delay(resp)
    exact = simple_group_delay(gamma, Gamma, resp.grid.frequencies)
    assert np.max(np.abs(tau - exact)) < 1e-3


def test_group_delay_integral_is_pi():
    net = build_parallel([0.0], [1.0], [2.0])
    resp = sweep(net, SweepGrid.linspace(-500, 500, 100001))
    tau = group_delay(resp)
    integral = np.trapezoid(tau, resp.grid.frequencies)
    assert integral == pytest.approx(np.pi, rel=1e-2)


def test_detuned_chain_group_delay_is_the_positive_pole_sum():
    # a chain has no finite transmission zeros, so its delay is the pole
    # sum alone and positive everywhere; differences of a grid phase see
    # spurious negative delays where modes of half-width 6e-6 alias on the
    # 0.0125 step of this grid
    n = 20
    om = np.linspace(-2.0, 2.0, n)  # detunings dominate the chain coupling
    net = build_series(om, 1.0, 1.0, np.full(n - 1, 0.5))
    resp = sweep(net, SweepGrid.for_network(net))
    w = resp.grid.frequencies
    tau = group_delay(resp)
    lam = np.linalg.eigvals(state_matrix(net))
    exact = np.sum(lam.real / np.abs(lam - 1j * w[:, None]) ** 2, axis=1)
    np.testing.assert_allclose(tau, exact, rtol=1e-12)
    assert np.min(tau) > 0


def test_side_channel_negative_group_delay():
    # a side channel on one state puts a transmission zero near the real
    # axis at omega ~ 1, where the delay is genuinely negative.  Reference:
    # the dense-solve phase differenced over +-1e-6 around every sample.
    net = build_parallel([0.0, 2.0], [1.0, 1.0], [1.0, 1.0], side_decays=([0.5, 0.0],))
    resp = sweep(net, SweepGrid.for_network(net))
    w = resp.grid.frequencies
    h = 1e-6
    ratio = _dense_smatrices(net, w + h)[:, 1, 0] / _dense_smatrices(net, w - h)[:, 1, 0]
    ref = np.angle(ratio) / (2 * h)
    assert np.min(ref) == pytest.approx(-6.2, abs=0.01)
    tau = group_delay(resp)
    assert np.min(tau) < -6.0
    # the zero's share is differenced on the grid (step 0.025), the poles'
    # share is exact: no less accurate than differencing the whole phase
    err = np.abs(tau - ref)
    err_grid = np.abs(np.gradient(sampled_phase(resp), w) - ref)
    assert np.max(err) < 0.1
    assert np.sqrt(np.mean(err**2)) <= np.sqrt(np.mean(err_grid**2))


def test_simple_model_delay_bandwidth_identity():
    # tau_g = |T|^2 / bandwidth holds only for the single-state network
    gamma, Gamma = 1.0, 2.0
    net = build_parallel([0.0], [gamma], [Gamma])
    resp = sweep(net, bandwidth_grid(net))
    tau = group_delay(resp)
    t2 = np.abs(resp.transmission()) ** 2
    bw = spectral_bandwidth(resp)
    keep = t2 > 1e-3
    assert np.max(np.abs(tau[keep] - t2[keep] / bw)) < 1e-3

    n5 = build_parallel(np.arange(5) * 3.0, np.ones(5), np.ones(5))
    resp5 = sweep(n5, bandwidth_grid(n5))
    tau5 = group_delay(resp5)
    t25 = np.abs(resp5.transmission()) ** 2
    bw5 = spectral_bandwidth(resp5)
    i = np.argmin(np.abs(resp5.grid.frequencies))  # on the first resonance
    assert tau5[i] > t25[i] / bw5 * 1.5


# ---------------------------------------------------------------------------
# bandwidth and dispersion


def test_bandwidth_simple_model():
    gamma, Gamma = 0.7, 1.8
    net = build_parallel([0.0], [gamma], [Gamma])
    resp = sweep(net, bandwidth_grid(net))
    expected = 2 * gamma * Gamma / (gamma + Gamma)
    assert spectral_bandwidth(resp) == pytest.approx(expected, rel=5e-3)


def test_bandwidth_parallel_additive():
    gammas = np.array([0.5, 1.0, 1.5])
    Gammas = np.array([1.0, 0.7, 2.0])
    om = np.array([-4.0, 0.0, 5.0])
    net = build_parallel(om, gammas, Gammas)
    resp = sweep(net, bandwidth_grid(net))
    expected = np.sum(2 * gammas * Gammas / (gammas + Gammas))
    assert spectral_bandwidth(resp) == pytest.approx(expected, rel=5e-3)


def test_bandwidth_window_too_narrow():
    net = build_parallel([0.0], [1.0], [1.0])
    resp = sweep(net, SweepGrid.linspace(-5, 5, 501))
    with pytest.raises(WindowTooNarrow):
        spectral_bandwidth(resp)


def test_series_bandwidth_bounded_by_simple_model():
    gamma, Gamma = 1.0, 2.0
    bound = 2 * gamma * Gamma / (gamma + Gamma)
    for gfac in (1.0, 5.0, 100.0):
        g = gfac * np.sqrt(gamma * Gamma) / 2
        net = build_series([0.0, 0.0], gamma, Gamma, [g])
        resp = sweep(net, bandwidth_grid(net))
        bw = spectral_bandwidth(resp)
        assert bw < bound
        if gfac == 100.0:
            assert bw == pytest.approx(bound, rel=1e-2)


def test_series_detuning_lowers_bandwidth():
    gamma, Gamma = 1.0, 2.0
    g = np.sqrt(gamma * Gamma) / 2
    aligned = build_series([0.0, 0.0], gamma, Gamma, [g])
    detuned = build_series([0.0, 1.5], gamma, Gamma, [g])
    bw_a = spectral_bandwidth(sweep(aligned, bandwidth_grid(aligned)))
    bw_d = spectral_bandwidth(sweep(detuned, bandwidth_grid(detuned)))
    assert bw_d <= bw_a + 1e-9


def test_dispersion_simple_model():
    gamma, Gamma = 1.0, 2.0
    net = build_parallel([0.0], [gamma], [Gamma])
    resp = sweep(net, bandwidth_grid(net))
    expected = 8 * gamma * Gamma / (gamma + Gamma) ** 3
    assert dispersion(resp) == pytest.approx(expected, rel=1e-2)


# ---------------------------------------------------------------------------
# peaks and zeros


def test_unity_peaks_balanced_parallel():
    om = np.array([0.0, 3.0, 6.0])
    net = build_parallel(om, np.ones(3), np.ones(3))
    resp = sweep(net, SweepGrid.for_network(net))
    peaks = find_unity_peaks(resp, tol=1e-6)
    np.testing.assert_allclose(peaks, om, atol=1e-6)


def test_reflection_zeros_symmetric_pair():
    net = build_parallel([-1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    zeros = find_reflection_zeros(net)
    np.testing.assert_allclose(zeros, [0.0], atol=1e-12)


def test_reflection_zeros_count_and_independence_from_outputs():
    om = np.array([-2.0, 0.0, 1.0, 4.0])
    gammas = np.array([1.0, 0.7, 1.3, 0.4])
    z1 = find_reflection_zeros(build_parallel(om, gammas, np.ones(4)))
    z2 = find_reflection_zeros(build_parallel(om, gammas, 3.0 * np.ones(4)))
    assert len(z1) == 3
    # scaling every output decay by one factor leaves the zeros in place
    np.testing.assert_allclose(z1, z2, atol=1e-12)
    for z in z1:
        assert np.sum(np.sqrt(gammas) / (z - om)) == pytest.approx(0.0, abs=1e-9)


def test_reflection_zeros_are_zeros_of_T():
    # unequal output decays move the zero: at 2 / (1 + sqrt 3), not at the
    # root 1 of gamma_1 / omega + gamma_2 / (omega - 2)
    net = build_parallel([0.0, 2.0], [1.0, 1.0], [1.0, 3.0])
    zeros = find_reflection_zeros(net)
    np.testing.assert_allclose(zeros, [2.0 / (1.0 + np.sqrt(3.0))], rtol=0, atol=1e-15)
    assert abs(_dense_smatrices(net, zeros)[0, 1, 0]) < 1e-14
    assert abs(_dense_smatrices(net, np.array([1.0]))[0, 1, 0]) > 0.4


def test_reflection_zeros_requires_parallel():
    net = build_series([0.0, 1.0], 1.0, 1.0, [0.5])
    with pytest.raises(ValidationError):
        find_reflection_zeros(net)


def test_reflection_zeros_match_brentq():
    from scipy.optimize import brentq

    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        om = np.sort(rng.uniform(-10.0, 10.0, n))
        gammas = rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.15)
        Gammas = rng.uniform(0.1, 2.0, n)
        net = build_parallel(om, gammas, Gammas)
        keep = gammas > 0
        o, g = om[keep], np.sqrt(gammas * Gammas)[keep]
        ref = [
            brentq(lambda x: float(np.sum(g / (x - o))), a + (b - a) * 1e-12, b - (b - a) * 1e-12,
                   xtol=1e-14, rtol=1e-14)
            for a, b in zip(o[:-1], o[1:])
        ]
        # a state on the output port only is a zero of T at its resonance
        ref = np.sort(np.concatenate([ref, np.unique(om[~keep])]))
        np.testing.assert_allclose(find_reflection_zeros(net), ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "omegas,gammas,Gammas,zeros",
    [
        ([0.0, 0.7, 2.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.7, 1.0]),
        ([0.0, 2.0, 3.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 3.0]),
    ],
)
def test_reflection_zeros_of_single_port_states(omegas, gammas, Gammas, zeros):
    # a state on one port only puts a zero of T at its own resonance
    net = build_parallel(omegas, gammas, Gammas)
    got = find_reflection_zeros(net)
    np.testing.assert_allclose(got, zeros, rtol=0, atol=1e-12)
    assert np.all(np.abs(_dense_smatrices(net, got)[:, 1, 0]) < 1e-10)


def test_reflection_zeros_side_channel_on_a_single_port_state():
    # a side channel on the single-port state removes its zero; only the
    # root of h between the two-port states is left
    net = build_parallel([0.0, 0.7, 2.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                         side_decays=([0.0, 0.5, 0.0],))
    assert abs(_dense_smatrices(net, np.array([0.7]))[0, 1, 0]) ** 2 > 1e-3
    np.testing.assert_allclose(find_reflection_zeros(net), [1.0], rtol=0, atol=1e-12)


def test_reflection_zeros_need_a_two_port_state():
    # no state on both ports: T vanishes everywhere, and no zero is listed
    net = build_parallel([0.0, 1.0], [1.0, 0.0], [0.0, 1.0])
    assert abs(_dense_smatrices(net, np.array([0.3]))[0, 1, 0]) == 0.0
    assert find_reflection_zeros(net).size == 0


# ---------------------------------------------------------------------------
# wavepackets


def test_wavepacket_normalization_enforced():
    grid = SweepGrid.linspace(-1, 1, 101)
    with pytest.raises(NotNormalized):
        Wavepacket(grid, np.ones(101))


def test_wavepacket_rejects_a_nonuniform_grid():
    w = np.linspace(-1.0, 1.0, 101)
    w[40] += 1e-3 * (w[1] - w[0])
    amp = np.full(101, np.sqrt(0.5))
    with pytest.raises(ValidationError, match="uniform"):
        Wavepacket(SweepGrid(w), amp)


@pytest.mark.parametrize("center", [0.0, 1e3, 1e6])
def test_wavepacket_accepts_linspace_grids(center):
    for points in (2, 3, 1001, 4001):
        grid = SweepGrid.linspace(center - 1.0, center + 1.0, points)
        Wavepacket(grid, np.full(points, np.sqrt(0.5)))


def ref_ift(w, filtered, times):
    """Int filtered e^{-i omega t} d omega by the direct trapezoid sum,
    O(F T), in blocks of 256 times."""
    out = np.empty(len(times), dtype=complex)
    for lo in range(0, len(times), 256):
        phases = np.exp(-1j * np.outer(times[lo : lo + 256], w))
        out[lo : lo + 256] = np.trapezoid(phases * filtered[None, :], w, axis=1)
    return out


def filtered_packet(center, sigma, t0=0.0, points=4001):
    """(omega, T psi~) for a Gaussian packet delayed by t0 through one state
    detuned by 0.3 sigma from its centre."""
    wp = offset_gaussian(center, sigma, t0, points)
    net = build_parallel([center + 0.3 * sigma], [sigma], [2.0 * sigma])
    return wp.grid.frequencies, sweep(net, wp.grid).transmission() * wp.amplitudes


# (packet, times): the packet sits inside every time window.  At centre
# 1e3 the window is +-30: the direct sum rounds each phase t omega to
# eps |t omega|, so a wider window would test the reference's rounding
IFT_CASES = {
    "gaussian": ((0.0, 0.2), np.linspace(-150.0, 150.0, 1601)),
    "shifted": ((0.3, 0.2, -40.0), np.linspace(-150.0, 150.0, 1601)),
    "centre-1e3": ((1e3, 1.0, -3.0), np.linspace(-30.0, 30.0, 1225)),
    "odd-sizes": ((0.1, 0.2, 5.0, 1999), np.linspace(-151.0, 149.0, 777)),
    "click-times": ((0.0, 0.2, -30.0), np.linspace(-60.0, 0.0, 2049)),
    "two-times": ((0.0, 0.2, -3.0), np.linspace(-6.0, 0.0, 2)),
}


@pytest.mark.parametrize("case", sorted(IFT_CASES))
def test_quadrature_ift_matches_direct_sum(case):
    packet, times = IFT_CASES[case]
    w, filtered = filtered_packet(*packet)
    ref = ref_ift(w, filtered, times)
    got = _quadrature_ift(w, filtered, times)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("a", [3.84e-7, 1.96e-4, 0.08, 1.0 / 3.0])
def test_chirp_phase_is_carried_exactly(a):
    # exp(-i a m^2 / 2) rests on p + err = a m^2 / 2 exactly, up to
    # m = 10^6 (phases of 10^5 rad and more), for the exp(-i p) rounding
    # alone to limit the chirp's phase error
    m = np.array([0, 1, 2, 1001, 4001, 12345, 400_001, 999_999])
    chirp = _chirp(a, 1_000_000)[m]
    for mi, c in zip(m.tolist(), chirp):
        q = Fraction(mi * mi, 2)
        p = float(Fraction(a) * q)
        err = Fraction(a) * q - Fraction(p)
        assert c == np.exp(-1j * p) * (1.0 - 1j * float(err))


def test_gaussian_wavepacket_normalized():
    wp = Wavepacket.gaussian(0.3, 0.05)
    norm = np.trapezoid(np.abs(wp.amplitudes) ** 2, wp.grid.frequencies)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_identity_filter_returns_input():
    # a far-detuned resonance leaves T ~ exp(i eps) ~ 1 over the packet
    net = build_parallel([1e6], [1.0], [1.0])
    wp = offset_gaussian(0.0, 0.05, 0.0)
    trace = propagate_wavepacket(net, wp)
    # compare against the analytic input pulse at the output times
    sigma_t = 1.0 / (2 * 0.05)
    expected = (2 * 0.05**2 / np.pi) ** 0.25 * np.exp(
        -trace.times**2 / (4 * sigma_t**2) / 1.0
    )
    got = np.abs(trace.amplitudes)
    expected = np.abs(expected) * np.max(got) / np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) < 1e-3


def test_propagation_parseval():
    net = build_parallel([0.0], [1.0], [2.0])
    wp = offset_gaussian(0.0, 0.05, 0.0)
    trace = propagate_wavepacket(net, wp)
    energy_t = np.trapezoid(np.abs(trace.amplitudes) ** 2, trace.times)
    energy_w = transmitted_fraction(net, wp)
    assert energy_t == pytest.approx(energy_w, abs=1e-6)


def test_propagation_delays_pulse():
    gamma, Gamma = 1.0, 1.0
    net = build_parallel([0.0], [gamma], [Gamma])
    sigma = 0.02
    wp = offset_gaussian(0.0, sigma, 0.0)
    trace = propagate_wavepacket(net, wp)
    a2 = np.abs(trace.amplitudes) ** 2
    centroid = np.trapezoid(trace.times * a2, trace.times) / np.trapezoid(a2, trace.times)
    delay = 2 / (gamma + Gamma)
    pulse_width = 1.0 / sigma
    assert abs(centroid - delay) < 0.02 * pulse_width


# ---------------------------------------------------------------------------
# click statistics


def test_click_zero_window():
    net = build_parallel([0.0], [1.0], [1.0])
    wp = offset_gaussian(0.0, 0.05, -50.0)
    assert click_probability(net, wp, 0.0) == 0.0


def test_click_long_time_limit():
    net = build_parallel([0.0], [1.0], [2.0])
    wp = offset_gaussian(0.0, 0.05, -60.0)
    limit = transmitted_fraction(net, wp)
    assert click_probability(net, wp, 500.0) == pytest.approx(limit, abs=1e-6)


def test_click_monotone_and_bounded():
    net = build_parallel([0.0], [1.0], [2.0])
    wp = offset_gaussian(0.0, 0.05, -40.0)
    taus, probs = click_curve(net, wp, 300.0)
    assert np.all(np.diff(probs) >= -1e-15)
    assert probs[-1] <= transmitted_fraction(net, wp) + 1e-9


def test_click_unit_probability_at_unity_transmission():
    # quasi-monochromatic packet on a balanced resonance: always detected
    net = build_parallel([0.0], [1.0], [1.0])
    wp = offset_gaussian(0.0, 0.01, -300.0)
    assert click_probability(net, wp, 3000.0) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# aggregate report


def test_compute_report_simple_model():
    gamma, Gamma = 1.0, 1.0
    net = build_parallel([0.0], [gamma], [Gamma])
    report = compute_report(net)
    assert report.bandwidth == pytest.approx(1.0, rel=5e-3)
    assert report.dispersion == pytest.approx(1.0, rel=1e-2)
    assert report.total_phase_change == pytest.approx(np.pi, rel=1e-2)
    np.testing.assert_allclose(report.unity_peaks, [0.0], atol=1e-6)
    assert len(report.reflection_zeros) == 0


def test_report_without_pole_basis():
    # at an exceptional point the eigenvectors of M coalesce and the engine
    # solves densely: the phase still comes from the eigenvalues, the
    # bandwidth from the grid (the Gramian gives 0.375)
    net = build_series([0.0, 0.0], 1.0, 3.0, [0.5])
    assert net._poles is None
    report = compute_report(net)
    resp = sweep(net, bandwidth_grid(net))
    assert report.bandwidth == spectral_bandwidth(resp)
    assert report.bandwidth == pytest.approx(0.375, rel=1e-6)
    assert np.max(np.abs(np.sin(report.phase - np.angle(resp.transmission())))) < 1e-9
    assert report.total_phase_change == pytest.approx(2 * np.pi, rel=1e-6)


def test_report_reads_the_network_the_response_was_swept_from():
    # the response carries its network, so a report cannot pair one
    # network's poles with another network's samples
    net = build_parallel([0.0, 2.0], [1.0, 1.0], [1.0, 1.0], side_decays=([0.5, 0.0],))
    grid = SweepGrid.linspace(-6.0, 6.0, 3001)
    resp = sweep(net, grid)
    assert resp.network is net
    report = compute_report(net, grid=grid, tol=1e-3)
    np.testing.assert_array_equal(report.frequencies, grid.frequencies)
    np.testing.assert_array_equal(report.phase, unwrap_phase(resp))
    np.testing.assert_array_equal(report.group_delay, group_delay(resp))
    assert report.dispersion == dispersion(resp)
    np.testing.assert_array_equal(report.unity_peaks, find_unity_peaks(resp, tol=1e-3))
