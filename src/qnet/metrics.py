"""Photo-detection figures of merit derived from a scattering response.

Conventions (fixed package-wide):
  * spectra use the e^{-i omega t} time convention; the physical group
    delay is tau_g(omega) = +d(arg T)/d(omega), so the single-state
    network peaks at +2/(gamma+Gamma) on resonance,
  * wavepackets satisfy psi(t) = (1/sqrt(2 pi)) Int psi~(omega)
    e^{-i omega t} d omega and Int |psi~|^2 d omega = 1.

Phase is tracked on T(omega)^2 rather than T(omega): squaring removes the
sign flip at real zeros of T, so the phase stays continuous through
perfect-reflection frequencies and N resonances wind it by N pi.

Functions that take ``net`` (the network a response was swept from) use
its poles lambda_k, the eigenvalues of the state matrix M.  Without side
channels S(omega) is unitary, and symmetric since M = M^T; a 2 x 2 such S
has det S = -T / conj(T), and Sylvester's identity (M - K^T K = -M^H) gives

    T^2 = -det S |T|^2,   det S = prod_k (-conj(lambda_k) - i omega) / (lambda_k - i omega).

So the phase is a Blaschke product over the poles (Youla, Castriota &
Carlin, IRE Trans. Circuit Theory 6, 102 (1959)), and with it the delay:

    phi = phi_0 - sum_k arg(lambda_k - i omega),   tau_g = sum_k Re lambda_k / |lambda_k - i omega|^2.

No grid step can alias a narrow mode away, and since Re lambda_k > 0,
tau_g >= 0 for every lossless two-port.  Dark poles (Re lambda at
round-off level) cancel against their own zero in det S and are skipped.
Side channels give T zeros off the real axis; their share of the phase,
rho = (1/2) unwrap angle(T^2 prod_k (lambda_k - i omega)^2 / |...|^2), is
unwrapped from the samples (raising UnresolvablePhaseJump where it cannot
be) and differenced centrally.  Without side channels rho is constant.

The bandwidth (1/pi) Int |T|^2 d omega of T = sum_k r_k / (lambda_k - i
omega) is a Cauchy-matrix sum, the H2 norm (Zhou, Doyle & Glover, Robust
and Optimal Control, 1996).  By the matrix determinant lemma R(omega) =
det(M - k_a^T k_a - i omega) / det(M - i omega), so |T| = 1, which needs
R = 0, happens only at Im mu for eigenvalues mu of M - k_a^T k_a.
Nothing here imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotNormalized,
    SupportMismatch,
    UnresolvablePhaseJump,
    ValidationError,
    WindowTooNarrow,
)
from .netcore import NetworkSpec, SweepGrid
from .scatter import (
    _EPS,
    _POLE_CHUNK_BYTES,
    ScatteringResponse,
    _smatrices,
    port_coupling_matrix,
    state_matrix,
    sweep,
)
from .scatter import smatrix  # noqa: F401  (a lookup site bench/test_bench.py traces)

_JUMP_THRESHOLD = 0.45 * np.pi
_TAIL_TOLERANCE = 0.005


# ---------------------------------------------------------------------------
# wavepackets


@dataclass(frozen=True)
class Wavepacket:
    """Spectral amplitude psi~(omega) on a frequency grid, unit-normalized
    under trapezoid quadrature (within 1e-8)."""

    grid: SweepGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != self.grid.frequencies.shape:
            raise ValidationError("amplitudes must match the grid point-for-point")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        norm = np.trapezoid(np.abs(amp) ** 2, self.grid.frequencies)
        if abs(norm - 1.0) > 1e-8:
            raise NotNormalized(f"Int |psi~|^2 d omega = {norm!r}, expected 1")

    @classmethod
    def gaussian(cls, center, sigma, grid=None, span=8.0, points=4001) -> "Wavepacket":
        """Gaussian spectral amplitude of rms frequency width ``sigma``.

        The analytic normalization is corrected numerically on the grid so
        the trapezoid norm is exactly one.
        """
        if grid is None:
            grid = SweepGrid.linspace(center - span * sigma, center + span * sigma, points)
        w = grid.frequencies
        amp = np.exp(-((w - center) ** 2) / (4.0 * sigma**2)).astype(complex)
        amp /= np.sqrt(np.trapezoid(np.abs(amp) ** 2, w))
        return cls(grid=grid, amplitudes=amp)


# ---------------------------------------------------------------------------
# phase and group delay


def _bright_poles(net: NetworkSpec) -> np.ndarray:
    """Poles lambda_k of ``net`` that couple to a port: every pole of the
    cached basis, or, where the engine has none, the eigenvalues whose
    Re lambda exceeds the engine's dark-state floor N eps |M|."""
    basis = net._poles
    if basis is not None:
        return basis.poles
    M = state_matrix(net)
    lam = np.linalg.eigvals(M)
    return lam[lam.real > net.size * _EPS * np.linalg.norm(M, 2)]


def _pole_sums(net: NetworkSpec, w: np.ndarray) -> np.ndarray:
    """Rows (theta, tau, dtau) at every omega of ``w``, summed over the
    bright poles with z_k = lambda_k - i omega: the pole phase
    theta = -sum_k arg z_k, its derivative tau = sum_k Re(1/z_k) =
    sum_k Re lambda_k / |z_k|^2, and that one's derivative
    dtau = -Im sum_k 1/z_k^2.  Evaluated in (F, N) blocks of at most
    _POLE_CHUNK_BYTES."""
    lam = _bright_poles(net)
    out = np.empty((3, len(w)))
    chunk = max(1, _POLE_CHUNK_BYTES // (16 * max(1, lam.size)))
    for lo in range(0, len(w), chunk):
        z = lam - 1j * w[lo : lo + chunk, None]
        d = 1.0 / z
        out[0, lo : lo + chunk] = -np.angle(z).sum(axis=1)
        out[1, lo : lo + chunk] = d.real.sum(axis=1)
        out[2, lo : lo + chunk] = -(d * d).imag.sum(axis=1)
    return out


def _sampled_phase(w: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Phase of T from its samples alone: the half-angle increments of T^2,
    summed from angle(T) at the first sample where T != 0; samples where T
    vanishes are interpolated.  An increment above the safe threshold (or
    NaN) raises UnresolvablePhaseJump."""
    good = np.flatnonzero(T != 0)
    if good.size == 0:
        return np.zeros_like(w)
    t = T[good]
    inc = 0.5 * np.angle((t[1:] / t[:-1]) ** 2)
    bad = np.flatnonzero(~(np.abs(inc) <= _JUMP_THRESHOLD))
    if bad.size:
        raise UnresolvablePhaseJump(float(w[good[bad[0]]]), float(w[good[bad[0] + 1]]))
    phi_good = np.cumsum(np.concatenate([[np.angle(t[0])], inc]))
    phi = np.interp(w, w[good], phi_good)
    phi[good] = phi_good
    return phi


def _exact_phase(resp: ScatteringResponse, net: NetworkSpec):
    """(phi, tau_g, d tau_g / d omega) on the grid of ``resp`` from the
    poles of ``net``, with the zeros' share added for side channels.

    phi equals angle(T) at the first sample where |T| is a normal float
    (the first sample if there is none): a subnormal T keeps too few bits
    for its angle, and in the far tails of a comb the first nonzero T is
    5e-324, whose angle is off by up to 5e-5."""
    T = resp.transmission()
    w = resp.grid.frequencies
    theta, tau, dtau = _pole_sums(net, w)
    first = int(np.argmax(np.abs(T) >= np.finfo(float).tiny))
    phi = (theta - theta[first]) + np.angle(T[first])
    if net.side_decays:
        rho = _sampled_phase(w, T * np.exp(-1j * theta))
        drho = np.gradient(rho, w)
        phi += rho - rho[first]
        tau += drho
        dtau += np.gradient(drho, w)
    return phi, tau, dtau


def unwrap_phase(resp: ScatteringResponse, net: NetworkSpec | None = None) -> np.ndarray:
    """Continuous phase phi(omega) of the transmission over the grid.

    With ``net``, the network ``resp`` was swept from, the phase is the
    pole sum phi_0 - sum_k arg(lambda_k - i omega), exact at any grid
    spacing and anchored to angle(T) at the first sample where |T| is a
    normal float; side channels add their zeros' share, unwrapped from the
    samples.  Without it, the phase is unwrapped from the samples alone,
    starting from angle(T) at the first sample where T != 0, and an
    increment above the safe half-angle threshold raises
    UnresolvablePhaseJump.
    """
    if net is None:
        return _sampled_phase(resp.grid.frequencies, resp.transmission())
    return _exact_phase(resp, net)[0]


def total_phase_change(phase: np.ndarray) -> float:
    """Accumulated phase across the sweep, phi(omega_max) - phi(omega_min)."""
    return float(phase[-1] - phase[0])


def group_delay(resp: ScatteringResponse, phase=None, net: NetworkSpec | None = None) -> np.ndarray:
    """tau_g(omega) = d phi / d omega.  Positive values delay the
    transmitted pulse under the e^{-i omega t} convention.

    With ``net`` it is the pole sum sum_k Re lambda_k / |lambda_k - i
    omega|^2, plus the central difference of the zeros' share for side
    channels, and ``phase`` is not used.  Without it, central differences
    of ``phase`` (default: `unwrap_phase`), one-sided at the ends.
    """
    if net is not None:
        return _exact_phase(resp, net)[1]
    return np.gradient(unwrap_phase(resp) if phase is None else phase, resp.grid.frequencies)


# ---------------------------------------------------------------------------
# bandwidth and dispersion


def bandwidth_grid(net: NetworkSpec, tail_frac=0.001, points_per_linewidth=40) -> SweepGrid:
    """Grid certified for spectral-bandwidth quadrature: a dense core over
    the band the poles can occupy plus logarithmically spaced far tails,
    wide enough that the Lorentzian tail bound (sum of rates)^2 / W stays
    below ``tail_frac`` of the integral estimate.  Every Im lambda_k lies
    in the numerical range of g + diag(omega_i), so within |g|_2 of the
    bare resonances; the core pads that band by 20 linewidths."""
    rates = net.total_rates()
    total = float(rates.sum())
    lw = float(np.min(rates[rates > 0])) / 2.0
    est = np.pi * float(
        np.sum(
            2.0
            * net.input_decays
            * net.output_decays
            / np.where(rates > 0, rates, 1.0)
        )
    )
    est = max(est, np.pi * lw * 1e-3)
    W = max(total**2 / (tail_frac * est), 40.0 * total)
    gnorm = float(np.linalg.norm(net.coupling, 2)) if net.size > 1 else 0.0
    core_lo = float(net.resonances.min()) - gnorm - 20.0 * lw
    core_hi = float(net.resonances.max()) + gnorm + 20.0 * lw
    pts = min(400_000, max(41, int(np.ceil((core_hi - core_lo) / lw * points_per_linewidth))))
    core = np.linspace(core_lo, core_hi, pts)
    ntail = 2000
    left = core_lo - np.geomspace(W, core[1] - core[0], ntail)
    right = core_hi + np.geomspace(core[1] - core[0], W, ntail)
    return SweepGrid(np.concatenate([left, core[:-1], right]))


def spectral_bandwidth(resp: ScatteringResponse) -> float:
    """Bandwidth (1/pi) Int |T|^2 d omega, trapezoid plus an analytic
    correction for the Lorentzian 1/Delta^2 tails beyond the window.

    Raises WindowTooNarrow if the estimated tail exceeds 0.5% of the
    integral.
    """
    w = resp.grid.frequencies
    t2 = np.abs(resp.transmission()) ** 2
    body = np.trapezoid(t2, w)
    if body <= 0:
        return 0.0
    centroid = np.trapezoid(w * t2, w) / body
    tail = t2[0] * max(centroid - w[0], 0.0) + t2[-1] * max(w[-1] - centroid, 0.0)
    if tail > _TAIL_TOLERANCE * body:
        raise WindowTooNarrow(
            f"tail estimate {tail!r} exceeds {_TAIL_TOLERANCE:%} of the integral {body!r}"
        )
    return float((body + tail) / np.pi)


def _pole_bandwidth(basis) -> float:
    """(1/pi) Int |T|^2 d omega = 2 Re sum_jk r_j conj(r_k) / (lambda_j +
    conj(lambda_k)) for T = sum_k r_k / (lambda_k - i omega), the
    residues r_k = -B_bk C_ka of the pole basis."""
    r = -basis.residues[basis.ports.shape[0]]  # row b * P + a
    lam = basis.poles
    return float(2.0 * np.real((np.outer(r, r.conj()) / (lam[:, None] + lam.conj())).sum()))


def dispersion(resp: ScatteringResponse, tau=None, net: NetworkSpec | None = None) -> float:
    """Group-delay dispersion Int |d tau_g / d omega| |T|^2 d omega.

    With ``net``, d tau_g / d omega is the pole sum's closed form (plus
    the zeros' share for side channels) and ``tau`` is not used.  Without
    it, central differences of ``tau`` (default: `group_delay`)."""
    if net is not None:
        return _dispersion(resp, _exact_phase(resp, net)[2])
    w = resp.grid.frequencies
    return _dispersion(resp, np.gradient(group_delay(resp) if tau is None else tau, w))


def _dispersion(resp: ScatteringResponse, dtau: np.ndarray) -> float:
    t2 = np.abs(resp.transmission()) ** 2
    return float(np.trapezoid(np.abs(dtau) * t2, resp.grid.frequencies))


# ---------------------------------------------------------------------------
# peak and zero structure


def _transmission_at(net: NetworkSpec, freqs: np.ndarray) -> np.ndarray:
    """T(omega) at any 1-D frequency array through the batched engine, in
    the chunks `sweep` uses; each value equals ``smatrix(net, omega)[1, 0]``."""
    p = net.n_ports
    chunk = max(1, _POLE_CHUNK_BYTES // (16 * net.size * p * p))
    out = np.empty(len(freqs), dtype=complex)
    for lo in range(0, len(freqs), chunk):
        out[lo : lo + chunk] = _smatrices(net, freqs[lo : lo + chunk])[:, 1, 0]
    return out


def _quadratic_peaks(w: np.ndarray, t2: np.ndarray) -> tuple:
    """(frequencies, values) of the local maxima of the samples ``t2`` on
    the uniform grid ``w``, each sharpened by a quadratic through its
    bracketing triple where that one curves downwards."""
    # every point of a flat stretch (|T|^2 = 0 exactly in far tails) counts
    # as a maximum, so the brackets are handled as arrays, not a loop; k
    # indexes the left end of each bracket, so w[k + 1] is its maximum
    k = ((t2[1:-1] >= t2[:-2]) & (t2[1:-1] >= t2[2:])).nonzero()[0]
    y0, y1, y2 = t2[k], t2[1:-1][k], t2[2:][k]
    v, f = y1.copy(), w[1:-1][k]
    denom = y0 - 2 * y1 + y2
    fit = (denom < 0).nonzero()[0]
    dy = (y0 - y2)[fit]
    s = 0.5 * dy / denom[fit]
    v[fit] = y1[fit] - 0.25 * dy * s
    f[fit] += s * (w[2:][k][fit] - f[fit])
    return f, v


def _unity_candidates(net: NetworkSpec) -> tuple:
    """(omega, |T|^2): Im mu, sorted, for the eigenvalues mu of M - k_a^T
    k_a, the only frequencies where R can vanish, and the engine's |T|^2
    there.  Where no pole basis rules dark states out, a unit eigenvector
    with |K v|^2 / 2 = Re v^H M v below the engine's dark floor N eps |M|
    (a dark state, with A singular at its frequency) is dropped."""
    K, M = port_coupling_matrix(net), state_matrix(net)
    if net._poles is not None:
        mu = np.linalg.eigvals(M - np.outer(K[0], K[0]))
    else:
        mu, V = np.linalg.eig(M - np.outer(K[0], K[0]))
        mu = mu[0.5 * (np.abs(K @ V) ** 2).sum(axis=0) > net.size * _EPS * np.linalg.norm(M, 2)]
    w = np.sort(mu.imag)
    return w, np.abs(_transmission_at(net, w)) ** 2


def find_unity_peaks(resp: ScatteringResponse, tol=1e-6, net: NetworkSpec | None = None) -> np.ndarray:
    """Frequencies in the response window where |T|^2 reaches 1 - tol.

    With ``net``, the network ``resp`` was swept from, the candidates of
    `_unity_candidates` inside the window are kept where the engine gives
    |T|^2 >= 1 - tol.  Without it, the `_quadratic_peaks` of the sampled
    |T|^2 are kept where the fit reaches 1 - tol.  A peak within half a
    grid step of the last one kept is dropped.
    """
    w = resp.grid.frequencies
    if net is not None:
        cand, t2 = _unity_candidates(net)
        peaks = cand[(cand >= w[0]) & (cand <= w[-1]) & (t2 >= 1.0 - tol)]
    else:
        wp, vp = _quadratic_peaks(w, np.abs(resp.transmission()) ** 2)
        peaks = np.sort(wp[vp >= 1.0 - tol])
    if peaks.size > 1:
        # near-degenerate eigenvalues, or adjacent brackets, may name the
        # same maximum: drop each peak within half a grid step of the last
        # one kept (comparing with the last one dropped instead would let a
        # run of close peaks swallow distinct maxima at a band edge)
        min_sep = 0.5 * float(np.min(np.diff(w)))
        kept = [peaks[0]]
        for p in peaks[1:]:
            if p - kept[-1] > min_sep:
                kept.append(p)
        peaks = np.array(kept)
    return peaks


def find_reflection_zeros(net: NetworkSpec) -> np.ndarray:
    """Perfect-reflection frequencies of a parallel network: the roots of
    h(omega) = sum_i sqrt(gamma_i Gamma_i) / (omega - omega_i) = 0.

    Without side channels these are the zeros of T = c (M - i omega)^{-1} b:
    the damping K^T K / 2 is then state feedback through b plus output
    injection through c, which leave zeros unchanged.  h is strictly
    decreasing between consecutive poles, so each inter-pole bracket holds
    one root; all are bisected together until their ends are adjacent floats.
    """
    if np.any(net.coupling != 0):
        raise ValidationError("reflection zeros are defined for parallel networks")
    order = np.argsort(net.resonances)
    om = net.resonances[order]
    weight = np.sqrt(net.input_decays * net.output_decays)[order]
    keep = weight > 0
    om, weight = om[keep], weight[keep]
    lo, hi = om[:-1], om[1:]
    lo, hi = lo[hi != lo], hi[hi != lo]
    eps = (hi - lo) * 1e-12
    lo, hi = lo + eps, hi - eps
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (mid != lo) & (mid != hi)
        if not np.any(open_):
            return mid
        above = (weight / (mid[:, None] - om)).sum(axis=1) > 0
        lo = np.where(open_ & above, mid, lo)
        hi = np.where(open_ & ~above, mid, hi)


# ---------------------------------------------------------------------------
# wavepacket propagation and click statistics


@dataclass(frozen=True)
class TimeTrace:
    """Complex amplitude samples psi(t) on a uniform time grid."""

    times: np.ndarray
    amplitudes: np.ndarray


def _transmission_on(resp: ScatteringResponse, grid: SweepGrid) -> np.ndarray:
    wr = resp.grid.frequencies
    wq = grid.frequencies
    if wq[0] < wr[0] or wq[-1] > wr[-1]:
        raise SupportMismatch(
            f"wavepacket support [{wq[0]!r}, {wq[-1]!r}] exceeds the "
            f"response window [{wr[0]!r}, {wr[-1]!r}]"
        )
    T = resp.transmission()
    return np.interp(wq, wr, T.real) + 1j * np.interp(wq, wr, T.imag)


def _quadrature_ift(w, filtered, times, chunk=256):
    """Int filtered(omega) e^{-i omega t} d omega at each t, trapezoid,
    chunked over times to bound the phase-matrix memory."""
    out = np.empty(len(times), dtype=complex)
    for lo in range(0, len(times), chunk):
        t = times[lo : lo + chunk]
        phases = np.exp(-1j * np.outer(t, w))
        out[lo : lo + chunk] = np.trapezoid(phases * filtered[None, :], w, axis=1)
    return out


def propagate_wavepacket(resp: ScatteringResponse, packet: Wavepacket, oversample=4, time_span=None) -> TimeTrace:
    """Transmitted time-domain amplitude psi_out(t) =
    (1/sqrt(2 pi)) Int T(omega) psi~(omega) e^{-i omega t} d omega,
    by direct quadrature on a uniform time grid.

    The time step satisfies Nyquist for the spectral span; the window,
    unless given, spans +-30 inverse rms widths of the filtered spectrum,
    which covers the pulse and any group-delay shift of interest.
    """
    w = packet.grid.frequencies
    filtered = _transmission_on(resp, packet.grid) * packet.amplitudes
    span = w[-1] - w[0]
    if time_span is None:
        f2 = np.abs(filtered) ** 2
        norm = np.trapezoid(f2, w)
        if norm > 0:
            wc = np.trapezoid(w * f2, w) / norm
            sigma = np.sqrt(np.trapezoid((w - wc) ** 2 * f2, w) / norm)
        else:
            sigma = 0.0
        sigma = max(sigma, span / len(w))
        time_span = 60.0 / sigma
    dt = np.pi / (oversample * span)
    n = min(400_001, int(np.ceil(time_span / dt)) + 1)
    times = np.linspace(-time_span / 2.0, time_span / 2.0, n)
    psi = _quadrature_ift(w, filtered, times) / np.sqrt(2 * np.pi)
    return TimeTrace(times=times, amplitudes=psi)


def _filtered_time_kernel(resp, packet, times):
    """g(t) = Int T psi~ e^{-i omega t} d omega on the given times."""
    w = packet.grid.frequencies
    filtered = _transmission_on(resp, packet.grid) * packet.amplitudes
    return _quadrature_ift(w, filtered, times)


def click_curve(resp: ScatteringResponse, packet: Wavepacket, tau_max, points=None):
    """Detection probability P(tau) on tau in [0, tau_max].

    P(tau) = (1/2 pi) Int_{-tau}^{0} |g(t)|^2 dt with
    g(t) = Int T psi~ e^{-i omega t} d omega; computed as a cumulative
    trapezoid so the curve is monotone nondecreasing by construction.
    Returns (taus, probabilities).
    """
    w = packet.grid.frequencies
    span = w[-1] - w[0]
    if points is None:
        points = int(min(200_000, max(501, np.ceil(4 * span * tau_max / np.pi))))
    times = np.linspace(-float(tau_max), 0.0, points)
    g2 = np.abs(_filtered_time_kernel(resp, packet, times)) ** 2
    dt = times[1] - times[0]
    segs = 0.5 * dt * (g2[:-1] + g2[1:])
    cum = np.concatenate([[0.0], np.cumsum(segs[::-1])]) / (2 * np.pi)
    return -times[::-1], cum


def click_probability(resp: ScatteringResponse, packet: Wavepacket, tau_window) -> float:
    """Probability of a detector click within the window [-tau, 0].

    Monotone in the window length; for tau -> infinity it approaches
    Int |psi~|^2 |T|^2 d omega (the Born-rule trace of the time-integrated
    detection operator)."""
    if tau_window <= 0:
        return 0.0
    taus, probs = click_curve(resp, packet, tau_window)
    return float(probs[-1])


def transmitted_fraction(resp: ScatteringResponse, packet: Wavepacket) -> float:
    """Long-time click probability Int |psi~|^2 |T|^2 d omega."""
    w = packet.grid.frequencies
    T = _transmission_on(resp, packet.grid)
    return float(np.trapezoid(np.abs(packet.amplitudes * T) ** 2, w))


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class MetricsReport:
    """All scalar and sampled figures of merit for one network response."""

    bandwidth: float
    dispersion: float
    unity_peaks: np.ndarray
    reflection_zeros: np.ndarray
    phase: np.ndarray
    group_delay: np.ndarray
    total_phase_change: float
    frequencies: np.ndarray


def compute_report(net: NetworkSpec, resp: ScatteringResponse | None = None, tol=1e-6) -> MetricsReport:
    """One-call evaluation of every metric for ``net``.

    Uses a bandwidth-certified grid when no response is supplied.  Phase,
    group delay, dispersion, bandwidth and unity peaks come from the
    network's poles (see the module notes); only a network without a pole
    basis, which the engine solves densely, integrates its bandwidth on
    the grid."""
    if resp is None:
        resp = sweep(net, bandwidth_grid(net))
    phase, tau, dtau = _exact_phase(resp, net)
    if np.all(net.coupling == 0) and net.size > 1:
        rzeros = find_reflection_zeros(net)
    else:
        rzeros = np.asarray([])
    basis = net._poles
    return MetricsReport(
        bandwidth=spectral_bandwidth(resp) if basis is None else _pole_bandwidth(basis),
        dispersion=_dispersion(resp, dtau),
        unity_peaks=find_unity_peaks(resp, tol=tol, net=net),
        reflection_zeros=rzeros,
        phase=phase,
        group_delay=tau,
        total_phase_change=total_phase_change(phase),
        frequencies=resp.grid.frequencies,
    )
