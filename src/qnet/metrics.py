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

A response carries the network it was swept from, and phase, delay,
dispersion and unity peaks all come from that network's poles lambda_k,
the eigenvalues of the state matrix M, not from the samples (side
channels aside, see below).  Without side channels S(omega) is unitary,
and symmetric since M = M^T; a 2 x 2 such S has det S = -T / conj(T), and
Sylvester's identity (M - K^T K = -M^H) gives

    T^2 = -det S |T|^2,   det S = prod_k (-conj(lambda_k) - i omega) / (lambda_k - i omega).

So the phase is a Blaschke product over the poles (Youla, Castriota &
Carlin, IRE Trans. Circuit Theory 6, 102 (1959)), and with it the delay:

    phi = phi_0 - sum_k arg(lambda_k - i omega),   tau_g = sum_k Re lambda_k / |lambda_k - i omega|^2.

No grid step can alias a narrow mode away, and since Re lambda_k > 0,
tau_g >= 0 for every lossless two-port.  Dark poles (Re lambda at
round-off level) cancel against their own zero in det S and are skipped.
Side channels give T zeros off the real axis; their share of the phase,
rho = (1/2) unwrap angle(T^2 prod_k (lambda_k - i omega)^2 / |...|^2), is
the one figure still read from the samples: it is unwrapped on the grid
(raising UnresolvablePhaseJump where it cannot be) and differenced
centrally.  Without side channels rho is constant.

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
    UnresolvablePhaseJump,
    ValidationError,
    WindowTooNarrow,
)
from .netcore import NetworkSpec, SweepGrid
from .scatter import (
    _POLE_CHUNK_BYTES,
    ScatteringResponse,
    _dark_floor,
    _smatrices,
    port_coupling_matrix,
    state_matrix,
    sweep,
)
from .scatter import smatrix  # noqa: F401  (a lookup site bench/test_bench.py traces)

_JUMP_THRESHOLD = 0.45 * np.pi
_TAIL_TOLERANCE = 0.005
# a linspace grid's steps differ from its mean step by up to about
# 2 eps max|omega| at any centre, span and size
_UNIFORM_EPS = 8.0


# ---------------------------------------------------------------------------
# wavepackets


@dataclass(frozen=True)
class Wavepacket:
    """Spectral amplitude psi~(omega) on a uniform frequency grid,
    unit-normalized under trapezoid quadrature (within 1e-8).

    Uniform means every step within _UNIFORM_EPS * eps * max|omega| of
    the mean step, which any `SweepGrid.linspace` grid meets; the time
    transforms (`_quadrature_ift`) rest on one frequency step."""

    grid: SweepGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        w = self.grid.frequencies
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != w.shape:
            raise ValidationError("amplitudes must match the grid point-for-point")
        off = np.abs(np.diff(w) - (w[-1] - w[0]) / max(w.size - 1, 1))
        if np.any(off > _UNIFORM_EPS * np.finfo(float).eps * np.max(np.abs(w))):
            raise ValidationError("a wavepacket grid must be uniform")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        norm = np.trapezoid(np.abs(amp) ** 2, w)
        if abs(norm - 1.0) > 1e-8:
            raise NotNormalized(f"Int |psi~|^2 d omega = {norm!r}, expected 1")

    @classmethod
    def gaussian(cls, center, sigma, span=8.0, points=4001, t0=0.0) -> "Wavepacket":
        """Gaussian spectral amplitude of rms frequency width ``sigma``,
        times e^{i omega t0}: a pulse centred at time ``t0``.

        The analytic normalization is corrected numerically on the grid so
        the trapezoid norm is exactly one.
        """
        grid = SweepGrid.linspace(center - span * sigma, center + span * sigma, points)
        w = grid.frequencies
        amp = np.exp(-((w - center) ** 2) / (4.0 * sigma**2)).astype(complex)
        amp /= np.sqrt(np.trapezoid(np.abs(amp) ** 2, w))
        if t0:
            amp *= np.exp(1j * w * t0)
        return cls(grid=grid, amplitudes=amp)


# ---------------------------------------------------------------------------
# phase and group delay


def _bright_poles(net: NetworkSpec) -> np.ndarray:
    """Poles lambda_k of ``net`` that couple to a port: every pole of the
    cached basis, or, where the engine has none, the eigenvalues whose
    Re lambda exceeds the engine's `_dark_floor`."""
    basis = net._poles
    if basis is not None:
        return basis.poles
    M = state_matrix(net)
    lam = np.linalg.eigvals(M)
    return lam[lam.real > _dark_floor(M)]


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
    """Phase of the samples T (the zeros' share rho of `_exact_phase`): the
    half-angle increments of T^2, summed from angle(T) at the first sample
    where T != 0; samples where T vanishes are interpolated.  An increment
    above the safe threshold (or NaN) raises UnresolvablePhaseJump."""
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


def _exact_phase(resp: ScatteringResponse):
    """(phi, tau_g, d tau_g / d omega) on the grid of ``resp`` from the
    poles of ``resp.network``, with the zeros' share added for side
    channels.

    phi equals angle(T) at the first sample where |T| is a normal float
    (the first sample if there is none): a subnormal T keeps too few bits
    for its angle, and in the far tails of a comb the first nonzero T is
    5e-324, whose angle is off by up to 5e-5."""
    net = resp.network
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


def unwrap_phase(resp: ScatteringResponse) -> np.ndarray:
    """Continuous phase phi(omega) of the transmission over the grid: the
    pole sum phi_0 - sum_k arg(lambda_k - i omega), exact at any grid
    spacing and anchored to angle(T) at the first sample where |T| is a
    normal float.  Side channels add their zeros' share, unwrapped from
    the samples (UnresolvablePhaseJump where a step is too coarse)."""
    return _exact_phase(resp)[0]


def total_phase_change(phase: np.ndarray) -> float:
    """Accumulated phase across the sweep, phi(omega_max) - phi(omega_min)."""
    return float(phase[-1] - phase[0])


def group_delay(resp: ScatteringResponse) -> np.ndarray:
    """tau_g(omega) = d phi / d omega, the pole sum sum_k Re lambda_k /
    |lambda_k - i omega|^2, plus the central difference of the zeros' share
    for side channels.  Positive values delay the transmitted pulse under
    the e^{-i omega t} convention."""
    return _exact_phase(resp)[1]


# ---------------------------------------------------------------------------
# bandwidth and dispersion


def bandwidth_grid(net: NetworkSpec) -> SweepGrid:
    """Grid certified for spectral-bandwidth quadrature: a dense core over
    the band the poles can occupy plus logarithmically spaced far tails,
    wide enough that the Lorentzian tail bound (sum of rates)^2 / W stays
    below 0.1% of the integral estimate.  Every Im lambda_k lies in the
    numerical range of g + diag(omega_i), so within |g|_2 of the bare
    resonances; the core pads that band by 20 linewidths, 40 points each."""
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
    W = max(total**2 / (0.001 * est), 40.0 * total)
    gnorm = float(np.linalg.norm(net.coupling, 2)) if net.size > 1 else 0.0
    core_lo = float(net.resonances.min()) - gnorm - 20.0 * lw
    core_hi = float(net.resonances.max()) + gnorm + 20.0 * lw
    pts = min(400_000, max(41, int(np.ceil((core_hi - core_lo) / lw * 40))))
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


def dispersion(resp: ScatteringResponse) -> float:
    """Group-delay dispersion Int |d tau_g / d omega| |T|^2 d omega, with
    d tau_g / d omega the pole sum's closed form (plus the zeros' share for
    side channels)."""
    return _dispersion(resp, _exact_phase(resp)[2])


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


def _port_reached(K: np.ndarray, M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Which unit eigenvectors, the columns of V, some port reaches: those
    with |K v|^2 / 2 = Re v^H M v above the engine's `_dark_floor`.  The
    others are dark states, with A singular at their frequency."""
    return 0.5 * (np.abs(K @ V) ** 2).sum(axis=0) > _dark_floor(M)


def _unity_candidates(net: NetworkSpec) -> tuple:
    """(omega, |T|^2): Im mu, sorted, for the eigenvalues mu of M - k_a^T
    k_a, the only frequencies where R can vanish, and the engine's |T|^2
    there.  Where no pole basis rules dark states out, an eigenvalue whose
    eigenvector fails `_port_reached` is dropped."""
    K, M = port_coupling_matrix(net), state_matrix(net)
    if net._poles is not None:
        mu = np.linalg.eigvals(M - np.outer(K[0], K[0]))
    else:
        mu, V = np.linalg.eig(M - np.outer(K[0], K[0]))
        mu = mu[_port_reached(K, M, V)]
    w = np.sort(mu.imag)
    return w, np.abs(_transmission_at(net, w)) ** 2


def find_unity_peaks(resp: ScatteringResponse, tol=1e-6) -> np.ndarray:
    """Frequencies in the response window where |T|^2 reaches 1 - tol: the
    candidates of `_unity_candidates` for ``resp.network`` inside the
    window where the engine gives |T|^2 >= 1 - tol.  A peak within half a
    grid step of the last one kept is dropped.
    """
    w = resp.grid.frequencies
    cand, t2 = _unity_candidates(resp.network)
    peaks = cand[(cand >= w[0]) & (cand <= w[-1]) & (t2 >= 1.0 - tol)]
    if peaks.size > 1:
        # near-degenerate eigenvalues may name the same maximum: drop each
        # peak within half a grid step of the last one kept (comparing with
        # the last one dropped instead would let a run of close peaks
        # swallow distinct maxima at a band edge)
        min_sep = 0.5 * float(np.min(np.diff(w)))
        kept = [peaks[0]]
        for p in peaks[1:]:
            if p - kept[-1] > min_sep:
                kept.append(p)
        peaks = np.array(kept)
    return peaks


def find_reflection_zeros(net: NetworkSpec) -> np.ndarray:
    """Perfect-reflection frequencies of a parallel network: the roots of
    h(omega) = sum_i sqrt(gamma_i Gamma_i) / (omega - omega_i) = 0, and,
    without side channels, the resonance of every state on one port only.

    Without side channels these are the zeros of T = c (M - i omega)^{-1} b:
    the damping K^T K / 2 is then state feedback through b plus output
    injection through c, which leave zeros unchanged, and a state that b or
    c misses is a decoupling zero at its own resonance.  With no state on
    both ports T = 0 everywhere and none are returned.  h is strictly
    decreasing between consecutive poles, so each inter-pole bracket holds
    one root; all are bisected together until their ends are adjacent floats.
    """
    if np.any(net.coupling != 0):
        raise ValidationError("reflection zeros are defined for parallel networks")
    order = np.argsort(net.resonances)
    om = net.resonances[order]
    weight = np.sqrt(net.input_decays * net.output_decays)[order]
    keep = weight > 0
    if not np.any(keep):
        return np.zeros(0)
    one_port = (net.input_decays > 0) != (net.output_decays > 0)
    lone = np.zeros(0) if net.side_decays else net.resonances[one_port]
    om, weight = om[keep], weight[keep]
    lo, hi = om[:-1], om[1:]
    lo, hi = lo[hi != lo], hi[hi != lo]
    eps = (hi - lo) * 1e-12
    lo, hi = lo + eps, hi - eps
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (mid != lo) & (mid != hi)
        if not np.any(open_):
            return np.union1d(mid, lone)
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


def _filtered(net: NetworkSpec, packet: Wavepacket) -> np.ndarray:
    """T(omega) psi~(omega) on the packet's grid, T from one `sweep` of
    ``net`` there."""
    return sweep(net, packet.grid).transmission() * packet.amplitudes


def _halves(x):
    """x split into two parts of at most 26 significant bits each (Dekker,
    Numer. Math. 18, 224 (1971)), whose pairwise products are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _chirp(a, n):
    """exp(-i a m^2 / 2) for m = 0 .. n-1.  m^2 / 2 is exact, and the
    rounding error of the product a m^2 / 2 is added back (Dekker's
    two-product), so a phase of 10^6 rad keeps its last digits."""
    m = np.arange(n, dtype=float)
    q = 0.5 * m * m
    p = a * q
    ah, al = _halves(a)
    qh, ql = _halves(q)
    err = ((ah * qh - p) + ah * ql + al * qh) + al * ql
    return np.exp(-1j * p) * (1.0 - 1j * err)


def _quadrature_ift(w, filtered, times):
    """Int filtered(omega) e^{-i omega t} d omega at each t, the trapezoid
    sum on the uniform frequency grid ``w``, for uniform ``times``, by the
    chirp-z transform (Rabiner, Schafer & Rader, IEEE Trans. Audio
    Electroacoust. 17, 86 (1969)).

    With w_j = w_0 + j dw and t_k = t_0 + k dt, t_k w_j = t_k w_0 +
    t_0 (w_j - w_0) + a k j with a = dt dw, and k j = (k^2 + j^2 -
    (k - j)^2) / 2 turns the sum over j into a linear convolution with the
    chirp exp(i a m^2 / 2), done by FFT at a power-of-two length of at
    least F + T - 1: O((F + T) log(F + T)) time and O(F + T) memory."""
    F, T = len(w), len(times)
    a = (w[-1] - w[0]) / max(F - 1, 1) * ((times[-1] - times[0]) / max(T - 1, 1))
    chirp = _chirp(a, max(F, T))
    step = np.diff(w)
    weights = np.zeros(F)  # the trapezoid weights, halved below
    weights[1:] += step
    weights[:-1] += step
    x = 0.5 * weights * filtered * np.exp(-1j * times[0] * (w - w[0])) * chirp[:F]
    n = 1 << (F + T - 2).bit_length()
    kernel = np.zeros(n, dtype=complex)
    kernel[:T] = chirp[:T].conj()
    kernel[n - F + 1 :] = chirp[F - 1 : 0 : -1].conj()
    spectrum = np.fft.fft(x, n)
    spectrum *= np.fft.fft(kernel)
    return np.fft.ifft(spectrum)[:T] * chirp[:T] * np.exp(-1j * times * w[0])


def propagate_wavepacket(net: NetworkSpec, packet: Wavepacket) -> TimeTrace:
    """Transmitted time-domain amplitude psi_out(t) =
    (1/sqrt(2 pi)) Int T(omega) psi~(omega) e^{-i omega t} d omega,
    the trapezoid sum on the packet's grid evaluated on a uniform time
    grid by the chirp-z transform of `_quadrature_ift`.

    The time step satisfies Nyquist for the spectral span 4 times over;
    the window spans +-30 inverse rms widths of the filtered spectrum,
    which covers the pulse and any group-delay shift of interest.
    """
    w = packet.grid.frequencies
    filtered = _filtered(net, packet)
    span = w[-1] - w[0]
    f2 = np.abs(filtered) ** 2
    norm = np.trapezoid(f2, w)
    sigma = span / len(w)  # the floor for a spectrum that transmits nothing
    if norm > 0:
        wc = np.trapezoid(w * f2, w) / norm
        sigma = max(np.sqrt(np.trapezoid((w - wc) ** 2 * f2, w) / norm), sigma)
    time_span = 60.0 / sigma
    dt = np.pi / (4 * span)
    n = min(400_001, int(np.ceil(time_span / dt)) + 1)
    times = np.linspace(-time_span / 2.0, time_span / 2.0, n)
    psi = _quadrature_ift(w, filtered, times) / np.sqrt(2 * np.pi)
    return TimeTrace(times=times, amplitudes=psi)


def click_curve(net: NetworkSpec, packet: Wavepacket, tau_max):
    """Detection probability P(tau) on tau in [0, tau_max].

    P(tau) = (1/2 pi) Int_{-tau}^{0} |g(t)|^2 dt with
    g(t) = Int T psi~ e^{-i omega t} d omega from the chirp-z transform of
    `_quadrature_ift`; a cumulative trapezoid on 501 to 200,000 times at
    4x the Nyquist rate of the spectral span, so the curve is monotone
    nondecreasing by construction.
    Returns (taus, probabilities).
    """
    w = packet.grid.frequencies
    span = w[-1] - w[0]
    points = int(min(200_000, max(501, np.ceil(4 * span * tau_max / np.pi))))
    times = np.linspace(-float(tau_max), 0.0, points)
    g2 = np.abs(_quadrature_ift(w, _filtered(net, packet), times)) ** 2
    dt = times[1] - times[0]
    segs = 0.5 * dt * (g2[:-1] + g2[1:])
    cum = np.concatenate([[0.0], np.cumsum(segs[::-1])]) / (2 * np.pi)
    return -times[::-1], cum


def click_probability(net: NetworkSpec, packet: Wavepacket, tau_window) -> float:
    """Probability of a detector click within the window [-tau, 0].

    Monotone in the window length; for tau -> infinity it approaches
    Int |psi~|^2 |T|^2 d omega (the Born-rule trace of the time-integrated
    detection operator)."""
    if tau_window <= 0:
        return 0.0
    taus, probs = click_curve(net, packet, tau_window)
    return float(probs[-1])


def transmitted_fraction(net: NetworkSpec, packet: Wavepacket) -> float:
    """Long-time click probability Int |psi~|^2 |T|^2 d omega."""
    return float(np.trapezoid(np.abs(_filtered(net, packet)) ** 2, packet.grid.frequencies))


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


def compute_report(net: NetworkSpec, grid: SweepGrid | None = None, tol=1e-6) -> MetricsReport:
    """One-call evaluation of every metric for ``net``, swept on ``grid``
    (default: `bandwidth_grid`).

    Phase, group delay, dispersion, bandwidth and unity peaks come from the
    network's poles (see the module notes); only a network without a pole
    basis, which the engine solves densely, integrates its bandwidth on
    the grid."""
    resp = sweep(net, bandwidth_grid(net) if grid is None else grid)
    phase, tau, dtau = _exact_phase(resp)
    if np.all(net.coupling == 0) and net.size > 1:
        rzeros = find_reflection_zeros(net)
    else:
        rzeros = np.asarray([])
    basis = net._poles
    return MetricsReport(
        bandwidth=spectral_bandwidth(resp) if basis is None else _pole_bandwidth(basis),
        dispersion=_dispersion(resp, dtau),
        unity_peaks=find_unity_peaks(resp, tol=tol),
        reflection_zeros=rzeros,
        phase=phase,
        group_delay=tau,
        total_phase_change=total_phase_change(phase),
        frequencies=resp.grid.frequencies,
    )
