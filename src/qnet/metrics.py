"""Photo-detection figures of merit derived from a scattering response.

Conventions (fixed package-wide):
  * spectra use the e^{-i omega t} time convention; the physical group
    delay is tau_g(omega) = +d(arg T)/d(omega), so the single-state
    network peaks at +2/(gamma+Gamma) on resonance,
  * wavepackets satisfy psi(t) = (1/sqrt(2 pi)) Int psi~(omega)
    e^{-i omega t} d omega and Int |psi~|^2 d omega = 1.

Phase unwrapping works on T(omega)^2 rather than T(omega): squaring
removes the sign flip at real zeros of T, so the half-angle increments
stay continuous through perfect-reflection frequencies and the total
phase change across N resonances accumulates to N pi instead of
collapsing back to ~pi.
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
from .scatter import ScatteringResponse, smatrix, sweep

_JUMP_THRESHOLD = 0.45 * np.pi
_REFINE_LEVELS = 10
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


def _half_increment(t0, t1):
    """Phase change from t0 to t1 modulo pi, mapped to (-pi/2, pi/2]."""
    return 0.5 * np.angle((t1 / t0) ** 2)


def _refined_increment(w0, w1, t0, t1, refine, depth):
    # The endpoint ratio fixes the increment only modulo pi, so a small
    # value is not proof of a small true change: a coarse interval can
    # alias away whole multiples of pi.  Every interval is therefore
    # verified by one midpoint sample; it is accepted only when both
    # halves are below the safe threshold and carry the same winding as
    # the direct estimate, otherwise both halves are refined in turn.
    inc = _half_increment(t0, t1)
    if refine is None or depth >= _REFINE_LEVELS:
        if abs(inc) <= _JUMP_THRESHOLD:
            return inc
        raise UnresolvablePhaseJump(float(w0), float(w1))
    wm = 0.5 * (w0 + w1)
    tm = complex(np.asarray(refine(wm)).reshape(()))
    if tm != 0.0 and t0 != 0.0 and t1 != 0.0:
        left = _half_increment(t0, tm)
        right = _half_increment(tm, t1)
        if (
            abs(inc) <= _JUMP_THRESHOLD
            and abs(left) <= _JUMP_THRESHOLD
            and abs(right) <= _JUMP_THRESHOLD
            and abs(left + right - inc) < 0.5 * np.pi
        ):
            return left + right
    return _refined_increment(w0, wm, t0, tm, refine, depth + 1) + _refined_increment(
        wm, w1, tm, t1, refine, depth + 1
    )


def unwrap_phase(resp: ScatteringResponse, refine=None) -> np.ndarray:
    """Continuous phase phi(omega) of the transmission over the grid.

    Anchored so phi(omega_min) lies in (-pi, pi].  With ``refine``, a
    callable omega -> T(omega), every grid interval is verified by
    adaptive midpoint bisection (up to 10 levels), which also recovers
    winding that coarse sampling would silently alias away; without one,
    an increment above the safe half-angle threshold raises
    UnresolvablePhaseJump.  Samples where T vanishes exactly get their
    phase linearly interpolated from the neighbors.
    """
    T = resp.transmission()
    w = resp.grid.frequencies
    good = np.flatnonzero(np.abs(T) > 0)
    if good.size == 0:
        return np.zeros_like(w)
    phi = np.empty_like(w)
    phi_good = [np.angle(T[good[0]])]
    fast = np.abs(_half_increment(T[good[:-1]], T[good[1:]]))
    for n, (i, j) in enumerate(zip(good[:-1], good[1:])):
        if refine is None and fast[n] <= _JUMP_THRESHOLD and j == i + 1:
            acc = phi_good[-1] + _half_increment(T[i], T[j])
        else:
            acc = phi_good[-1] + _refined_increment(w[i], w[j], T[i], T[j], refine, 0)
        phi_good.append(acc)
    phi_good = np.asarray(phi_good)
    phi[good] = phi_good
    bad = np.setdiff1d(np.arange(len(w)), good)
    if bad.size:
        phi[bad] = np.interp(w[bad], w[good], phi_good)
    return phi


def total_phase_change(phase: np.ndarray) -> float:
    """Accumulated phase across the sweep, phi(omega_max) - phi(omega_min)."""
    return float(phase[-1] - phase[0])


def group_delay(resp: ScatteringResponse, phase=None, refine=None) -> np.ndarray:
    """tau_g(omega) = d phi / d omega by central differences (one-sided at
    the endpoints).  Positive values delay the transmitted pulse under the
    e^{-i omega t} convention."""
    if phase is None:
        phase = unwrap_phase(resp, refine=refine)
    return np.gradient(phase, resp.grid.frequencies)


# ---------------------------------------------------------------------------
# bandwidth and dispersion


def bandwidth_grid(net: NetworkSpec, tail_frac=0.001, points_per_linewidth=40) -> SweepGrid:
    """Grid certified for spectral-bandwidth quadrature: a dense core over
    the resonances plus logarithmically spaced far tails, wide enough that
    the Lorentzian tail bound (sum of rates)^2 / W stays below
    ``tail_frac`` of the integral estimate."""
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
    core_lo = float(net.resonances.min()) - 2.5 * gnorm - 20.0 * lw
    core_hi = float(net.resonances.max()) + 2.5 * gnorm + 20.0 * lw
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


def dispersion(resp: ScatteringResponse, tau=None, refine=None) -> float:
    """Group-delay dispersion Int |d tau_g / d omega| |T|^2 d omega."""
    w = resp.grid.frequencies
    if tau is None:
        tau = group_delay(resp, refine=refine)
    dtau = np.gradient(tau, w)
    t2 = np.abs(resp.transmission()) ** 2
    return float(np.trapezoid(np.abs(dtau) * t2, w))


# ---------------------------------------------------------------------------
# peak and zero structure


def find_unity_peaks(resp: ScatteringResponse, tol=1e-6, refine=None) -> np.ndarray:
    """Frequencies of the local maxima of |T|^2 that reach 1 - tol.

    Grid maxima are sharpened by a quadratic fit through the bracketing
    triple; with ``refine`` (omega -> T) each bracket is additionally
    polished by bounded scalar minimization, which resolves narrow peaks
    the grid undersamples.
    """
    from scipy.optimize import minimize_scalar

    w = resp.grid.frequencies
    t2 = np.abs(resp.transmission()) ** 2
    interior = np.flatnonzero((t2[1:-1] >= t2[:-2]) & (t2[1:-1] >= t2[2:])) + 1
    peaks = []
    for i in interior:
        y0, y1, y2 = t2[i - 1], t2[i], t2[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom < 0:
            s = 0.5 * (y0 - y2) / denom
            wp = w[i] + s * (w[i + 1] - w[i])
            vp = y1 - 0.25 * (y0 - y2) * s
        else:
            wp, vp = w[i], y1
        if refine is not None:
            res = minimize_scalar(
                lambda x: -np.abs(np.asarray(refine(x)).reshape(())) ** 2,
                bounds=(w[i - 1], w[i + 1]),
                method="bounded",
                options={"xatol": 1e-12 * max(1.0, abs(w[i]))},
            )
            wp, vp = float(res.x), float(-res.fun)
        if vp >= 1.0 - tol:
            peaks.append(wp)
    peaks = np.sort(np.asarray(peaks))
    if peaks.size > 1:
        # adjacent brackets overlap by one sample and may converge to the
        # same maximum; merge anything closer than half a grid step
        min_sep = 0.5 * float(np.min(np.diff(w)))
        keep = np.concatenate([[True], np.diff(peaks) > min_sep])
        peaks = peaks[keep]
    return peaks


def find_reflection_zeros(net: NetworkSpec) -> np.ndarray:
    """Perfect-reflection frequencies of a parallel network: the roots of
    sum_i gamma_i / (omega - omega_i) = 0.

    The function is strictly decreasing between consecutive poles, so
    each of the N-1 inter-pole brackets holds exactly one root, found by
    bracketed root-finding.  The roots do not depend on the output decays.
    """
    from scipy.optimize import brentq

    if np.any(net.coupling != 0):
        raise ValidationError("reflection zeros are defined for parallel networks")
    order = np.argsort(net.resonances)
    om = net.resonances[order]
    gam = net.input_decays[order]
    keep = gam > 0
    om, gam = om[keep], gam[keep]

    def h(x):
        return float(np.sum(gam / (x - om)))

    zeros = []
    for a, b in zip(om[:-1], om[1:]):
        if b == a:
            continue
        eps = (b - a) * 1e-12
        zeros.append(brentq(h, a + eps, b - eps, xtol=1e-14, rtol=1e-14))
    return np.asarray(zeros)


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

    Uses a bandwidth-certified grid when no response is supplied; peak
    refinement and phase bisection both fall back on exact single-frequency
    solves of the network."""
    if resp is None:
        resp = sweep(net, bandwidth_grid(net))
    refine = lambda x: smatrix(net, x)[1, 0]
    phase = unwrap_phase(resp, refine=refine)
    tau = group_delay(resp, phase=phase)
    if np.all(net.coupling == 0) and net.size > 1:
        rzeros = find_reflection_zeros(net)
    else:
        rzeros = np.asarray([])
    return MetricsReport(
        bandwidth=spectral_bandwidth(resp),
        dispersion=dispersion(resp, tau=tau),
        unity_peaks=find_unity_peaks(resp, tol=tol, refine=refine),
        reflection_zeros=rzeros,
        phase=phase,
        group_delay=tau,
        total_phase_change=total_phase_change(phase),
        frequencies=resp.grid.frequencies,
    )
