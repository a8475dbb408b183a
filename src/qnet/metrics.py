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

Functions that take ``net`` (the network a response was swept from)
verify grid results against the network itself: phase intervals by
midpoint bisection, peak brackets by bounded Brent minimization.  Both
evaluate all open points of a step in one batched engine call, in the
chunks `sweep` uses, and round every value as the one-point-at-a-time
algorithms do, so batching changes no result.  Reflection zeros come
from a vectorized bisection; nothing here imports ``scipy.optimize``.
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
from .scatter import _POLE_CHUNK_BYTES, ScatteringResponse, _smatrices, sweep
from .scatter import smatrix  # noqa: F401  (a lookup site bench/test_bench.py traces)

_JUMP_THRESHOLD = 0.45 * np.pi
_REFINE_LEVELS = 10
_BATCH_CAP = 4096  # most intervals one bisection step verifies together
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


def _py_quot(a, b):
    """a / b for complex arrays, rounded as Python's complex division
    (Smith's method, dividing by the scaled denominator) rounds it."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        wide = np.abs(br) >= np.abs(bi)
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        q = np.empty(np.shape(a), dtype=complex)
        q.real = np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom
        q.imag = np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom
    return q


def _half_increment(t0, t1, py=False):
    """Phase change from t0 to t1 modulo pi, mapped to (-pi/2, pi/2].

    Arrays are rounded exactly as the scalar form ``0.5 * angle((t1 / t0)
    ** 2)`` rounds numpy scalars, or, where ``py`` flags both samples as
    Python complex numbers, as Python's complex division rounds them; the
    square is therefore np.power, since np.square rounds differently."""
    q = t1 / t0
    if np.any(py):
        q = np.where(py, _py_quot(t1, t0), q)
    return 0.5 * np.angle(np.power(q, 2.0))


def _first_jump(inc) -> int:
    """Index of the first increment above the safe threshold (or NaN),
    -1 if there is none."""
    bad = np.flatnonzero(~(np.abs(inc) <= _JUMP_THRESHOLD))
    return int(bad[0]) if bad.size else -1


def _transmission_at(net: NetworkSpec, freqs: np.ndarray) -> np.ndarray:
    """T(omega) at any 1-D frequency array through the batched engine, in
    the chunks `sweep` uses; each value equals ``smatrix(net, omega)[1, 0]``."""
    p = net.n_ports
    chunk = max(1, _POLE_CHUNK_BYTES // (16 * net.size * p * p))
    out = np.empty(len(freqs), dtype=complex)
    for lo in range(0, len(freqs), chunk):
        out[lo : lo + chunk] = _smatrices(net, freqs[lo : lo + chunk])[:, 1, 0]
    return out


def _increments(w, T, net):
    """Verified phase increment over each interval (w[k], w[k+1]).

    The endpoint ratio fixes an increment only modulo pi, so a small value
    is not proof of a small true change: a coarse interval can alias away
    whole multiples of pi.  With ``net``, every interval is therefore
    verified by one midpoint sample; it is accepted only when both halves
    are below the safe threshold and carry the same winding as the direct
    estimate, otherwise both halves are verified in turn, down to
    ``_REFINE_LEVELS`` bisections.  An interval's increment is the sum of
    its halves', added left + right.

    The frontier of unverified intervals is kept in frequency order, and
    each step verifies its leftmost ``size`` members with one engine call
    (``size`` doubles from 1 up to ``_BATCH_CAP``).  A persistent jump is
    raised for the leftmost failing interval, as a left-to-right
    depth-first walk would, so intervals to the right of a failure are
    dropped and those to its left are finished first."""
    if net is None:
        inc = _half_increment(T[:-1], T[1:])
        bad = _first_jump(inc)
        if bad >= 0:
            raise UnresolvablePhaseJump(float(w[bad]), float(w[bad + 1]))
        return inc
    n = len(w) - 1

    def roots(lo, hi):
        # a node is (a, b), its samples T(a), T(b), whether those are
        # midpoints (pa, pb), its depth and its index ("slot") in ``values``
        return {"a": w[lo:hi], "b": w[lo + 1 : hi + 1], "ta": T[lo:hi], "tb": T[lo + 1 : hi + 1],
                "pa": np.zeros(hi - lo, bool), "pb": np.zeros(hi - lo, bool),
                "depth": np.zeros(hi - lo, int), "slot": np.arange(lo, hi)}

    front = roots(0, 0)  # all left of the untouched intervals from ``cursor`` on
    cursor, slots, size = 0, n, 1
    settled = []  # (slots, values)
    split = []  # (slots, first child slot), in creation order
    fail = None  # (a, b) of the leftmost interval that could not be resolved
    while True:
        take = min(size, len(front["a"]))
        fresh = min(size - take, n - cursor) if fail is None else 0
        if take + fresh == 0:
            break
        fresh_nodes = roots(cursor, cursor + fresh)
        node = {k: np.concatenate([v[:take], fresh_nodes[k]]) for k, v in front.items()}
        front = {k: v[take:] for k, v in front.items()}
        cursor += fresh
        size = min(2 * size, _BATCH_CAP)

        a, b, ta, tb, pa, pb = (node[k] for k in ("a", "b", "ta", "tb", "pa", "pb"))
        inc = _half_increment(ta, tb, pa & pb)
        wm = 0.5 * (a + b)
        tm = _transmission_at(net, wm)
        left = _half_increment(ta, tm, pa)
        right = _half_increment(tm, tb, pb)
        ok = (
            (tm != 0.0) & (ta != 0.0) & (tb != 0.0)
            & (np.abs(inc) <= _JUMP_THRESHOLD)
            & (np.abs(left) <= _JUMP_THRESHOLD)
            & (np.abs(right) <= _JUMP_THRESHOLD)
            & (np.abs(left + right - inc) < 0.5 * np.pi)
        )
        settled.append((node["slot"][ok], (left + right)[ok]))
        rej = ~ok
        kids = slots + 2 * np.arange(np.count_nonzero(rej))
        slots += 2 * len(kids)
        split.append((node["slot"][rej], kids))

        def halves(x, y):
            return np.stack([x[rej], y[rej]], axis=1).ravel()

        mid = np.ones_like(pa)
        child = {"a": halves(a, wm), "b": halves(wm, b), "ta": halves(ta, tm), "tb": halves(tm, tb),
                 "pa": halves(pa, mid), "pb": halves(mid, pb),
                 "depth": np.repeat(node["depth"][rej] + 1, 2),
                 "slot": np.stack([kids, kids + 1], axis=1).ravel()}
        leaf = child["depth"] >= _REFINE_LEVELS
        if np.any(leaf):
            done = {k: v[leaf] for k, v in child.items()}
            vals = _half_increment(done["ta"], done["tb"], done["pa"] & done["pb"])
            bad = _first_jump(vals)
            settled.append((done["slot"], vals))
            if bad >= 0 and (fail is None or done["a"][bad] < fail[0]):
                fail = (done["a"][bad], done["b"][bad])
            child = {k: v[~leaf] for k, v in child.items()}
        front = {k: np.concatenate([child[k], v]) for k, v in front.items()}
        if fail is not None:
            keep = front["a"] < fail[0]
            front = {k: v[keep] for k, v in front.items()}
    if fail is not None:
        raise UnresolvablePhaseJump(float(fail[0]), float(fail[1]))
    values = np.empty(slots)
    for slot, vals in settled:
        values[slot] = vals
    for slot, kids in reversed(split):
        values[slot] = values[kids] + values[kids + 1]
    return values[:n]


def unwrap_phase(resp: ScatteringResponse, net: NetworkSpec | None = None) -> np.ndarray:
    """Continuous phase phi(omega) of the transmission over the grid.

    Anchored so phi(omega_min) lies in (-pi, pi].  With ``net``, the
    network ``resp`` was swept from, every grid interval is verified by
    adaptive midpoint bisection (up to 10 levels, evaluated a batch of
    intervals at a time), which also recovers winding that coarse sampling
    would silently alias away; without it, an increment above the safe
    half-angle threshold raises UnresolvablePhaseJump.  Samples where T
    vanishes exactly get their phase linearly interpolated from the
    neighbors.
    """
    T = resp.transmission()
    w = resp.grid.frequencies
    nonzero = np.abs(T) > 0
    good = np.flatnonzero(nonzero)
    if good.size == 0:
        return np.zeros_like(w)
    phi = np.empty_like(w)
    inc = _increments(w[good], T[good], net)
    phi_good = np.cumsum(np.concatenate([[np.angle(T[good[0]])], inc]))
    phi[good] = phi_good
    bad = np.flatnonzero(~nonzero)
    if bad.size:
        phi[bad] = np.interp(w[bad], w[good], phi_good)
    return phi


def total_phase_change(phase: np.ndarray) -> float:
    """Accumulated phase across the sweep, phi(omega_max) - phi(omega_min)."""
    return float(phase[-1] - phase[0])


def group_delay(resp: ScatteringResponse, phase=None, net: NetworkSpec | None = None) -> np.ndarray:
    """tau_g(omega) = d phi / d omega by central differences (one-sided at
    the endpoints).  Positive values delay the transmitted pulse under the
    e^{-i omega t} convention.  ``net`` verifies the phase as in
    `unwrap_phase`."""
    if phase is None:
        phase = unwrap_phase(resp, net=net)
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


def dispersion(resp: ScatteringResponse, tau=None, net: NetworkSpec | None = None) -> float:
    """Group-delay dispersion Int |d tau_g / d omega| |T|^2 d omega."""
    w = resp.grid.frequencies
    if tau is None:
        tau = group_delay(resp, net=net)
    dtau = np.gradient(tau, w)
    t2 = np.abs(resp.transmission()) ** 2
    return float(np.trapezoid(np.abs(dtau) * t2, w))


# ---------------------------------------------------------------------------
# peak and zero structure


def _bounded_minimize(func, lo, hi, xatol, maxiter=500):
    """(x, f(x)) minimizing ``func`` on each bracket [lo_k, hi_k] at once.

    A lane-by-lane port of the bounded Brent iteration of
    ``scipy.optimize.minimize_scalar(method="bounded")``: every lane runs
    the same float operations as the scalar loop, so it stops at the same
    point, while ``func`` is called once per iteration on all lanes that
    are still open."""
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = np.array(lo, float), np.array(hi, float)
    xf = a + golden_mean * (b - a)
    nfc, fulc = xf.copy(), xf.copy()
    rat, e = np.zeros_like(a), np.zeros_like(a)
    fx = func(xf)
    fnfc, ffulc = fx.copy(), fx.copy()
    live = np.arange(len(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(maxiter - 1):
            A, B, XF = a[live], b[live], xf[live]
            XM = 0.5 * (A + B)
            T1 = sqrt_eps * np.abs(XF) + xatol[live] / 3.0
            T2 = 2.0 * T1
            go = np.abs(XF - XM) > (T2 - 0.5 * (B - A))
            if not np.any(go):
                break
            live, A, B, XF, XM, T1, T2 = (v[go] for v in (live, A, B, XF, XM, T1, T2))
            FX, NFC, FNFC, FULC, FFULC, E, RAT = (
                v[live] for v in (fx, nfc, fnfc, fulc, ffulc, e, rat)
            )
            # parabolic step where the step before last was large enough
            parab = np.abs(E) > T1
            r = (XF - NFC) * (FX - FFULC)
            q = (XF - FULC) * (FX - FNFC)
            p = (XF - FULC) * q - (XF - NFC) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            r = E
            E = np.where(parab, RAT, E)
            fit = parab & (np.abs(p) < np.abs(0.5 * q * r)) & (p > q * (A - XF)) & (p < q * (B - XF))
            prat = (p + 0.0) / q
            px = XF + prat
            si = np.sign(XM - XF) + ((XM - XF) == 0)
            prat = np.where(((px - A) < T2) | ((B - px) < T2), T1 * si, prat)
            # golden-section step everywhere else
            E = np.where(fit, E, np.where(XF >= XM, A - XF, B - XF))
            RAT = np.where(fit, prat, golden_mean * E)
            si = np.sign(RAT) + (RAT == 0)
            x = XF + si * np.maximum(np.abs(RAT), T1)
            fu = func(x)

            better = fu <= FX
            # the new point replaces the bracket end on its side of xf; on
            # improvement xf itself becomes that end
            a[live] = np.where(better, np.where(x >= XF, XF, A), np.where(x < XF, x, A))
            b[live] = np.where(better, np.where(x >= XF, B, XF), np.where(x < XF, B, x))
            first = ~better & ((fu <= FNFC) | (NFC == XF))
            second = ~better & ~first & ((fu <= FFULC) | (FULC == XF) | (FULC == NFC))
            shift = better | first
            fulc[live] = np.where(shift, NFC, np.where(second, x, FULC))
            ffulc[live] = np.where(shift, FNFC, np.where(second, fu, FFULC))
            nfc[live] = np.where(better, XF, np.where(first, x, NFC))
            fnfc[live] = np.where(better, FX, np.where(first, fu, FNFC))
            xf[live] = np.where(better, x, XF)
            fx[live] = np.where(better, fu, FX)
            e[live], rat[live] = E, RAT
    return xf, fx


def find_unity_peaks(resp: ScatteringResponse, tol=1e-6, net: NetworkSpec | None = None) -> np.ndarray:
    """Frequencies of the local maxima of |T|^2 that reach 1 - tol.

    Grid maxima are sharpened by a quadratic fit through the bracketing
    triple; with ``net``, the network ``resp`` was swept from, every
    bracket is instead polished by bounded scalar minimization of -|T|^2
    (all brackets together, one engine call per iteration), which
    resolves narrow peaks the grid undersamples.
    """
    w = resp.grid.frequencies
    t2 = np.abs(resp.transmission()) ** 2
    i = np.flatnonzero((t2[1:-1] >= t2[:-2]) & (t2[1:-1] >= t2[2:])) + 1
    if net is not None:
        # |T| is squared per value by Python's ** (libm pow), as a scalar
        # objective is; the array square rounds differently in the last
        # bit, enough to move a polished peak by an ulp
        wp, fp = _bounded_minimize(
            lambda x: -np.array([a**2 for a in np.abs(_transmission_at(net, x)).tolist()]),
            w[i - 1],
            w[i + 1],
            1e-12 * np.maximum(1.0, np.abs(w[i])),
        )
        vp = -fp
    else:
        y0, y1, y2 = t2[i - 1], t2[i], t2[i + 1]
        denom = y0 - 2 * y1 + y2
        fit = denom < 0
        s = 0.5 * (y0 - y2) / np.where(fit, denom, -1.0)
        wp = np.where(fit, w[i] + s * (w[i + 1] - w[i]), w[i])
        vp = np.where(fit, y1 - 0.25 * (y0 - y2) * s, y1)
    peaks = np.sort(wp[vp >= 1.0 - tol])
    if peaks.size > 1:
        # adjacent brackets overlap by one sample and may converge to the
        # same maximum; merge anything closer than half a grid step
        min_sep = 0.5 * float(np.min(np.diff(w)))
        keep = np.concatenate([[True], np.diff(peaks) > min_sep])
        peaks = peaks[keep]
    return peaks


def find_reflection_zeros(net: NetworkSpec) -> np.ndarray:
    """Perfect-reflection frequencies of a parallel network: the roots of
    h(omega) = sum_i gamma_i / (omega - omega_i) = 0.

    h is strictly decreasing between consecutive poles, so each of the N-1
    inter-pole brackets holds exactly one root; all brackets are bisected
    together until their ends are adjacent floats.  The roots do not
    depend on the output decays.
    """
    if np.any(net.coupling != 0):
        raise ValidationError("reflection zeros are defined for parallel networks")
    order = np.argsort(net.resonances)
    om = net.resonances[order]
    gam = net.input_decays[order]
    keep = gam > 0
    om, gam = om[keep], gam[keep]
    lo, hi = om[:-1], om[1:]
    lo, hi = lo[hi != lo], hi[hi != lo]
    eps = (hi - lo) * 1e-12
    lo, hi = lo + eps, hi - eps
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (mid != lo) & (mid != hi)
        if not np.any(open_):
            return mid
        above = (gam / (mid[:, None] - om)).sum(axis=1) > 0
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

    Uses a bandwidth-certified grid when no response is supplied; peak
    polishing and phase bisection both evaluate the network itself, in
    batches through the scattering engine."""
    if resp is None:
        resp = sweep(net, bandwidth_grid(net))
    phase = unwrap_phase(resp, net=net)
    tau = group_delay(resp, phase=phase)
    if np.all(net.coupling == 0) and net.size > 1:
        rzeros = find_reflection_zeros(net)
    else:
        rzeros = np.asarray([])
    return MetricsReport(
        bandwidth=spectral_bandwidth(resp),
        dispersion=dispersion(resp, tau=tau),
        unity_peaks=find_unity_peaks(resp, tol=tol, net=net),
        reflection_zeros=rzeros,
        phase=phase,
        group_delay=tau,
        total_phase_change=total_phase_change(phase),
        frequencies=resp.grid.frequencies,
    )
