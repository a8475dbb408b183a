"""Independent references the benchmark checks qnet's outputs against.

Nothing here calls `qnet.scatter` or `qnet.metrics`: the S-matrix is
assembled and solved from the raw arrays, bandwidth comes from the
controllability Gramian, and only the chain closed form is taken from
`qnet.closedform`, which is the package's own independent oracle.
Every function runs outside the timed intervals.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

UNITARITY_TOL = 1e-10
CLOSED_FORM_TOL = 1e-9
BANDWIDTH_RTOL = 1e-6
DESIGN_TOL = 1e-8
POVM_TOL = 1e-3
PULSE_RTOL = 1e-6


def arrays(net):
    """(omega, g, K) of a qnet NetworkSpec; K stacks the port rows."""
    rows = [net.input_decays, net.output_decays, *net.side_decays]
    return (np.array(net.resonances, float), np.array(net.coupling, float),
            np.sqrt(np.array(rows, float)))


def dense_S(net, freqs):
    """S(omega) per frequency by one dense solve each, shape (F, P, P);
    port order (a, b, m...), sign flipped on b so T > 0 on resonance."""
    return _solve(*arrays(net), freqs)


def _solve(om, g, K, freqs):
    base = 0.5 * K.T @ K + 1j * g + 1j * np.diag(om)
    p = K.shape[0]
    flip = np.ones(p)
    flip[1] = -1.0
    out = np.empty((len(freqs), p, p), complex)
    for i, w in enumerate(np.asarray(freqs, float)):
        X = np.linalg.solve(base - 1j * w * np.eye(len(om)), K.T)
        out[i] = (np.eye(p) - K @ X) * np.outer(flip, flip)
    return out


def unitarity_defect(S):
    """max |S^dagger S - I| over a stack of S-matrices."""
    gram = np.einsum("fji,fjk->fik", S.conj(), S)
    return float(np.max(np.abs(gram - np.eye(S.shape[1]))))


def gramian_bandwidth(net):
    """(1/pi) Int |T|^2 d omega = 2 C P C^H with P the controllability
    Gramian of dc/dt = -(K^T K/2 + i g + i diag omega) c + K_a^T u."""
    om, g, K = arrays(net)
    A = -(0.5 * K.T @ K + 1j * g + 1j * np.diag(om))
    B = K[0][:, None].astype(complex)
    C = K[1][None, :].astype(complex)
    P = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.conj().T)
    return 2.0 * float(np.real(C @ P @ C.conj().T)[0, 0])


def closed_form_R(doc, freqs):
    """Reflection of a series chain from `qnet.closedform.series_R`, the
    package's independent oracle; None for other topologies."""
    if doc["type"] != "series":
        return None
    from qnet.closedform import series_R

    d = np.asarray(freqs, float)[:, None] - np.asarray(doc["omegas"], float)[None, :]
    return series_R(float(doc["gamma"]), float(doc["Gamma"]), d, np.asarray(doc["g"], float))


def povm_check(probs, transmitted):
    """Monotone click curve ending within POVM_TOL of the transmitted
    fraction; returns a failure description or None."""
    if np.any(np.diff(probs) < 0):
        return "click curve not monotone"
    if abs(probs[-1] - transmitted) > POVM_TOL:
        return f"curve ends at {probs[-1]!r}, transmitted fraction {transmitted!r}"
    return None


def filtered_packet(net, wp):
    """(omega, T psi~) for the CLI's Gaussian packet block ``wp``: the
    packet normalised on its own grid, shifted by t0, T from `dense_S`."""
    center, sigma = wp["center"], wp["sigma"]
    span = wp.get("span", 8.0)
    w = np.linspace(center - span * sigma, center + span * sigma, wp.get("points", 4001))
    amp = np.exp(-((w - center) ** 2) / (4.0 * sigma**2))
    amp = amp / np.sqrt(np.trapezoid(amp**2, w)) * np.exp(1j * w * wp.get("t0", 0.0))
    return w, dense_S(net, w)[:, 1, 0] * amp


def transmitted_fraction(w, filtered):
    """Int |T psi~|^2 d omega, the long-time click probability."""
    return float(np.trapezoid(np.abs(filtered) ** 2, w))


def pulse(w, filtered, times, chunk=256):
    """psi_out(t) = (1/sqrt(2 pi)) Int T psi~ e^{-i omega t} d omega."""
    out = np.empty(len(times), complex)
    for lo in range(0, len(times), chunk):
        phases = np.exp(-1j * np.outer(times[lo:lo + chunk], w))
        out[lo:lo + chunk] = np.trapezoid(phases * filtered, w, axis=1)
    return out / np.sqrt(2.0 * np.pi)


def design_rescore(net, parameters, freqs):
    """Smallest |T|^2 at ``freqs`` of ``net`` with the CLI's reported
    parameters ([kind, i, (j,) value] entries) applied."""
    if len(freqs) == 0:
        return 0.0
    om, g, K = arrays(net)
    rates = K**2
    for item in parameters:
        if item[0] == "g":
            _, i, j, v = item
            g[i, j] = g[j, i] = v
        else:
            rates[0 if item[0] == "gamma" else 1, item[1]] = item[2]
    return float(np.min(np.abs(_solve(om, g, np.sqrt(rates), freqs)[:, 1, 0]) ** 2))
