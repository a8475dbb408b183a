"""Analytic transmission and reflection formulas.

Every function here has an exact counterpart in the dense-solve oracle
(`qnet.scatter`); agreement between the two is the central correctness
property of the package and is enforced by the test suite.

Rational forms containing 1/Delta_i terms are evaluated with cleared
denominators (multiplied through by prod_i Delta_i), so grid points
landing exactly on a resonance are regular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, QnetError, ValidationError
from .netcore import HybridSpec

_RESCALE_AT = 1e150


def simple_T(gamma: float, Gamma: float, delta) -> complex:
    """Transmission of the single-state network: sqrt(gamma Gamma) / ((gamma+Gamma)/2 - i Delta)."""
    delta = np.asarray(delta)
    return np.sqrt(gamma * Gamma) / (0.5 * (gamma + Gamma) - 1j * delta)


def simple_group_delay(gamma: float, Gamma: float, delta):
    """Group delay of the single-state network, a Lorentzian of width (gamma+Gamma)/2
    peaking at 2/(gamma+Gamma) on resonance."""
    s = 0.5 * (gamma + Gamma)
    delta = np.asarray(delta)
    return s / (s * s + delta * delta)


def critical_coupling(gamma: float, Gamma: float) -> float:
    """Chain coupling sqrt(gamma Gamma)/2 at which the infinite-chain limit converges."""
    return float(np.sqrt(gamma * Gamma) / 2.0)


def _cleared_sums(weights, detunings):
    """P = prod_i D_i and Q = sum_i w_i * prod_{j != i} D_j.

    ``detunings`` has shape (..., N); both results drop the last axis.
    Regular at D_i = 0, unlike sum_i w_i / D_i itself.
    """
    d = np.asarray(detunings, dtype=complex)
    w = np.asarray(weights)
    n = d.shape[-1]
    if w.shape[-1] != n:
        raise LengthMismatch("weights and detunings must have matching length")
    P = np.prod(d, axis=-1)
    Q = np.zeros(d.shape[:-1], dtype=complex)
    for i in range(n):
        mask = [j for j in range(n) if j != i]
        Q = Q + w[..., i] * np.prod(d[..., mask], axis=-1)
    return P, Q


def parallel_R_unbalanced(gammas, k: float, detunings):
    """Reflection of a parallel network with uniformly unbalanced decays
    Gamma_i = k * gamma_i:  R = [i - (k-1) h] / [i - (k+1) h] with
    h = sum_i gamma_i / (2 Delta_i), in cleared-denominator form."""
    gammas = np.asarray(gammas, dtype=float)
    P, Q = _cleared_sums(gammas / 2.0, detunings)
    return (1j * P - (k - 1.0) * Q) / (1j * P - (k + 1.0) * Q)


def parallel_R_homogeneous(gamma: float, Gamma: float, detunings):
    """Reflection of a parallel network with homogeneous decays:
    R = [i - ((Gamma-gamma)/2) f] / [i - ((Gamma+gamma)/2) f], f = sum_i 1/Delta_i."""
    d = np.asarray(detunings)
    P, F = _cleared_sums(np.ones(d.shape[-1]), d)
    return (1j * P - 0.5 * (Gamma - gamma) * F) / (1j * P - 0.5 * (Gamma + gamma) * F)


def parallel_R_general_N2(gamma_1, gamma_2, Gamma_1, Gamma_2, delta_1, delta_2):
    """Reflection of the general two-state parallel network, with the
    symmetric/antisymmetric cross terms X_pm = ((sqrt(G1 G2) +- sqrt(g1 g2))/2)^2."""
    d1 = np.asarray(delta_1)
    d2 = np.asarray(delta_2)
    Xp = ((np.sqrt(Gamma_1 * Gamma_2) + np.sqrt(gamma_1 * gamma_2)) / 2.0) ** 2
    Xm = ((np.sqrt(Gamma_1 * Gamma_2) - np.sqrt(gamma_1 * gamma_2)) / 2.0) ** 2
    num = (0.5 * (Gamma_1 - gamma_1) - 1j * d1) * (0.5 * (Gamma_2 - gamma_2) - 1j * d2) - Xm
    den = (0.5 * (Gamma_1 + gamma_1) - 1j * d1) * (0.5 * (Gamma_2 + gamma_2) - 1j * d2) - Xp
    return num / den


@dataclass
class WallisEulerCoeffs:
    """Coefficient sequences a_n, b_n (n = 0..N) of a generalized continued
    fraction, evaluated by the linear recurrences

        A_n = b_n A_{n-1} + a_n A_{n-2},  B_n = b_n B_{n-1} + a_n B_{n-2},
        A_{-1} = 1, B_{-1} = 0, A_0 = b_0, B_0 = 1,

    whose ratio A_N / B_N is the fraction's value.  Entries may be arrays
    over a frequency grid: the b_n of one shape (or one array whose rows
    they are), and every a_n broadcast to it."""

    a: list
    b: list

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise LengthMismatch("a and b must have the same length")
        if (np.asarray(self.a[0]) != 0).any() or (np.asarray(self.b[0]) != 1).any():
            raise ValidationError("need a_0 = 0 and b_0 = 1")

    @classmethod
    def for_series(cls, gamma, Gamma, detunings, couplings) -> "WallisEulerCoeffs":
        """Coefficients of the series-network reflection fraction for N >= 2
        states: a_1 = -gamma, b_1 = gamma/2 - i D_1; a_n = g_{n-1,n}^2,
        b_n = -i D_n for the interior; b_N = Gamma/2 - i D_N.  The a_n are
        scalars and the b_n the rows of one array."""
        d = np.asarray(detunings)
        n = d.shape[-1]
        couplings = np.asarray(couplings, dtype=float)
        if couplings.shape[-1] != n - 1:
            raise LengthMismatch(f"need {n - 1} couplings for {n} states")
        # numpy-scalar squares (C pow); an array's x*x can differ in the last bit
        a = [0.0, -gamma] + [couplings[m] ** 2 for m in range(n - 1)]
        b = np.empty((n + 1,) + d.shape[:-1], dtype=complex)
        b[0] = 1.0
        np.multiply(-1j, d.transpose(-1, *range(d.ndim - 1)), out=b[1:])
        b[1] += 0.5 * gamma
        b[n] += 0.5 * Gamma
        return cls(a=a, b=b)

    def evaluate(self):
        """A_N / B_N with running rescale: whenever |A_n| or |B_n| exceeds
        1e150 both recurrences are divided by the common max (the ratio is
        invariant).  Raises QnetError if values still leave the
        floating-point range."""
        a, b = self.a, np.asarray(self.b, dtype=complex)  # rows b_n
        # rows 0 and 1 carry the A and B recurrences, advanced together
        cur = np.empty((2,) + b.shape[1:], dtype=complex)
        cur[0], cur[1] = b[0], 1.0
        prev = np.empty_like(cur)
        prev[0], prev[1] = 1.0, 0.0
        for n in range(1, len(a)):
            cur, prev = b[n] * cur + a[n] * prev, cur
            # |z| <= sqrt(2) max(|Re z|, |Im z|): while every component is
            # finite and below half the threshold, no modulus can reach it
            if np.abs(cur.view(float)).max(initial=0.0) < 0.5 * _RESCALE_AT:
                continue
            m = np.abs(cur).max(axis=0)
            big = m > _RESCALE_AT
            if big.any():
                s = np.where(big, m, 1.0)
                cur = cur / s
                prev = prev / s
            # m is finite exactly when both rows are finite after the rescale
            if not np.isfinite(m).all():
                raise QnetError(f"recursion diverged at step {n}")
        return cur[0] / cur[1]


def series_R(gamma: float, Gamma: float, detunings, chain_couplings):
    """Reflection of a series network (chain), as the continued fraction
    evaluated through the Wallis-Euler recursion.  ``detunings`` has shape
    (..., N); N = 1 reduces to the single-state reflection."""
    d = np.asarray(detunings)
    if d.shape[-1] == 1:
        return (0.5 * (Gamma - gamma) - 1j * d[..., 0]) / (
            0.5 * (gamma + Gamma) - 1j * d[..., 0]
        )
    return WallisEulerCoeffs.for_series(gamma, Gamma, d, chain_couplings).evaluate()


def _manifold_detunings(h: HybridSpec, omega):
    omega = np.asarray(omega, dtype=float)
    return [omega[..., None] - m[None, :] if omega.ndim else omega - m for m in h.manifolds]


def hybrid_R_critical_unbalanced(h: HybridSpec, omega):
    """Reflection of a critically-coupled, uniformly-unbalanced hybrid
    network: continued fraction over manifold functions
    h^(k) = sum_i gamma_i^(k) / (2 Delta_i^(k)), cleared denominators.

    Note the coefficient of the last level is k^(M) h^(M) - i; the
    plain ratio (not its square root) is what matches the dense solve.
    """
    if h.manifold_gammas is None or h.unbalance_ratios is None:
        raise ValidationError(
            "hybrid spec lacks manifold_gammas/unbalance_ratios; "
            "build it with hybrid_critical_unbalanced()"
        )
    r = h.unbalance_ratios
    M = h.n_manifolds
    dets = _manifold_detunings(h, omega)
    P, Q = zip(*(
        _cleared_sums(np.asarray(g) / 2.0, d)
        for g, d in zip(h.manifold_gammas, dets)
    ))
    if M == 1:
        return (1j * P[0] - (r[0] - 1.0) * Q[0]) / (1j * P[0] - (r[0] + 1.0) * Q[0])
    one = np.ones_like(P[0])
    a = [0.0 * one, -2.0 * Q[0]]
    b = [one, Q[0] - 1j * P[0]]
    for k in range(1, M - 1):
        a.append(r[k - 1] * Q[k - 1] * Q[k])
        b.append(-1j * P[k])
    a.append(r[M - 2] * Q[M - 2] * Q[M - 1])
    b.append(r[M - 1] * Q[M - 1] - 1j * P[M - 1])
    return WallisEulerCoeffs(a=a, b=b).evaluate()


def hybrid_R_homogeneous(h: HybridSpec, omega):
    """Reflection of a hybrid network with homogeneous intra-manifold decays
    and scalar inter-manifold couplings: continued fraction over
    f^(k) = sum_i 1/Delta_i^(k), cleared denominators."""
    M = h.n_manifolds
    gamma = float(h.input_decays[0])
    Gamma = float(h.output_decays[0])
    if np.ptp(h.input_decays) != 0 or np.ptp(h.output_decays) != 0:
        raise ValidationError("homogeneous form needs uniform end-manifold decays")
    gs = [float(np.asarray(c).reshape(-1)[0]) for c in h.couplings]
    for c in h.couplings:
        if np.ptp(np.asarray(c)) != 0:
            raise ValidationError("homogeneous form needs scalar couplings")
    dets = _manifold_detunings(h, omega)
    P, F = zip(*(
        _cleared_sums(np.ones(len(m)), d) for m, d in zip(h.manifolds, dets)
    ))
    if M == 1:
        return (1j * P[0] - 0.5 * (Gamma - gamma) * F[0]) / (
            1j * P[0] - 0.5 * (Gamma + gamma) * F[0]
        )
    one = np.ones_like(P[0])
    a = [0.0 * one, -gamma * F[0]]
    b = [one, 0.5 * gamma * F[0] - 1j * P[0]]
    for k in range(1, M - 1):
        a.append(gs[k - 1] ** 2 * F[k - 1] * F[k])
        b.append(-1j * P[k])
    a.append(gs[M - 2] ** 2 * F[M - 2] * F[M - 1])
    b.append(0.5 * Gamma * F[M - 1] - 1j * P[M - 1])
    return WallisEulerCoeffs(a=a, b=b).evaluate()
