"""Network data model, validation, and builders.

A network is a set of N discrete states with resonance frequencies
``omega_i``, a real symmetric coherent coupling matrix ``g_ij`` (zero
diagonal), decay rates ``gamma_i`` to the input continuum, ``Gamma_i``
to the monitored output continuum, and optionally one or more side
channels with rates ``mu_i``.  All rates and frequencies share a single
unit (rad/time).
"""

from __future__ import annotations

import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetricCoupling,
    LengthMismatch,
    NegativeRate,
    NonzeroSelfCoupling,
    NoPort,
    ValidationError,
)


class DegenerateResonanceWarning(UserWarning):
    """Two decoupled states share a resonance; one decouples in the limit."""


def _is(v, kind) -> bool:
    """isinstance for values read from JSON, where a bool is not a number."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _finite_real(v) -> bool:
    """A JSON number that is a finite float: real, not a bool, in range."""
    return _is(v, numbers.Real) and abs(v) <= sys.float_info.max


def _freeze(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of a discrete-state network.

    Fields
    ------
    resonances : (N,) resonance frequencies omega_i
    coupling : (N, N) real symmetric coherent couplings g_ij, zero diagonal
    input_decays : (N,) rates gamma_i to the input continuum
    output_decays : (N,) rates Gamma_i to the output continuum
    side_decays : tuple of (N,) rate vectors mu_i, one per side channel
    """

    resonances: np.ndarray
    coupling: np.ndarray
    input_decays: np.ndarray
    output_decays: np.ndarray
    side_decays: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "resonances", _freeze(self.resonances))
        object.__setattr__(self, "coupling", np.atleast_2d(_freeze(self.coupling)))
        object.__setattr__(self, "input_decays", _freeze(self.input_decays))
        object.__setattr__(self, "output_decays", _freeze(self.output_decays))
        object.__setattr__(
            self, "side_decays", tuple(_freeze(m) for m in self.side_decays)
        )

    @property
    def size(self) -> int:
        return len(self.resonances)

    @property
    def n_ports(self) -> int:
        """Port count: input, output, then one per side channel."""
        return 2 + len(self.side_decays)

    def total_rates(self) -> np.ndarray:
        """Per-state total decay rate gamma_i + Gamma_i + sum_s mu_i."""
        tot = self.input_decays + self.output_decays
        for mu in self.side_decays:
            tot = tot + mu
        return tot

    @cached_property
    def _validated(self):
        """This spec after `validate`, which the engine runs once per spec:
        a spec that fails raises on every access, since nothing is cached."""
        return validate(self)

    @cached_property
    def _poles(self):
        """Pole basis of the state matrix (see `qnet.scatter`), computed on
        first use; the spec is frozen, so the cache cannot go stale."""
        from .scatter import _pole_basis

        return _pole_basis(self)


@dataclass(frozen=True)
class SweepGrid:
    """Strictly increasing, finite frequency grid."""

    frequencies: np.ndarray

    def __post_init__(self):
        f = _freeze(self.frequencies)
        if f.ndim != 1 or f.size == 0:
            raise ValidationError("grid must be a nonempty 1-D frequency list")
        if not np.all(np.isfinite(f)):
            raise ValidationError("grid frequencies must be finite")
        if f.size > 1 and not np.all(np.diff(f) > 0):
            raise ValidationError("grid frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", f)

    def __len__(self):
        return len(self.frequencies)

    def detunings(self, resonances) -> np.ndarray:
        """Delta_i = omega - omega_i, shape (len(grid), N)."""
        return self.frequencies[:, None] - np.asarray(resonances)[None, :]

    @classmethod
    def linspace(cls, lo, hi, points) -> "SweepGrid":
        return cls(np.linspace(lo, hi, int(points)))

    @classmethod
    def for_network(cls, net: NetworkSpec, points_per_linewidth=40) -> "SweepGrid":
        """Default grid: the band the poles can occupy padded by 20 smallest
        linewidths, sampled at ``points_per_linewidth`` per smallest
        linewidth (2,000,000 points at most).  Every Im lambda_k lies in the
        numerical range of g + diag(omega_i), so within |g|_2 of the bare
        resonances."""
        lw = float(np.min(net.total_rates()[net.total_rates() > 0])) / 2.0
        gnorm = float(np.linalg.norm(net.coupling, 2)) if net.size > 1 else 0.0
        lo = float(net.resonances.min()) - gnorm - 20.0 * lw
        hi = float(net.resonances.max()) + gnorm + 20.0 * lw
        pts = min(2_000_000, max(2, int(np.ceil((hi - lo) / lw * points_per_linewidth))))
        return cls.linspace(lo, hi, pts)


def validate(spec: NetworkSpec) -> NetworkSpec:
    """Check every structural invariant of ``spec``.

    Returns the spec unchanged on success.  Idempotent: a spec it has
    returned before comes back at once, so the engine's own validation of
    a parsed or built spec repeats neither the checks nor the
    `DegenerateResonanceWarning`, issued when two mutually decoupled
    states share the same resonance frequency.
    """
    if getattr(spec, "_checked", False):
        return spec
    n = spec.size
    if n < 1:
        raise LengthMismatch("network needs at least one state")
    rate_lists = [spec.input_decays, spec.output_decays, *spec.side_decays]
    for rates in rate_lists:
        if rates.shape != (n,):
            raise LengthMismatch(
                f"rate list length {rates.shape} does not match N={n}"
            )
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise NegativeRate("decay rates must be finite and nonnegative")
    if spec.resonances.shape != (n,) or not np.all(np.isfinite(spec.resonances)):
        raise LengthMismatch("resonance list must be finite with length N")
    g = spec.coupling
    if g.shape != (n, n):
        raise LengthMismatch(f"coupling matrix shape {g.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(g)):
        raise ValidationError("coupling matrix must be finite")
    if np.any(np.diag(g) != 0):
        raise NonzeroSelfCoupling("coupling matrix must have zero diagonal")
    if not np.array_equal(g, g.T):
        raise AsymmetricCoupling("coupling matrix must be symmetric")
    if not np.any(spec.input_decays > 0):
        raise NoPort("at least one state must decay to the input continuum")
    if not np.any(spec.output_decays > 0):
        raise NoPort("at least one state must decay to the output continuum")

    # Degenerate decoupled pairs are allowed but flagged: in the exact limit
    # one superposition decouples from the continua.
    om = spec.resonances
    pairs = np.triu(om[:, None] == om[None, :], 1)
    if pairs.any():
        gam, Gam = spec.input_decays > 0, spec.output_decays > 0
        pairs &= (g == 0) & ((gam[:, None] & gam[None, :]) | (Gam[:, None] & Gam[None, :]))
        degenerate = [(int(i), int(j)) for i, j in zip(*np.nonzero(pairs))]
        if degenerate:
            warnings.warn(
                f"degenerate decoupled state pairs: {degenerate}",
                DegenerateResonanceWarning,
                stacklevel=2,
            )
    object.__setattr__(spec, "_checked", True)  # the spec is frozen
    return spec


def build_parallel(resonances, input_decays, output_decays, side_decays=()) -> NetworkSpec:
    """Parallel network: every state couples to both continua, none to each other."""
    resonances = np.asarray(resonances, dtype=float)
    n = len(resonances)
    spec = NetworkSpec(
        resonances=resonances,
        coupling=np.zeros((n, n)),
        input_decays=input_decays,
        output_decays=output_decays,
        side_decays=tuple(side_decays),
    )
    return validate(spec)


def build_series(resonances, gamma_first, Gamma_last, chain_couplings) -> NetworkSpec:
    """Chain of states: tridiagonal coupling, decay only at the two ends."""
    resonances = np.asarray(resonances, dtype=float)
    n = len(resonances)
    chain = np.asarray(chain_couplings, dtype=float)
    if chain.shape != (n - 1,):
        raise LengthMismatch(
            f"need {n - 1} chain couplings for {n} states, got {chain.shape}"
        )
    g = np.zeros((n, n))
    for i, gi in enumerate(chain):
        g[i, i + 1] = g[i + 1, i] = gi
    gam = np.zeros(n)
    gam[0] = gamma_first
    Gam = np.zeros(n)
    Gam[-1] = Gamma_last
    return validate(NetworkSpec(resonances, g, gam, Gam))


@dataclass(frozen=True)
class HybridSpec:
    """Ordered manifolds of mutually decoupled states, coupled in series.

    ``manifolds`` lists the resonances of each manifold.  ``couplings``
    has one entry per adjacent manifold pair: a scalar (homogeneous
    all-to-all rate) or an (N_k, N_{k+1}) matrix.  Only the first
    manifold decays to the input continuum and only the last to the
    output continuum; each may be a scalar (shared by all its states) or
    a per-state list.

    For the uniformly-unbalanced critically-coupled family the
    parametrization is instead carried by ``manifold_gammas`` (effective
    upstream rate of every state) and ``unbalance_ratios`` (per-manifold
    downstream/upstream ratio); `hybrid_critical_unbalanced` builds the
    matching couplings and output decays from those.
    """

    manifolds: tuple
    couplings: tuple
    input_decays: np.ndarray
    output_decays: np.ndarray
    manifold_gammas: tuple | None = None
    unbalance_ratios: np.ndarray | None = None

    def __post_init__(self):
        mans = tuple(_freeze(m) for m in self.manifolds)
        object.__setattr__(self, "manifolds", mans)
        M = len(mans)
        if M < 1 or any(len(m) < 1 for m in mans):
            raise LengthMismatch("need at least one manifold, each nonempty")
        coup = tuple(_freeze(c) for c in self.couplings)
        if len(coup) != M - 1:
            raise LengthMismatch(f"need {M - 1} inter-manifold couplings, got {len(coup)}")
        for k, c in enumerate(coup):
            want = (len(mans[k]), len(mans[k + 1]))
            if c.ndim == 0:
                continue
            if c.shape != want:
                raise LengthMismatch(
                    f"coupling block {k} has shape {c.shape}, expected scalar or {want}"
                )
        object.__setattr__(self, "couplings", coup)
        gam = np.broadcast_to(np.asarray(self.input_decays, float), (len(mans[0]),)).copy()
        Gam = np.broadcast_to(np.asarray(self.output_decays, float), (len(mans[-1]),)).copy()
        if np.any(gam < 0) or np.any(Gam < 0):
            raise NegativeRate("decay rates must be nonnegative")
        object.__setattr__(self, "input_decays", _freeze(gam))
        object.__setattr__(self, "output_decays", _freeze(Gam))
        if self.manifold_gammas is not None:
            mg = tuple(_freeze(m) for m in self.manifold_gammas)
            if len(mg) != M or any(len(a) != len(b) for a, b in zip(mg, mans)):
                raise LengthMismatch("manifold_gammas must mirror the manifold sizes")
            object.__setattr__(self, "manifold_gammas", mg)
        if self.unbalance_ratios is not None:
            r = _freeze(self.unbalance_ratios)
            if r.shape != (M,):
                raise LengthMismatch("need one unbalance ratio per manifold")
            object.__setattr__(self, "unbalance_ratios", r)

    @property
    def n_manifolds(self) -> int:
        return len(self.manifolds)

    @property
    def sizes(self):
        return tuple(len(m) for m in self.manifolds)


def hybrid_homogeneous(manifolds, gamma, Gamma, couplings) -> HybridSpec:
    """Hybrid network with one shared decay per end manifold and scalar
    all-to-all couplings between adjacent manifolds."""
    return HybridSpec(
        manifolds=tuple(np.asarray(m, float) for m in manifolds),
        couplings=tuple(np.asarray(c, float) for c in couplings),
        input_decays=gamma,
        output_decays=Gamma,
    )


def hybrid_critical_unbalanced(manifolds, manifold_gammas, ratios) -> HybridSpec:
    """Hybrid network in the critically-coupled, uniformly-unbalanced family.

    Each state i of manifold k carries an effective upstream rate
    ``manifold_gammas[k][i]`` and the manifold an unbalance ratio
    ``ratios[k]`` (downstream rate / upstream rate).  Adjacent states
    couple at g_ij = sqrt(ratios[k] * gam_i^(k) * gam_j^(k+1)) / 2 and
    the last manifold decays to the output at ratios[-1] * gam^(M)."""
    manifold_gammas = tuple(np.asarray(g, float) for g in manifold_gammas)
    ratios = np.asarray(ratios, float)
    coup = tuple(
        np.sqrt(ratios[k] * np.outer(manifold_gammas[k], manifold_gammas[k + 1])) / 2.0
        for k in range(len(manifold_gammas) - 1)
    )
    return HybridSpec(
        manifolds=tuple(np.asarray(m, float) for m in manifolds),
        couplings=coup,
        input_decays=manifold_gammas[0],
        output_decays=ratios[-1] * manifold_gammas[-1],
        manifold_gammas=manifold_gammas,
        unbalance_ratios=ratios,
    )


def lower_hybrid(h: HybridSpec) -> NetworkSpec:
    """Flatten a HybridSpec to the generic NetworkSpec.

    States of adjacent manifolds are fully connected (scalar coupling
    broadcast to the whole block); intra-manifold coupling is zero since
    manifolds are taken post-diagonalization."""
    sizes = h.sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = offsets[-1]
    resonances = np.concatenate(h.manifolds)
    g = np.zeros((n, n))
    for k, c in enumerate(h.couplings):
        block = np.broadcast_to(c, (sizes[k], sizes[k + 1]))
        g[offsets[k]:offsets[k + 1], offsets[k + 1]:offsets[k + 2]] = block
        g[offsets[k + 1]:offsets[k + 2], offsets[k]:offsets[k + 1]] = block.T
    gam = np.zeros(n)
    gam[: sizes[0]] = h.input_decays
    Gam = np.zeros(n)
    Gam[offsets[-2]:] = h.output_decays
    return validate(NetworkSpec(resonances, g, gam, Gam))
