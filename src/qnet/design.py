"""Parameter design: closed-form critical conditions and a numerical tuner.

The tuner searches for couplings/decay rates giving perfect transmission,
at a prescribed frequency or at a prescribed number of frequencies, one
seeded start at a time.  Each start goes straight into `_polish`, one
Levenberg-Marquardt least-squares fit whose residuals are the entries of
the scattering matrix's input column other than T -- the reflection R and
every side-channel leak S_ma -- at the frequencies `_verify` scores.  S
is unitary, so their squared sum is the shortfall sum(1 - |T|^2) itself,
for chains, parallel networks and side channels alike.  The polish does
not declare success: `_verify`, which reads the exact scattering engine
(`qnet.scatter`; the closed forms of `qnet.closedform` stay an
independent oracle) at the dressed-mode frequencies, scores each polished
start, and the first start it verifies ends the search and sets
``converged``.  The optimizer is small numpy code, so no `qnet`
subcommand imports scipy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from itertools import combinations, count, islice

import numpy as np

from .errors import (
    BalancedDecaysUnsupported,
    NegativeRadicand,
    SingularSystem,
    ValidationError,
)
from .metrics import _port_reached, _transmission_at, _unity_candidates
from .netcore import NetworkSpec, _finite_real, _is, validate
from .scatter import _dense_smatrices, port_coupling_matrix, state_matrix

_SUCCESS_OBJECTIVE = 1e-8
# starts at most; `_verify` merges candidates closer than the `_scan_window`
# span over _POINTS - 1
_STARTS, _POINTS = 32, 2403


def critical_series_params(gamma: float, Gamma: float, n: int) -> np.ndarray:
    """Uniform chain couplings g = sqrt(gamma Gamma)/2 for an n-state chain.

    With balanced decays this places n (odd) or n-1 (even) perfect-
    transmission frequencies; unbalanced decays give n-1."""
    return np.full(max(n - 1, 0), np.sqrt(gamma * Gamma) / 2.0)


def detuned_pair(gamma: float, Gamma: float, omega_1: float, omega_2: float):
    """Perfect-transmission frequency and coupling for a detuned two-state chain.

    Measuring detunings from the midpoint omega_bar = (omega_1+omega_2)/2,
    with c = (Gamma (omega_1-omega_bar) - gamma (omega_2-omega_bar)) / (Gamma-gamma):

        omega* = omega_bar + c,
        g_12   = sqrt(gamma Gamma / 4 + c^2 - ((omega_1-omega_2)/2)^2),

    which satisfies gamma (omega*-omega_2) = Gamma (omega*-omega_1) and
    g^2 = (omega*-omega_1)(omega*-omega_2) + gamma Gamma / 4, the two
    conditions for |T(omega*)| = 1.  Balanced decays make the required
    coupling infinite, hence BalancedDecaysUnsupported.
    """
    if gamma == Gamma:
        raise BalancedDecaysUnsupported(
            "gamma = Gamma leaves no finite coupling with perfect transmission "
            "for a detuned pair"
        )
    mid = 0.5 * (omega_1 + omega_2)
    half = 0.5 * (omega_1 - omega_2)
    c = (Gamma * (omega_1 - mid) - gamma * (omega_2 - mid)) / (Gamma - gamma)
    radicand = gamma * Gamma / 4.0 + c * c - half * half
    if radicand < 0:
        raise NegativeRadicand(f"coupling radicand {radicand!r} is negative")
    return mid + c, float(np.sqrt(radicand))


@dataclass(frozen=True)
class DesignProblem:
    """A bounded search for perfect transmission.

    ``free`` lists the tunable entries of the base network, each one of
    ("g", i, j), ("gamma", i), or ("Gamma", i); ``bounds`` gives a
    positive (lo, hi) interval per entry.  ``target`` is either
    ("count", m) -- at least m perfect-transmission frequencies -- or
    ("freq", omega_star) -- perfect transmission at a fixed frequency.
    """

    base: NetworkSpec
    free: tuple
    bounds: tuple
    target: tuple
    seed: int = 0

    def __post_init__(self):
        validate(self.base)
        n = self.base.size
        if len(self.free) != len(self.bounds):
            raise ValidationError("need one (lo, hi) bound per free parameter")
        for lo_hi in self.bounds:
            pair = _is(lo_hi, (tuple, list)) and len(lo_hi) == 2
            if not (pair and all(_finite_real(v) for v in lo_hi) and 0 < lo_hi[0] < lo_hi[1]):
                raise ValidationError(f"bound {lo_hi!r} is not a positive, finite, ordered pair")
        pair = _is(self.target, (tuple, list)) and len(self.target) == 2
        kind, value = self.target if pair else (None, None)
        if kind == "count" and not (_is(value, numbers.Integral) and 1 <= value <= n):
            raise ValidationError("target count must be an integer in [1, N]")
        if kind == "freq" and not _finite_real(value):
            raise ValidationError("target frequency must be a finite number")
        if kind not in ("count", "freq"):
            raise ValidationError(f"unknown target {self.target!r}")
        for item in self.free:
            name = item[0] if _is(item, (tuple, list)) and len(item) else None
            arity = {"g": 3, "gamma": 2, "Gamma": 2}.get(name) if isinstance(name, str) else None
            if arity is None:
                raise ValidationError(f"unknown free parameter {item!r}")
            indices = item[1:]
            if len(indices) != arity - 1 or not all(
                    _is(i, numbers.Integral) and 0 <= i < n for i in indices):
                raise ValidationError(f"free parameter {item!r} needs state indices in [0, {n})")
            if name == "g" and item[1] == item[2]:
                raise ValidationError("self-coupling cannot be a free parameter")


@dataclass(frozen=True)
class DesignResult:
    """Best parameters found, their engine-verified score, and diagnostics:
    per start that ran, in start order, the verified objective of its
    polished point (inf where the engine found A singular at a candidate)
    and the number of residual evaluations its `_polish` made.
    ``objective`` sums 1 - |T|^2 at the target frequency or the best
    dressed-mode frequencies."""

    parameters: dict
    network: NetworkSpec
    objective: float
    achieved_frequencies: np.ndarray
    achieved_values: np.ndarray
    converged: bool
    restart_objectives: tuple
    restart_evaluations: tuple
    message: str


def apply_parameters(base: NetworkSpec, free, values) -> NetworkSpec:
    """Copy of ``base`` with the free entries replaced by ``values``."""
    g = base.coupling.copy()
    gam = base.input_decays.copy()
    Gam = base.output_decays.copy()
    for item, v in zip(free, values):
        if item[0] == "g":
            _, i, j = item
            g[i, j] = g[j, i] = v
        elif item[0] == "gamma":
            gam[item[1]] = v
        else:
            Gam[item[1]] = v
    return replace(base, coupling=g, input_decays=gam, output_decays=Gam)


def _scan_window(net: NetworkSpec):
    """The resonances' span widened by 2.5 ||g||_2 and 6 times the largest
    total rate on each side."""
    res = net.resonances
    lw = float(np.max(net.total_rates()))
    # the spectral norm (largest singular value), without norm()'s overhead
    gnorm = float(np.linalg.svd(net.coupling, compute_uv=False).max()) if net.size > 1 else 0.0
    return float(res.min()) - 2.5 * gnorm - 6.0 * lw, float(res.max()) + 2.5 * gnorm + 6.0 * lw


def _best(f, v, m) -> tuple:
    """(objective, frequencies, values) of the ``m`` largest ``v``, each one
    missing a shortfall of 1.  Physical |T|^2 cannot exceed 1, and a
    negative objective would reward a round-off overshoot: values are capped."""
    v = np.minimum(v, 1.0)
    best = np.lexsort((f, v))[::-1][:m]  # by value, then frequency, descending
    freqs, vals = f[best], v[best]
    return float(np.sum(1.0 - vals) + max(m - len(vals), 0) * 1.0), freqs, vals


def _verify(net: NetworkSpec, target, points) -> tuple:
    """`_best` of the engine's |T|^2 at a freq target, or at the candidates
    of `_unity_candidates` for a count target.  A run of candidates closer
    than the `_scan_window` span over ``points`` - 1 counts once, at its
    largest |T|^2."""
    if target[0] == "freq":
        w = np.asarray([float(target[1])])
        return _best(w, np.abs(_transmission_at(net, w)) ** 2, 1)
    f, v = _unity_candidates(net)
    lo, hi = _scan_window(net)
    run = np.cumsum(np.diff(f, prepend=-np.inf) >= (hi - lo) / (points - 1))
    top = np.lexsort((v, run))  # within each run, the largest |T|^2 last
    top = top[np.diff(run[top], append=np.inf) != 0]
    return _best(f[top], v[top], int(target[1]))


def _polish(problem: DesignProblem, vals) -> tuple:
    """(values, residual evaluations): ``vals`` polished towards unity
    transmission by Levenberg-Marquardt (Moré, LNM 630, 105 (1978)).

    The residuals are the real and imaginary parts of S_pa for every port
    p other than b -- R and each side-channel leak -- at the frequencies
    `_verify` scores: omega* for a freq target; for a count target of m,
    Im mu of m tracked eigenvalues mu of M - k_a^T k_a, where R can vanish.
    S is unitary, so the squared residuals sum to sum(1 - |T|^2) there.
    The tracked eigenvalues are the m of smallest |Re mu| at ``vals``
    first, then the other m-subsets in lexicographic order, 8 at most,
    drawn only from eigenvalues whose eigenvector some port reaches; each
    is followed from point to point by nearest match.  Each subset is one
    run in log-parameters with a central-difference Jacobian (step 1e-6).
    A trial point is clipped to the box, a coordinate on a bound is held
    while the gradient J^T r points out of the box, and a step that loses
    a tracked eigenvalue or meets a singular A(omega) is rejected.  A run
    ends when every residual is below 1e-13, when its damping passes 1e8
    or after 100 trial steps.  It scores its squared residuals plus 1 for
    each tracked frequency closer than `_verify`'s merge step to the next:
    R vanishes there once one eigenvalue at that frequency reaches the
    axis, and `_verify` counts one peak.  A run that ends below 1e-13 ends
    the polish, unless it shares a frequency and its subset is the only
    one: then that root is deflated and the subset runs again, 8 runs in
    all at most.  With other subsets left, `tune`'s next start costs fewer
    evaluations than trying them.  The values returned are the best-scored
    point of all runs (``vals`` clipped to the box if none could start),
    each on a bound exactly that bound."""
    bounds = np.array(problem.bounds, float)
    lo, hi = np.log(bounds).T
    x0 = np.clip(np.log(vals), lo, hi)
    kind, value = problem.target
    evaluations = 0

    def residuals(x, tracked):
        """(tracked eigenvalues, residuals) at ``x``, or None for a rejected point."""
        nonlocal evaluations
        evaluations += 1
        net = apply_parameters(problem.base, problem.free, np.exp(x))
        if kind == "count":
            K = port_coupling_matrix(net)
            mu = np.linalg.eigvals(state_matrix(net) - np.outer(K[0], K[0]))
            j = np.abs(mu[:, None] - tracked).argmin(axis=0)
            if len(set(j)) < len(j):  # two tracked eigenvalues matched to one
                return None
            tracked = mu[j]
        try:
            s = _dense_smatrices(net, tracked.imag if kind == "count" else np.array([value], float))
        except SingularSystem:
            return None
        leak = np.delete(s[:, :, 0], 1, axis=1)
        return tracked, deflation(x) * np.concatenate([leak.real.ravel(), leak.imag.ravel()])

    def deflation(x):
        # 1 + |x - z|^-4 per shared-frequency root z (Farrell et al., SIAM J. Sci.
        # Comput. 37, A2026 (2015); their square stalls here): no run ends at z again
        return np.prod([1.0 + 1.0 / np.sum((x - z) ** 2) ** 2 for z in roots])

    def jacobian(x, tracked):
        h, cols = 1e-6, []
        for step in h * np.eye(len(x)):
            up, down = residuals(x + step, tracked), residuals(x - step, tracked)
            if up is None or down is None:
                return None
            cols.append((up[1] - down[1]) / (2 * h))
        return np.array(cols).T

    if kind == "freq":
        subsets = [np.empty(0)]
    else:
        net = apply_parameters(problem.base, problem.free, np.exp(x0))
        K, M = port_coupling_matrix(net), state_matrix(net)
        mu, V = np.linalg.eig(M - np.outer(K[0], K[0]))
        mu = mu[_port_reached(K, M, V)]
        subsets = islice(combinations(mu[np.argsort(np.abs(mu.real), kind="stable")], value), 8)

    best, roots, runs = (np.inf, x0), [], list(subsets)
    single = len(runs) == 1
    for subset in runs:
        start = residuals(x0, np.asarray(subset))
        if start is None:
            continue
        (tracked, r), x, J, lam = start, x0, None, 1e-3
        for _ in range(100):
            if np.max(np.abs(r)) < 1e-13 or lam > 1e8:
                break
            J = jacobian(x, tracked) if J is None else J
            if J is None:
                break
            grad = J.T @ r  # a coordinate on a bound stays while descent leaves the box
            move = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
            A = np.vstack([J[:, move], np.sqrt(lam) * np.eye(move.sum())])
            step = np.zeros(len(x))
            step[move] = np.linalg.lstsq(A, np.concatenate([-r, np.zeros(move.sum())]), rcond=None)[0]
            xn = np.clip(x + step, lo, hi)
            trial = residuals(xn, tracked)
            if trial is not None and trial[1] @ trial[1] < r @ r:
                (tracked, r), x, J, lam = trial, xn, None, 0.1 * lam
            else:
                lam *= 10.0
        r = r / deflation(x)
        w_lo, w_hi = _scan_window(apply_parameters(problem.base, problem.free, np.exp(x)))
        shared = np.sum(np.diff(np.sort(tracked.imag)) < (w_hi - w_lo) / (_POINTS - 1))
        best = min(best, (r @ r + shared, x), key=lambda b: b[0])
        if np.max(np.abs(r)) < 1e-13:
            if not (shared and single and len(runs) < 8 and np.any(x != x0)):
                break
            roots.append(x)
            runs.append(subset)
    # a coordinate on a bound gives the bound itself, not exp(log(bound))
    return np.select([best[1] <= lo, best[1] >= hi], bounds.T, np.exp(best[1])), evaluations


def tune(problem: DesignProblem) -> DesignResult:
    """Search the bounded box for parameters achieving the target.

    At most ``_STARTS`` seeded starts run, one at a time, in log-parameters
    (rates and couplings live on ratio scales): each start is polished by
    `_polish`, and `_verify`, the engine at the dressed-mode frequencies,
    scores the polished point.  The first start scoring below 1e-12 ends
    the search.  Scoring raises `SingularSystem` where a frequency sits on
    a resonance no port reaches.  For a freq target that is the target
    itself, and the error propagates; for a count target the start counts
    as unverified, and the last such error is raised only if no start
    verifies.  Otherwise the best verified attempt wins, ties broken by
    smaller total parameter value, then by order; ``converged`` is set
    only when its score is below 1e-8.
    """
    rng = np.random.default_rng(problem.seed)
    log_lo, log_hi = np.log(np.array(problem.bounds, float)).T
    ndim = len(problem.free)

    def clip(x):
        return np.clip(x, log_lo, log_hi)

    # seeded starting points: the base network's own values, a critical-
    # style guess (couplings at sqrt(gamma Gamma)/2, rates balanced with
    # the input), lognormal jitter around that guess, and uniform draws
    gam_ref = float(np.max(problem.base.input_decays))
    Gam_ref = float(np.max(problem.base.output_decays))
    start = {"g": np.sqrt(gam_ref * Gam_ref) / 2.0, "gamma": Gam_ref if Gam_ref > 0 else gam_ref,
             "Gamma": gam_ref}
    guess = clip(np.log([start[item[0]] for item in problem.free]))
    rates = {"gamma": problem.base.input_decays, "Gamma": problem.base.output_decays}
    current = [problem.base.coupling[i[1], i[2]] if i[0] == "g" else rates[i[0]][i[1]]
               for i in problem.free]

    def gen_starts():
        yield guess
        if np.all(np.asarray(current) > 0):
            yield clip(np.log(current))
        for k in count():
            if k % 3 == 2:
                yield rng.uniform(log_lo, log_hi)
            else:
                yield clip(guess + rng.normal(0.0, 0.6 if k % 3 == 0 else 1.2, ndim))

    finalists = []  # (verified objective, total, index, values, network, freqs, |T|^2)
    restarts = []  # per start: (verified objective, residual evaluations)
    for x0 in islice(gen_starts(), _STARTS):
        vals, evaluations = _polish(problem, np.exp(x0))
        net = apply_parameters(problem.base, problem.free, vals)
        try:
            obj, freqs, t2 = _verify(net, problem.target, _POINTS)
        except SingularSystem as exc:
            if problem.target[0] == "freq":
                raise
            unverified, obj = exc, np.inf
        else:
            finalists.append((obj, float(np.sum(vals)), len(finalists), vals, net, freqs, t2))
        restarts.append((obj, evaluations))
        if obj < 1e-12:
            break
    if not finalists:
        raise unverified
    verified_obj, _, _, best_vals, net, freqs, t2 = min(finalists, key=lambda c: c[:3])
    converged = bool(verified_obj < _SUCCESS_OBJECTIVE)
    return DesignResult(
        parameters={tuple(item): float(v) for item, v in zip(problem.free, best_vals)},
        network=net,
        objective=float(verified_obj),
        achieved_frequencies=freqs,
        achieved_values=t2,
        converged=converged,
        restart_objectives=tuple(r[0] for r in restarts),
        restart_evaluations=tuple(r[1] for r in restarts),
        message="converged" if converged else (
            f"best objective {verified_obj:.3e} above threshold {_SUCCESS_OBJECTIVE:g}"
        ),
    )
