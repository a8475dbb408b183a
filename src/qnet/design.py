"""Parameter design: closed-form critical conditions and a numerical tuner.

The tuner searches for couplings/decay rates giving perfect transmission,
at a prescribed frequency or at a prescribed number of frequencies, one
seeded start at a time.  A Nelder-Mead on a |T|^2 scan (`_scan_score`,
one scorer per problem, which resolves a chain once) finds the start's
rough basin; `_polish` then solves it exactly, for every topology, by
Levenberg-Marquardt on eigenvalues of M - k_a^T k_a with analytic
derivatives.  Neither stops the search nor declares success: `_verify`,
which reads the exact scattering engine (`qnet.scatter`, independent of
the closed forms) at the dressed-mode frequencies, scores each attempt,
and the first start it verifies ends the search and sets ``converged``.

The optimizers are small numpy code, so no `qnet` subcommand imports
scipy: `_nelder_mead` follows scipy's Nelder-Mead step for step (the
same objective calls in the same order).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from itertools import combinations, count, islice

import numpy as np

from .closedform import series_R
from .errors import BalancedDecaysUnsupported, NegativeRadicand, ValidationError
from .metrics import _transmission_at, _unity_candidates
from .netcore import NetworkSpec, _finite_real, _is, validate
from .scatter import port_coupling_matrix, state_matrix

_SUCCESS_OBJECTIVE = 1e-8
# the tuner's starts at most, points of its |T|^2 scan, and Nelder-Mead
# iterations per free parameter
_STARTS, _POINTS, _MAXITER = 32, 1201, 600


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
    per restart, in start order, the best objective and the number of
    objective evaluations its Nelder-Mead runs made.  ``objective`` sums 1 -
    |T|^2 at the target frequency or the best dressed-mode frequencies."""

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
    res = net.resonances
    lw = float(np.max(net.total_rates()))
    return _window(float(res.min()), float(res.max()), net.coupling, lw)


def _window(res_lo, res_hi, g, lw):
    """The resonances' span widened by 2.5 ||g||_2 and 6 ``lw`` on each side."""
    # the spectral norm (largest singular value), without norm()'s overhead
    gnorm = float(np.linalg.svd(g, compute_uv=False).max()) if len(g) > 1 else 0.0
    return res_lo - 2.5 * gnorm - 6.0 * lw, res_hi + 2.5 * gnorm + 6.0 * lw


def _chain_params(net: NetworkSpec):
    """(gamma, Gamma, chain couplings) if ``net`` is a two-port chain, else None."""
    if net.side_decays or net.size < 2:
        return None
    n = net.size
    diag1 = np.diag(net.coupling, 1)
    if np.any(net.coupling != (np.diag(diag1, 1) + np.diag(diag1, -1))):
        return None
    if np.any(net.input_decays[1:] != 0) or np.any(net.output_decays[:-1] != 0):
        return None
    return float(net.input_decays[0]), float(net.output_decays[-1]), diag1


def _transmission2(net: NetworkSpec, freqs: np.ndarray) -> np.ndarray:
    """|T|^2 from the closed form on two-port chains, else from the engine."""
    freqs = np.atleast_1d(np.asarray(freqs, float))
    chain = _chain_params(net)
    if chain is not None:  # lossless two-port: |T|^2 = 1 - |R|^2
        gamma, Gamma, g = chain
        d = freqs[:, None] - net.resonances[None, :]
        return 1.0 - np.abs(series_R(gamma, Gamma, d, g)) ** 2
    return np.abs(_transmission_at(net, freqs)) ** 2


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


def _shortfalls(w, t2, m) -> tuple:
    """`_best` of the `_quadratic_peaks` of the samples ``t2`` of |T|^2 on
    the uniform grid ``w`` (enough during optimization, since the peak of a
    near-unity resonance is locally parabolic)."""
    f, v = _quadratic_peaks(w, t2)
    # flat-topped or coalescing maxima can register twice from round-off
    # jitter: a run closer than a grid step counts once, at its largest value
    # and last frequency, so the count stays honest
    if len(f) > 1:
        order = np.argsort(f, kind="stable")
        v, f = v[order], f[order]
        gap = ~(f[1:] - f[:-1] < (w[-1] - w[0]) / (len(w) - 1))
        v = np.maximum.reduceat(v, np.concatenate(([0], gap.nonzero()[0] + 1)))
        f = f[np.concatenate((gap, [True]))]
    return _best(f, v, m)


def _best(f, v, m) -> tuple:
    """(objective, frequencies, values) of the ``m`` largest ``v``, each one
    missing a shortfall of 1.  A fit can overshoot 1, physical |T|^2 cannot,
    and a negative objective would reward the artifact: values are capped."""
    v = np.minimum(v, 1.0)
    best = np.lexsort((f, v))[::-1][:m]  # by value, then frequency, descending
    freqs, vals = f[best], v[best]
    return float(np.sum(1.0 - vals) + max(m - len(vals), 0) * 1.0), freqs, vals


def _score(net: NetworkSpec, target, points=1201) -> tuple:
    """The tuner's objective with |T|^2 from `_transmission2`: at a freq
    target, or `_shortfalls` on a ``points`` scan of `_scan_window`."""
    if target[0] == "freq":
        w = np.asarray([float(target[1])])
        return _best(w, _transmission2(net, w), 1)
    w = np.linspace(*_scan_window(net), points)
    return _shortfalls(w, _transmission2(net, w), int(target[1]))


def _verify(net: NetworkSpec, target, points) -> tuple:
    """`_best` of the engine's |T|^2 at a freq target, or at the candidates
    of `_unity_candidates` for a count target.  A run of candidates closer
    than a step of a ``points`` scan of `_scan_window` counts once, at its
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


def _scan_score(problem: DesignProblem, points: int, chain: bool):
    """``vals -> _score(apply_parameters(base, free, vals), target, points)[0]``,
    bit for bit, and faster when every network is a two-port ``chain``: the
    free slots are resolved once, and each call writes ``vals`` into one
    reused array of the couplings and end rates and scans `series_R`."""
    base, target, n = problem.base, problem.target, problem.base.size
    if not chain:
        return lambda v: _score(apply_parameters(base, problem.free, v), target, points)[0]
    slot = {}  # position in ``state`` -> index into vals; the last entry wins
    for k, item in enumerate(problem.free):
        if item[0] == "g":
            slot[item[1] * n + item[2]] = slot[item[2] * n + item[1]] = k
        else:  # a chain's rates sit at its ends: gamma_0 and Gamma_{N-1}
            slot[n * n + (item[0] == "Gamma")] = k
    dst, src = np.array(list(slot)), np.array(list(slot.values()))
    state = np.concatenate([base.coupling.ravel(), [base.input_decays[0], base.output_decays[-1]]])
    g, res = state[: n * n].reshape(n, n), base.resonances
    links, res_lo, res_hi = np.diag(g, 1), float(res.min()), float(res.max())
    d = np.asarray([float(target[1])])[:, None] - res[None, :] if target[0] == "freq" else None

    def score(vals):
        state[dst] = vals[src]
        gamma, Gamma = state[-2], state[-1]
        if target[0] == "freq":
            return 1.0 - min((1.0 - np.abs(series_R(gamma, Gamma, d, links)) ** 2)[0], 1.0)
        # `_scan_window`: a chain's largest total rate is max(gamma, Gamma)
        w = np.linspace(*_window(res_lo, res_hi, g, max(gamma, Gamma)), points)
        # the differences w[:, None] - res, each state's detunings contiguous
        t2 = 1.0 - np.abs(series_R(gamma, Gamma, (w - res[:, None]).T, links)) ** 2
        return _shortfalls(w, t2, int(target[1]))[0]

    return score


def _nelder_mead(func, x0, xatol, fatol, maxiter):
    """(x, f(x), evaluations): Nelder-Mead minimization of ``func`` from ``x0``.

    A step-for-step port of ``scipy.optimize.minimize(method="Nelder-Mead")``
    (Nelder & Mead, Comput. J. 7, 308 (1965)) with its default,
    non-adaptive coefficients, no bounds and no cap on evaluations: the
    same initial simplex, the same vertex reorders and the same
    convergence test, so ``func`` sees the same points in the same order.
    ``func`` must not modify its argument."""
    x0 = np.asarray(x0, float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(v) for v in sim], float)
    nfev = n + 1
    # scipy sorts twice before the first step; argsort is not stable, so a
    # tie may reorder on the second pass, and the port keeps both
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    for _ in range(1, maxiter):
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = func(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = func(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # outside contraction when the reflection beat the worst vertex,
            # inside contraction otherwise; shrink towards the best if neither
            # improves
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = func(xc)
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = func(xc)
                shrink = not fxc < fsim[-1]
            nfev += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
                nfev += n
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nfev


def _eigen_derivatives(problem: DesignProblem, x) -> tuple:
    """(mu, dmu): the eigenvalues mu_j of M_R = M - k_a^T k_a at the
    log-parameters ``x``, and dmu[j, p] = d mu_j / d x_p = W_j (d M_R /
    d x_p) V_j with W = V^{-1} (Lancaster, Numer. Math. 6, 377 (1964)).
    A free entry that a later one overrides gets a zero column."""
    net = apply_parameters(problem.base, problem.free, np.exp(x))
    K = port_coupling_matrix(net)
    mu, V = np.linalg.eig(state_matrix(net) - np.outer(K[0], K[0]))
    W = np.linalg.pinv(V)  # inv would raise where V is singular (a defective M_R)
    Wk, kV = W @ K[:2].T, K[:2] @ V
    last = {(item[0], *sorted(item[1:])): p for p, item in enumerate(problem.free)}
    dmu = np.zeros((len(mu), len(x)), complex)
    for p, item in enumerate(problem.free):
        if last[(item[0], *sorted(item[1:]))] != p:
            continue
        a = item[1]
        if item[0] == "g":  # d M_R = i g_ab (e_a e_b^T + e_b e_a^T)
            b = item[2]
            dmu[:, p] = 1j * net.coupling[a, b] * (W[:, a] * V[b] + W[:, b] * V[a])
        else:  # d M_R = -+ (sqrt(rate)/4) (e_a k^T + k e_a^T) for k = k_a, k_b
            port, sign = (1, 1.0) if item[0] == "Gamma" else (0, -1.0)
            dmu[:, p] = sign * K[port, a] / 4 * (W[:, a] * kV[port] + Wk[:, port] * V[a])
    return mu, dmu


def _polish(problem: DesignProblem, vals):
    """Parameters that put eigenvalues of M_R on the imaginary axis, or None.

    With two ports |T(omega)| = 1 needs R(omega) = 0, which holds exactly
    where M_R has the eigenvalue i omega (see `qnet.metrics`).  A count
    target of m drives Re mu_j to zero for m tracked eigenvalues: the m of
    smallest |Re mu| at ``vals`` first, then the other m-subsets in
    lexicographic order, 8 subsets at most.  A freq target drives mu_j -
    i omega* to zero for the eigenvalue nearest i omega*.  Each subset is
    one Levenberg-Marquardt run (Moré, LNM 630, 105 (1978)) in
    log-parameters on the exact residuals and `_eigen_derivatives`, each
    trial point clipped to the box and the eigenvalues tracked from step to
    step by nearest match.  A run succeeds when every residual is below
    1e-13; it is abandoned when its damping passes 1e8 or after 100 trial
    steps (a success takes about a dozen, a miss can crawl for thousands)."""
    lo, hi = np.log(np.array(problem.bounds, float)).T
    x0 = np.clip(np.log(vals), lo, hi)
    kind, value = problem.target
    mu0, _ = _eigen_derivatives(problem, x0)
    if kind == "freq":
        subsets = [(np.argmin(np.abs(mu0 - 1j * value)),)]
    else:
        subsets = islice(combinations(np.argsort(np.abs(mu0.real), kind="stable"), value), 8)

    def residuals(x, tracked):
        mu, dmu = _eigen_derivatives(problem, x)
        j = np.abs(mu[:, None] - tracked).argmin(axis=0)
        mu, dmu = mu[j], dmu[j]
        if kind == "freq":
            return mu, np.concatenate([mu.real, mu.imag - value]), np.vstack([dmu.real, dmu.imag])
        # two tracked eigenvalues matched to one: a step that loses one is rejected
        return mu, np.where(len(set(j)) < len(j), np.inf, mu.real), dmu.real

    for subset in subsets:
        x, lam = x0, 1e-3
        tracked, r, J = residuals(x, mu0[list(subset)])
        for _ in range(100):
            if np.max(np.abs(r)) < 1e-13 or lam > 1e8:
                break
            A = np.vstack([J, np.sqrt(lam) * np.eye(len(x))])
            step = np.linalg.lstsq(A, np.concatenate([-r, np.zeros(len(x))]), rcond=None)[0]
            xn = np.clip(x + step, lo, hi)
            tn, rn, Jn = residuals(xn, tracked)
            if rn @ rn < r @ r:
                x, tracked, r, J, lam = xn, tn, rn, Jn, 0.1 * lam
            else:
                lam *= 10.0
        if np.max(np.abs(r)) < 1e-13:
            return np.exp(x)
    return None


def _fold(x, lo, hi):
    """Reflect unconstrained coordinates into [lo, hi] (triangle wave)."""
    span = hi - lo
    y = np.mod(x - lo, 2.0 * span)
    return lo + np.abs(y - span)


def tune(problem: DesignProblem) -> DesignResult:
    """Search the bounded box for parameters achieving the target.

    At most ``_STARTS`` seeded starts run, one at a time: two Nelder-Mead
    cycles over log-parameters (rates and couplings live on ratio scales)
    on the scan objective, bounds enforced by reflection, then `_verify`,
    the engine at the dressed-mode frequencies, scores the candidate and,
    unless it is already exact, its `_polish`.  The first start scoring
    below 1e-12 ends the search.  The best attempt wins, ties broken by
    smaller total parameter value, then by order; ``converged`` is set
    only when its score is below 1e-8.
    """
    rng = np.random.default_rng(problem.seed)
    log_lo, log_hi = np.log(np.array(problem.bounds, float)).T
    ndim = len(problem.free)
    # every tuned value is positive, so whether the networks are chains
    # depends on the free slots alone, and any positive probe decides it
    probe = apply_parameters(problem.base, problem.free, np.exp(log_hi))
    score = _scan_score(problem, _POINTS, _chain_params(probe) is not None)

    def objective(x):
        return score(np.exp(_fold(x, log_lo, log_hi)))

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
    current = [
        problem.base.coupling[item[1], item[2]] if item[0] == "g" else rates[item[0]][item[1]]
        for item in problem.free
    ]

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

    def solves(v):
        net = apply_parameters(problem.base, problem.free, v)
        obj, freqs, vals = _verify(net, problem.target, 2 * _POINTS + 1)
        finalists.append((obj, float(np.sum(v)), len(finalists), v, net, freqs, vals))
        return obj < 1e-12

    restarts = []  # per start: (best scan objective, Nelder-Mead evaluations)
    for x0 in islice(gen_starts(), _STARTS):
        x, best, evaluations = x0, (np.inf, x0), 0
        for _cycle in range(2):  # re-seeding the simplex escapes stalls
            x, fun, nfev = _nelder_mead(
                objective, x, xatol=1e-10, fatol=1e-13, maxiter=_MAXITER * max(1, ndim)
            )
            evaluations += nfev
            if fun < best[0]:
                best = (float(fun), x)
        restarts.append((best[0], evaluations))
        vals = np.exp(_fold(best[1], log_lo, log_hi))
        if solves(vals):
            break
        polished = _polish(problem, vals)
        if polished is not None and solves(polished):
            break
    verified_obj, _, _, best_vals, net, freqs, vals = min(finalists, key=lambda c: c[:3])
    converged = bool(verified_obj < _SUCCESS_OBJECTIVE)
    params = {tuple(item): float(v) for item, v in zip(problem.free, best_vals)}
    return DesignResult(
        parameters=params,
        network=net,
        objective=float(verified_obj),
        achieved_frequencies=freqs,
        achieved_values=vals,
        converged=converged,
        restart_objectives=tuple(r[0] for r in restarts),
        restart_evaluations=tuple(r[1] for r in restarts),
        message="converged" if converged else (
            f"best objective {verified_obj:.3e} above threshold {_SUCCESS_OBJECTIVE:g}"
        ),
    )
