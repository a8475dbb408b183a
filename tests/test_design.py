import pathlib

import numpy as np
import pytest
from scipy.optimize import minimize, rosen

import qnet.design as design
from qnet import (
    BalancedDecaysUnsupported,
    DesignProblem,
    HybridSpec,
    NegativeRadicand,
    NetworkSpec,
    SweepGrid,
    ValidationError,
    apply_parameters,
    build_parallel,
    build_series,
    critical_series_params,
    detuned_pair,
    find_unity_peaks,
    lower_hybrid,
    parse_network_file,
    smatrix,
    sweep,
    tune,
)
from qnet.cli import _load
from qnet.metrics import _unity_candidates
from qnet.scatter import _dense_smatrices

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"


# ---------------------------------------------------------------------------
# closed-form design rules


def test_detuned_pair_known_case():
    omega, g = detuned_pair(1.0, 2.0, 0.0, 0.75)
    net = build_series([0.0, 0.75], 1.0, 2.0, [g])
    assert abs(smatrix(net, omega)[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_detuned_pair_random_draws_reach_unity():
    rng = np.random.default_rng(42)
    done = 0
    while done < 100:
        gamma, Gamma = rng.uniform(0.2, 3.0, 2)
        if abs(gamma - Gamma) < 1e-3:
            continue
        w1, w2 = rng.uniform(-2.0, 2.0, 2)
        try:
            omega, g = detuned_pair(gamma, Gamma, w1, w2)
        except NegativeRadicand:
            continue
        net = build_series([w1, w2], gamma, Gamma, [g])
        assert abs(smatrix(net, omega)[1, 0]) ** 2 > 1.0 - 1e-10
        done += 1


def test_detuned_pair_rejects_balanced_decays():
    with pytest.raises(BalancedDecaysUnsupported):
        detuned_pair(1.0, 1.0, 0.0, 0.5)


def test_detuned_pair_radicand_always_admissible():
    # c^2 >= ((omega_1-omega_2)/2)^2 holds identically, so the coupling
    # radicand is bounded below by gamma*Gamma/4 and stays positive;
    # NegativeRadicand guards only against floating-point pathologies
    rng = np.random.default_rng(7)
    for _ in range(200):
        gamma, Gamma = rng.uniform(0.01, 5.0, 2)
        if gamma == Gamma:
            continue
        w1, w2 = rng.uniform(-50.0, 50.0, 2)
        _, g = detuned_pair(gamma, Gamma, w1, w2)
        assert g >= np.sqrt(gamma * Gamma) / 2.0 - 1e-12
    assert issubclass(NegativeRadicand, Exception)


def test_detuned_pair_degenerate_reduces_to_critical():
    # omega_1 = omega_2: the optimum sits at the shared resonance with the
    # critical coupling sqrt(gamma Gamma)/2
    omega, g = detuned_pair(1.0, 2.0, 0.3, 0.3)
    assert omega == pytest.approx(0.3)
    assert g == pytest.approx(np.sqrt(2.0) / 2.0)


def test_critical_series_params_value_and_length():
    g = critical_series_params(1.0, 4.0, 5)
    assert g.shape == (4,)
    np.testing.assert_allclose(g, 1.0)
    assert critical_series_params(1.0, 4.0, 1).shape == (0,)


# ---------------------------------------------------------------------------
# problem validation


def _chain_problem(n=3, target=("count", 3), bounds_count=None):
    # balanced decays so an odd chain can reach n perfect-transmission points
    net = build_series(np.zeros(n), 1.0, 1.0, np.full(n - 1, 0.3))
    free = tuple(("g", i, i + 1) for i in range(n - 1))
    k = len(free) if bounds_count is None else bounds_count
    return DesignProblem(
        base=net, free=free, bounds=tuple((0.05, 10.0) for _ in range(k)), target=target
    )


def test_problem_rejects_bound_count_mismatch():
    with pytest.raises(ValidationError):
        _chain_problem(bounds_count=1)


def test_problem_rejects_bad_bounds():
    net = build_series([0.0, 0.0], 1.0, 2.0, [0.5])
    with pytest.raises(ValidationError):
        DesignProblem(net, (("g", 0, 1),), ((-1.0, 2.0),), ("count", 1))
    with pytest.raises(ValidationError):
        DesignProblem(net, (("g", 0, 1),), ((2.0, 1.0),), ("count", 1))


def test_problem_rejects_bad_target():
    with pytest.raises(ValidationError):
        _chain_problem(target=("count", 9))
    with pytest.raises(ValidationError):
        _chain_problem(target=("maximize", 1.0))


def test_problem_rejects_self_coupling_and_unknown_parameter():
    net = build_series([0.0, 0.0], 1.0, 2.0, [0.5])
    with pytest.raises(ValidationError):
        DesignProblem(net, (("g", 1, 1),), ((0.1, 1.0),), ("count", 1))
    with pytest.raises(ValidationError):
        DesignProblem(net, (("mu", 0),), ((0.1, 1.0),), ("count", 1))


def test_apply_parameters_round_trip():
    net = build_series([0.0, 0.5], 1.0, 2.0, [0.3])
    out = apply_parameters(net, (("g", 0, 1), ("gamma", 0), ("Gamma", 1)), [0.9, 1.5, 2.5])
    assert out.coupling[0, 1] == 0.9 and out.coupling[1, 0] == 0.9
    assert out.input_decays[0] == 1.5
    assert out.output_decays[1] == 2.5
    # base untouched
    assert net.coupling[0, 1] == 0.3


# ---------------------------------------------------------------------------
# numerical tuning


def test_tune_freq_target_recovers_detuned_pair():
    gamma, Gamma = 1.0, 2.0
    w1, w2 = 0.0, 0.75
    omega, g_true = detuned_pair(gamma, Gamma, w1, w2)
    net = build_series([w1, w2], gamma, Gamma, [0.4])
    problem = DesignProblem(
        net, (("g", 0, 1),), ((0.05, 10.0),), ("freq", omega), seed=3
    )
    result = tune(problem)
    assert result.converged
    assert result.parameters[("g", 0, 1)] == pytest.approx(g_true, abs=1e-4)


def test_tune_single_state_balances_decays():
    # one state, free output decay: unity transmission requires Gamma = gamma
    net = build_parallel([0.0], [1.3], [0.4])
    problem = DesignProblem(net, (("Gamma", 0),), ((0.05, 10.0),), ("count", 1), seed=1)
    result = tune(problem)
    assert result.converged
    assert result.parameters[("Gamma", 0)] == pytest.approx(1.3, abs=1e-4)


def test_tune_three_state_chain_count_target():
    problem = _chain_problem(n=3, target=("count", 3))
    result = tune(problem)
    assert result.converged
    assert result.objective < 1e-8
    assert len(result.achieved_frequencies) >= 3
    assert np.all(result.achieved_values > 1.0 - 1e-6)


def test_tune_result_is_deterministic():
    problem = _chain_problem(n=3, target=("count", 3))
    a = tune(problem)
    b = tune(problem)
    assert a.parameters == b.parameters
    assert a.objective == b.objective


def _statistical_trial(trial):
    # a randomized detuned chain, free couplings plus the output decay; n-1
    # crossings: with random detunings a full-count target is not generally
    # feasible, one fewer always is
    r = np.random.default_rng(100 + trial)
    n = int(r.integers(2, 6))
    om = np.sort(r.uniform(-1.5, 1.5, n))
    net = build_series(om, 1.0, 2.0, np.full(n - 1, 0.7))
    free = tuple(("g", i, i + 1) for i in range(n - 1)) + (("Gamma", n - 1),)
    return DesignProblem(net, free, tuple((0.02, 20.0) for _ in free), ("count", n - 1), seed=trial)


@pytest.mark.slow
def test_tune_statistical_success_rate():
    wins = 0
    trials = 100
    for trial in range(trials):
        result = tune(_statistical_trial(trial))
        if result.objective < 1e-6:
            wins += 1
    assert wins >= 0.95 * trials


def test_tune_statistical_trial_is_pinned():
    # trial 77 of the statistical suite: the restart recorded before the
    # chain scan was resolved once per problem, the objective verified at
    # the dressed-mode frequencies, and the parameters where the eigenvalue
    # polish of the first start lands
    result = tune(_statistical_trial(77))
    assert result.restart_objectives == (0.0064758426761089005,)
    assert result.restart_evaluations == (974,)
    assert result.objective == 0.0
    assert list(result.parameters.values()) == [
        1.4870486786234636, 0.6425342832700206, 0.740677512773546, 0.45087796671276703,
    ]


def test_tune_statistical_trial_39_converges():
    # its best scan candidate polishes to a solution only on a later subset
    # of tracked eigenvalues, not on the two of smallest |Re mu|
    result = tune(_statistical_trial(39))
    assert result.converged
    assert result.objective < 1e-12


# ---------------------------------------------------------------------------
# the numpy optimizers against the scipy routines they replace


def _cli_problem(path):
    doc, net = _load(path)
    d = doc["design"]
    return DesignProblem(
        net,
        tuple(tuple(item) for item in d["free"]),
        tuple(tuple(b) for b in d["bounds"]),
        tuple(d["target"]),
    )


def _design_chain_four():
    # the detuned 4-state chain of the benchmark's design workload
    om = [0.005838254090777983, 0.10574431608495205, 0.8130677292075226, 1.4873313126556544]
    net = build_series(om, 1.0, 2.0, [0.7, 0.7, 0.7])
    free = (("g", 0, 1), ("g", 1, 2), ("g", 2, 3), ("Gamma", 3))
    return DesignProblem(net, free, tuple((0.02, 20.0) for _ in free), ("count", 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nelder_mead_matches_scipy_on_rosenbrock(n):
    # the rounded variant has plateaus, so ties between vertices and
    # trial points take the tie-breaking branches
    for func in (rosen, lambda x: np.round(rosen(x), 1)):
        for x0 in (np.full(n, -1.2), np.linspace(0.3, 2.0, n), np.zeros(n)):
            for opts in (
                {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600 * n},
                {"xatol": 1e-4, "fatol": 1e-4, "maxiter": 40},
            ):
                ref = minimize(func, x0, method="Nelder-Mead", options=opts)
                x, fun, nfev = design._nelder_mead(func, x0, **opts)
                assert np.array_equal(x, ref.x)
                assert fun == ref.fun
                assert nfev == ref.nfev


def test_nelder_mead_matches_scipy_on_tuner_objective():
    problem = _design_chain_four()
    lo = np.log([b[0] for b in problem.bounds])
    hi = np.log([b[1] for b in problem.bounds])

    def objective(x):
        vals = np.exp(design._fold(x, lo, hi))
        return design._score(apply_parameters(problem.base, problem.free, vals), problem.target)[0]

    # the tuner's first start: couplings sqrt(gamma Gamma)/2, Gamma = gamma
    x0 = np.log([np.sqrt(2.0) / 2.0] * 3 + [1.0])
    opts = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600 * 4}
    ref = minimize(objective, x0, method="Nelder-Mead", options=opts)
    x, fun, nfev = design._nelder_mead(objective, x0, **opts)
    assert np.array_equal(x, ref.x)
    assert fun == ref.fun
    assert nfev == ref.nfev


def _scan_problems():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        om = np.sort(rng.uniform(-1.5, 1.5, n))
        if n == 1:
            net, free = build_parallel(om, [1.0], [rng.uniform(0.3, 2.0)]), (("Gamma", 0),)
        else:
            chain = rng.uniform(0.1, 1.5, n - 1)
            net = build_series(om, rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), chain)
            free = tuple(("g", i, i + 1) for i in range(n - 1)) + (("gamma", 0), ("Gamma", n - 1))
            # a slot named twice, the second time transposed: the last entry wins
            free += (("g", 1, 0),)
        for target in (("count", int(rng.integers(1, n + 1))), ("freq", float(rng.uniform(-1, 1)))):
            yield DesignProblem(net, free, tuple((0.02, 20.0) for _ in free), target)


@pytest.mark.parametrize("points", [1201, 4805])
@pytest.mark.parametrize("problem", list(_scan_problems()), ids=lambda p: f"{p.base.size}-{p.target[0]}")
def test_scan_score_is_score_bit_for_bit(problem, points):
    lo = np.log([b[0] for b in problem.bounds])
    hi = np.log([b[1] for b in problem.bounds])
    chain = design._chain_params(apply_parameters(problem.base, problem.free, np.exp(hi))) is not None
    assert chain == (problem.base.size > 1)
    score = design._scan_score(problem, points, chain)
    rng = np.random.default_rng(points)
    # about a third of the points lie outside the box, where the tuner folds them in
    for x in rng.uniform(lo - 2.0, hi + 2.0, (40, len(lo))):
        vals = np.exp(design._fold(x, lo, hi))
        ref = design._score(apply_parameters(problem.base, problem.free, vals), problem.target, points)[0]
        assert score(vals) == ref


@pytest.mark.parametrize(
    "problem,objectives,evaluations",
    [
        (lambda: _cli_problem(DEMOS / "design_chain_three.json"), (0.0,), (303,)),
        (_design_chain_four, (1.3021067098662809,), (1772,)),
    ],
    ids=["design_chain_three", "design_chain_four"],
)
def test_tune_restart_trace_is_pinned(problem, objectives, evaluations):
    # values from the scipy-based tuner: any change to the objective's
    # arithmetic or to the Nelder-Mead steps shows up here
    result = tune(problem())
    assert result.restart_objectives == objectives
    assert result.restart_evaluations == evaluations
    assert result.converged


@pytest.mark.parametrize(
    "omegas,freq,seed,objectives,evaluations,converged",
    [
        ([-0.4, 0.3, 1.1], 0.35, 0, (0.0,), (830,), True),
        # out of reach: all 32 starts end on the same shortfall
        (
            [-1.441, 0.083], -1.474, 23, (0.001983212389384148,) * 32,
            (452, 424, 449, 416, 434, 432, 432, 396, 424, 436, 435, 421, 395, 430, 454, 446,
             439, 413, 420, 410, 458, 416, 436, 485, 425, 427, 422, 427, 423, 449, 419, 443),
            False,
        ),
    ],
    ids=["three-state", "unreachable-pair"],
)
def test_tune_freq_restart_trace_is_pinned(omegas, freq, seed, objectives, evaluations, converged):
    # values from the tuner before the chain scan was resolved once per problem
    n = len(omegas)
    net = build_series(omegas, 1.0, 2.0, np.full(n - 1, 0.7))
    free = tuple(("g", i, i + 1) for i in range(n - 1)) + (("Gamma", n - 1),)
    problem = DesignProblem(net, free, tuple((0.02, 20.0) for _ in free), ("freq", freq), seed=seed)
    result = tune(problem)
    assert result.restart_objectives == objectives
    assert result.restart_evaluations == evaluations
    assert result.converged is converged


def ref_peak_shortfalls(net, m, points):
    """The tuner's scan with one scalar quadratic fit per bracket."""
    lo, hi = design._scan_window(net)
    w = np.linspace(lo, hi, points)
    t2 = design._transmission2(net, w)
    interior = np.flatnonzero((t2[1:-1] >= t2[:-2]) & (t2[1:-1] >= t2[2:])) + 1
    v = np.empty(len(interior))
    f = np.empty(len(interior))
    for k, i in enumerate(interior):
        y0, y1, y2 = t2[i - 1], t2[i], t2[i + 1]
        v[k], f[k] = y1, w[i]
        if y0 - 2 * y1 + y2 < 0:
            s = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
            v[k], f[k] = y1 - 0.25 * (y0 - y2) * s, w[i] + s * (w[i + 1] - w[i])
    order = np.argsort(f, kind="stable")
    v, f = v[order], f[order]
    sep = (hi - lo) / (points - 1)
    if len(f):
        start = np.flatnonzero(np.concatenate(([True], ~(np.diff(f) < sep))))
        v = np.maximum.reduceat(v, start)
        f = f[np.append(start[1:], len(f)) - 1]
    v = np.minimum(v, 1.0)
    best = np.lexsort((f, v))[::-1][:m]
    return float(np.sum(1.0 - v[best]) + max(m - len(best), 0)), f[best], v[best]


def _polish_networks():
    for path in sorted(DEMOS.glob("*.json")):
        if not path.stem.startswith("comb"):
            spec = parse_network_file(path)
            yield lower_hybrid(spec) if isinstance(spec, HybridSpec) else spec
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        yield build_series(
            np.sort(rng.uniform(-1.5, 1.5, n)),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.1, 1.5, n - 1),
        )


def test_quadratic_peak_fit_matches_scalar_loop():
    # the tuner's in-loop peak fit, bracket by bracket in scalar arithmetic
    for net in _polish_networks():
        for m in (1, net.size):
            got = design._score(net, ("count", m), 1201)
            ref = ref_peak_shortfalls(net, m, 1201)
            assert got[0] == ref[0]
            assert np.array_equal(got[1], ref[1])
            assert np.array_equal(got[2], ref[2])


@pytest.mark.parametrize(
    "problem",
    [lambda: _cli_problem(DEMOS / "design_chain_three.json"), _design_chain_four,
     lambda: _statistical_trial(77)],
    ids=["design_chain_three", "design_chain_four", "trial-77"],
)
def test_tune_reports_the_unity_peaks(problem):
    # the verifier reads |T|^2 at the dressed-mode frequencies, so a
    # converged design reports exactly the unity peaks of its network, with
    # the dense solve's |T|^2 there
    result = tune(problem())
    assert result.converged
    net = result.network
    freqs = result.achieved_frequencies
    resp = sweep(net, SweepGrid.linspace(freqs.min() - 1.0, freqs.max() + 1.0, 201))
    assert np.array_equal(np.sort(freqs), find_unity_peaks(resp))
    dense = np.abs(_dense_smatrices(net, freqs)[:, 1, 0]) ** 2
    np.testing.assert_allclose(result.achieved_values, dense, rtol=0, atol=1e-12)


def test_verify_counts_coalescing_candidates_once():
    # two resonances 1e-6 apart, closer than a step of the 2403-point scan
    # of the window: their candidates count as one peak, at the larger
    # |T|^2, and a count target of two misses the other
    net = build_parallel([0.0, 1e-6], [1.0, 1.0], [1.0, 0.5])
    f, t2 = _unity_candidates(net)
    obj, freqs, vals = design._verify(net, ("count", 2), 2403)
    assert len(f) == 2 and t2[0] != t2[1]
    assert freqs.tolist() == [f[np.argmax(t2)]]
    assert vals.tolist() == [min(t2.max(), 1.0)]
    assert obj == 2.0 - vals[0]


# ---------------------------------------------------------------------------
# the eigenvalue polish


def _parallel_problem(trial):
    # N states in parallel with free output decays: Gamma_i = gamma_i puts
    # every eigenvalue of M_R on the imaginary axis
    rng = np.random.default_rng(900 + trial)
    n = int(rng.integers(2, 5))
    om, gam = rng.uniform(-2.0, 2.0, n), rng.uniform(0.3, 1.5, n)
    free = tuple(("Gamma", i) for i in range(n))
    net = build_parallel(om, gam, np.ones(n))
    return DesignProblem(net, free, tuple((0.02, 20.0) for _ in free), ("count", n)), gam


@pytest.mark.parametrize("trial", range(20))
def test_polish_balances_parallel_decays(trial):
    problem, gam = _parallel_problem(trial)
    vals = design._polish(problem, np.ones(len(gam)))
    assert vals is not None
    np.testing.assert_allclose(vals, gam, rtol=0, atol=1e-10)
    net = apply_parameters(problem.base, problem.free, vals)
    assert design._verify(net, problem.target, 2403)[0] < 1e-8


def test_tune_balances_parallel_decays():
    # problem 9 of the family: two states, every output decay free
    problem, gam = _parallel_problem(9)
    assert problem.base.size == 2
    result = tune(problem)
    assert result.converged
    got = [result.parameters[("Gamma", i)] for i in range(len(gam))]
    np.testing.assert_allclose(got, gam, rtol=0, atol=1e-12)


def test_eigen_derivatives_match_central_differences():
    rng = np.random.default_rng(3)
    n = 4
    g = rng.uniform(0.1, 1.0, (n, n))
    net = NetworkSpec(
        resonances=rng.uniform(-1.0, 1.0, n), coupling=np.triu(g, 1) + np.triu(g, 1).T,
        input_decays=rng.uniform(0.2, 1.5, n), output_decays=rng.uniform(0.2, 1.5, n),
    )
    free = (("g", 0, 1), ("g", 2, 1), ("g", 0, 3), ("gamma", 0), ("gamma", 2), ("Gamma", 1),
            ("Gamma", 3))
    problem = DesignProblem(net, free, tuple((0.01, 10.0) for _ in free), ("count", 2))
    x = np.log(rng.uniform(0.2, 1.5, len(free)))
    mu, dmu = design._eigen_derivatives(problem, x)
    h = 1e-6
    for p in range(len(free)):
        step = h * np.eye(len(free))[p]
        up, down = (design._eigen_derivatives(problem, x + s)[0] for s in (step, -step))
        # the same eigenvalue on both sides: the nearest match to mu
        fd = (up[np.abs(up[:, None] - mu).argmin(axis=0)]
              - down[np.abs(down[:, None] - mu).argmin(axis=0)]) / (2 * h)
        np.testing.assert_allclose(dmu[:, p], fd, rtol=0, atol=1e-8)
