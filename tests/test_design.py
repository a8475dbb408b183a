import pathlib

import numpy as np
import pytest

import qnet.design as design
from qnet import (
    BalancedDecaysUnsupported,
    DegenerateResonanceWarning,
    DesignProblem,
    HybridSpec,
    NegativeRadicand,
    NetworkSpec,
    SingularSystem,
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


def test_tune_statistical_success_rate():
    wins = 0
    trials = 100
    for trial in range(trials):
        result = tune(_statistical_trial(trial))
        if result.objective < 1e-6:
            wins += 1
    assert wins >= 0.95 * trials


def test_tune_statistical_trial_is_pinned():
    # trial 77 of the statistical suite: per start, the verified objective
    # of its polished point and the polish's residual evaluations.  The
    # polishes of the first two starts end on a shared frequency; the
    # second returns the better point of its earlier run instead.  The
    # third start verifies and ends the search
    result = tune(_statistical_trial(77))
    assert result.restart_objectives == (0.9805191980776128, 0.008991968650741367, 2.220446049250313e-16)
    assert result.restart_evaluations == (96, 288, 1004)
    assert result.objective == 2.220446049250313e-16
    assert list(result.parameters.values()) == [
        2.0753873159306657, 1.7237147163258044, 2.6982919035262025, 1.5338564106308163,
    ]


def test_tune_statistical_trial_39_converges():
    # with eigenvalue residuals, a candidate of trial 39 solved R = 0 only
    # on a later subset of tracked eigenvalues, not on the two of smallest
    # |Re mu|
    result = tune(_statistical_trial(39))
    assert result.converged
    assert result.objective < 1e-12


# ---------------------------------------------------------------------------
# pinned restart traces: per start, the verified objective and the
# polish's residual evaluations


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


@pytest.mark.parametrize(
    "problem,objectives,evaluations",
    [
        (lambda: _cli_problem(DEMOS / "design_chain_three.json"), (0.0,), (1,)),
        (_design_chain_four, (0.0,), (68,)),
    ],
    ids=["design_chain_three", "design_chain_four"],
)
def test_tune_restart_trace_is_pinned(problem, objectives, evaluations):
    # design_chain_three's first start, the critical guess, is already
    # exact; any change to the residuals or to the polish's steps shows up
    result = tune(problem())
    assert result.restart_objectives == objectives
    assert result.restart_evaluations == evaluations
    assert result.converged


def _freq_problem(omegas, freq, seed):
    n = len(omegas)
    net = build_series(omegas, 1.0, 2.0, np.full(n - 1, 0.7))
    free = tuple(("g", i, i + 1) for i in range(n - 1)) + (("Gamma", n - 1),)
    return DesignProblem(net, free, tuple((0.02, 20.0) for _ in free), ("freq", freq), seed=seed)


@pytest.mark.parametrize(
    "omegas,freq,seed,objectives,evaluations,converged",
    [
        ([-0.4, 0.3, 1.1], 0.35, 0, (2.220446049250313e-16,), (29,), True),
        # out of reach: all 32 starts end on the same shortfall, up to rounding
        (
            [-1.441, 0.083], -1.474, 23,
            (0.001983212389384592, 0.001983212389383926, 0.001983212389383926,
             0.001983212389384148, 0.001983212389384814, 0.001983212389383038,
             0.0019832123893854803, 0.001983212389384814, 0.001983212389383926,
             0.001983212389384148, 0.001983212389383482, 0.001983212389384148,
             0.001983212389384148, 0.001983212389383482, 0.001983212389383704,
             0.001983212389384592, 0.00198321238938326, 0.001983212389384148,
             0.001983212389383926, 0.001983212389383704, 0.001983212389383926,
             0.00198321238938437, 0.001983212389384814, 0.0019832123893823717,
             0.001983212389383038, 0.001983212389383704, 0.001983212389384592,
             0.00198321238938437, 0.00198321238938326, 0.00198321238938437,
             0.001983212389383704, 0.0019832123893852582),
            (100, 82, 76, 82, 58, 64, 70, 70, 76, 88, 94, 82, 64, 94, 70, 70,
             88, 94, 76, 64, 64, 82, 82, 88, 76, 76, 88, 76, 64, 52, 82, 52),
            False,
        ),
    ],
    ids=["three-state", "unreachable-pair"],
)
def test_tune_freq_restart_trace_is_pinned(omegas, freq, seed, objectives, evaluations, converged):
    result = tune(_freq_problem(omegas, freq, seed))
    assert result.restart_objectives == objectives
    assert result.restart_evaluations == evaluations
    assert result.converged is converged


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
# the S-residual polish


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
    # from Gamma = 1 the polish alone finds Gamma_i = gamma_i; on problems 3
    # and 4 its first run ends where two tracked eigenvalues share a
    # frequency, and the deflated second run finds the balanced root
    problem, gam = _parallel_problem(trial)
    vals, evaluations = design._polish(problem, np.ones(len(gam)))
    assert evaluations > 0
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


# ---------------------------------------------------------------------------
# problem families the residuals of the polish cover


# per seed, the shortfall the tuner reached before this polish became its
# only stage; none of these problems can reach unity
SIDE_CHANNEL_BEFORE = [0.09805317870479113, 0.11553237540855921, 0.05487996359152025,
                       0.20943700896290662, 0.10361922026456594, 0.4873211873067683]


def _side_channel_problem(trial):
    # N states in parallel, one of them leaking into a side channel, every
    # output decay free: the leak keeps |T| below 1, R = 0 does not reach it
    rng = np.random.default_rng(700 + trial)
    n = int(rng.integers(2, 4))
    om, gam = rng.uniform(-2.0, 2.0, n), rng.uniform(0.3, 1.5, n)
    mu = np.zeros(n)
    mu[int(rng.integers(n))] = rng.uniform(0.05, 0.5)
    net = build_parallel(om, gam, np.ones(n), side_decays=(mu,))
    free = tuple(("Gamma", i) for i in range(n))
    return DesignProblem(net, free, tuple((0.02, 20.0) for _ in free), ("count", n), seed=trial)


@pytest.mark.parametrize("trial", range(6))
def test_tune_side_channel_shortfall_is_pinned(trial):
    result = tune(_side_channel_problem(trial))
    assert not result.converged
    assert result.objective <= SIDE_CHANNEL_BEFORE[trial]


def test_tune_unreachable_pair_ends_on_the_bound():
    # the freq target out of reach of test_tune_freq_restart_trace_is_pinned:
    # the best shortfall needs Gamma_1 at its upper bound, returned exactly
    result = tune(_freq_problem([-1.441, 0.083], -1.474, 23))
    assert result.objective <= 0.0019832123893821496 * (1 + 1e-8)
    assert result.parameters[("Gamma", 1)] == 20.0


def _dark_pair(target):
    # states 1 and 2 form a degenerate pair whose difference no port reaches
    with pytest.warns(DegenerateResonanceWarning):
        net = build_parallel([0.0, 0.5, 0.5], [1.0, 0.5, 0.5], [1.0, 0.5, 0.5])
        return DesignProblem(net, (("Gamma", 0),), ((0.05, 10.0),), target)


def test_tune_converges_beside_a_dark_pair():
    # a start whose candidates include the dark resonance, where the engine
    # raises SingularSystem, counts as unverified and the search goes on
    result = tune(_dark_pair(("count", 1)))
    assert result.converged
    assert np.inf in result.restart_objectives


def test_tune_reports_an_unreachable_count_beside_a_dark_pair():
    # three peaks cannot all reach unity beside the dark pair: the starts
    # that verify give the best attempt, those that meet the dark
    # resonance do not turn it into an error
    result = tune(_dark_pair(("count", 3)))
    assert not result.converged
    assert np.inf in result.restart_objectives
    assert result.objective == min(result.restart_objectives)


def test_tune_freq_target_on_a_dark_resonance_raises():
    with pytest.raises(SingularSystem):
        tune(_dark_pair(("freq", 0.5)))


@pytest.mark.parametrize(
    "problem",
    [lambda: _statistical_trial(0), lambda: _freq_problem([-1.441, 0.083], -1.474, 23),
     lambda: _dark_pair(("count", 1))],
    ids=["trial-0", "unreachable-pair", "dark-pair"],
)
def test_tune_reports_one_restart_per_start(problem, monkeypatch):
    # one entry per start that ran, whether or not it verified
    calls = []
    polish = design._polish
    monkeypatch.setattr(design, "_polish", lambda *args: calls.append(1) or polish(*args))
    result = tune(problem())
    assert len(result.restart_objectives) == len(result.restart_evaluations) == len(calls)
