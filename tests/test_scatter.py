import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnet import (
    NetworkSpec,
    SingularSystem,
    SweepGrid,
    ValidationError,
    bandwidth_grid,
    build_parallel,
    build_series,
    flux_check,
    parse_network_file,
    port_coupling_matrix,
    smatrix,
    sweep,
    system_matrix,
    unitarity_defect,
    validate,
)
import qnet.scatter as scatter
from qnet.scatter import _dense_smatrices, _pole_smatrices, _smatrices, _tridiagonal_solve

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"
TINY = np.finfo(float).tiny
GRIDS = {"for_network": SweepGrid.for_network, "bandwidth": bandwidth_grid}


def random_network(rng, n, sides=0, loops=False):
    g = np.zeros((n, n))
    if n > 1:
        if loops:
            g = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        else:
            g = np.diag(rng.uniform(-1.0, 1.0, n - 1), 1)
        g = g + g.T
    mus = tuple(rng.uniform(0.0, 0.5, n) for _ in range(sides))
    return validate(
        NetworkSpec(
            resonances=rng.uniform(-2.0, 2.0, n),
            coupling=g,
            input_decays=rng.uniform(0.1, 2.0, n),
            output_decays=rng.uniform(0.1, 2.0, n),
            side_decays=mus,
        )
    )


def test_port_matrix_shape():
    net = build_parallel([0.0, 1.0], [1.0, 4.0], [9.0, 16.0], side_decays=[[0.25, 0.25]])
    K = port_coupling_matrix(net)
    assert K.shape == (3, 2)
    np.testing.assert_allclose(K[0], [1.0, 2.0])
    np.testing.assert_allclose(K[1], [3.0, 4.0])
    np.testing.assert_allclose(K[2], [0.5, 0.5])


def test_system_matrix_antihermitian_part():
    # A + A^dagger must equal K^T K for any frequency
    rng = np.random.default_rng(0)
    net = random_network(rng, 4, sides=1, loops=True)
    K = port_coupling_matrix(net)
    A = system_matrix(net, 0.37)
    np.testing.assert_allclose(A + A.conj().T, K.T @ K, atol=1e-12)


def test_single_state_transmission_peak():
    net = build_parallel([0.0], [1.0], [1.0])
    S = smatrix(net, 0.0)
    assert S[1, 0] == pytest.approx(1.0)
    assert abs(S[0, 0]) == pytest.approx(0.0, abs=1e-15)


def test_single_state_lorentzian():
    gamma, Gamma = 0.8, 1.7
    net = build_parallel([0.3], [gamma], [Gamma])
    for w in (-1.0, 0.3, 2.2):
        expected = np.sqrt(gamma * Gamma) / (0.5 * (gamma + Gamma) - 1j * (w - 0.3))
        assert smatrix(net, w)[1, 0] == pytest.approx(expected)


def test_transmission_positive_on_resonance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g, G = rng.uniform(0.2, 3.0, 2)
        net = build_parallel([0.0], [g], [G])
        T = smatrix(net, 0.0)[1, 0]
        assert T.real > 0 and T.imag == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    sides=st.integers(0, 2),
    loops=st.booleans(),
)
def test_unitarity_property(seed, n, sides, loops):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, sides=sides, loops=loops)
    grid = SweepGrid.linspace(-5.0, 5.0, 31)
    resp = sweep(net, grid)
    assert unitarity_defect(resp) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 5))
def test_reciprocity_property(seed, n):
    # symmetric couplings and real K make S symmetric
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, sides=1, loops=True)
    S = smatrix(net, float(rng.uniform(-3, 3)))
    np.testing.assert_allclose(S, S.T, atol=1e-12)


def test_flux_check_lossless():
    net = build_series([0.0, 0.4], 1.0, 2.0, [0.6])
    assert flux_check(net, 0.123) < 1e-12


def test_sweep_matches_pointwise():
    rng = np.random.default_rng(3)
    net = random_network(rng, 3, sides=1, loops=True)
    grid = SweepGrid.linspace(-2, 2, 17)
    resp = sweep(net, grid)
    for k in (0, 8, 16):
        np.testing.assert_array_equal(resp.smatrices[k], smatrix(net, grid.frequencies[k]))
    # every flagged frequency of a chain and a comb, the pivoted ones
    # included: the batched peak polish and phase bisection rely on this
    for name in ("chain_detuned_twenty", "comb_seventy_critical"):
        net = parse_network_file(DEMOS / f"{name}.json")
        grid = SweepGrid.for_network(net)
        flagged = np.flatnonzero(~_pole_smatrices(net._poles, grid.frequencies)[1])
        assert flagged.size > 1000
        S = sweep(net, grid).smatrices
        for k in flagged:
            np.testing.assert_array_equal(smatrix(net, grid.frequencies[k]), S[k])


def test_sweep_deterministic_across_threads(monkeypatch):
    rng = np.random.default_rng(5)
    dense = random_network(rng, 4, loops=True)
    # the comb's bandwidth grid spans many chunks, most of them flagged
    # frequencies served by the tridiagonal solve
    comb = parse_network_file(DEMOS / "comb_seventy_strong.json")
    for net, grid in ((dense, SweepGrid.linspace(-4, 4, 3001)), (comb, bandwidth_grid(comb))):
        a = sweep(net, grid, threads=1)
        b = sweep(net, grid, threads=4)
        np.testing.assert_array_equal(a.smatrices, b.smatrices)
        monkeypatch.setenv("QNET_THREADS", "3")
        c = sweep(net, grid)
        np.testing.assert_array_equal(a.smatrices, c.smatrices)


def test_response_accessors():
    net = build_parallel([0.0], [1.0], [2.0], side_decays=[[0.1]])
    grid = SweepGrid.linspace(-1, 1, 3)
    resp = sweep(net, grid)
    np.testing.assert_array_equal(resp.transmission(), resp.smatrices[:, 1, 0])
    np.testing.assert_array_equal(resp.reflection(), resp.smatrices[:, 0, 0])
    np.testing.assert_array_equal(resp.dark(0), resp.smatrices[:, 1, 2])
    np.testing.assert_array_equal(resp.side_leakage(0), resp.smatrices[:, 2, 0])


def test_singular_system_reports_frequency():
    # a state with no decay anywhere sitting exactly at the probe frequency
    g = np.zeros((2, 2))
    net = validate(
        NetworkSpec(
            resonances=[0.0, 1.0],
            coupling=g,
            input_decays=[1.0, 0.0],
            output_decays=[1.0, 0.0],
        )
    )
    with pytest.raises(SingularSystem) as err:
        smatrix(net, 1.0)
    assert err.value.omega == pytest.approx(1.0)
    # M is diagonal, so the tridiagonal solve takes it too
    M = scatter.state_matrix(net)
    bands = (np.diag(M, -1), np.diag(M), np.diag(M, 1))
    with pytest.raises(SingularSystem) as err:
        _tridiagonal_solve(bands, scatter._signed_ports(net), np.array([0.5, 1.0, 1.5]))
    assert err.value.omega == 1.0


def test_loop_topology_runs():
    # triangle: 1-2, 2-3, and the chord 1-3
    g = np.array([[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]])
    net = validate(
        NetworkSpec(
            resonances=[0.0, 0.2, -0.1],
            coupling=g,
            input_decays=[1.0, 0.0, 0.0],
            output_decays=[0.0, 0.0, 1.0],
        )
    )
    resp = sweep(net, SweepGrid.linspace(-3, 3, 101))
    assert unitarity_defect(resp) < 1e-10


# ---------------------------------------------------------------------------
# pole-residue engine against the dense solve


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 200),
    sides=st.integers(0, 2),
    loops=st.booleans(),
)
@example(seed=11, n=200, sides=2, loops=True)
@example(seed=12, n=200, sides=1, loops=False)
def test_pole_engine_matches_dense_property(seed, n, sides, loops):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n, sides=sides, loops=loops)
    reach = 4.0 + 2.0 * float(np.linalg.norm(net.coupling, 2))
    freqs = np.linspace(-reach, reach, 41)
    np.testing.assert_allclose(
        _smatrices(net, freqs), _dense_smatrices(net, freqs), rtol=0, atol=1e-10
    )


def test_pole_engine_serves_regular_networks():
    rng = np.random.default_rng(1)
    net = random_network(rng, 200, sides=1, loops=True)
    basis = net._poles
    assert basis is not None and basis.cond < 1e3
    assert net._poles is basis  # factorized once per spec


def test_exceptional_point_matches_dense():
    # two degenerate states at critical coupling: the eigenvectors of M
    # coalesce (cond(V) ~ 7e7), where an unguarded pole sum is off by 1.5e-8
    net = build_series([0.0, 0.0], 1.0, 3.0, [0.5])
    freqs = SweepGrid.for_network(net).frequencies
    np.testing.assert_allclose(
        _smatrices(net, freqs), _dense_smatrices(net, freqs), rtol=0, atol=1e-12
    )


def assert_matches_dense(S, ref):
    """rtol 1e-8 wherever the dense reference is a normal float, and the
    same exact zeros where it underflows."""
    normal = np.abs(ref) >= TINY
    np.testing.assert_allclose(S[normal], ref[normal], rtol=1e-8, atol=0)
    np.testing.assert_array_equal(S == 0, ref == 0)


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize(
    "name", ["chain_detuned_twenty", "comb_seventy_critical", "comb_seventy_strong"]
)
def test_long_chain_tails_keep_relative_accuracy(name, grid):
    # |T| falls below 1e-20 in the tails, far under the pole sum's
    # absolute error; the guard must hand those frequencies on
    net = parse_network_file(DEMOS / f"{name}.json")
    freqs = GRIDS[grid](net).frequencies
    ref = _dense_smatrices(net, freqs)
    assert np.min(np.abs(ref[:, 1, 0])) < 1e-20
    assert_matches_dense(_smatrices(net, freqs), ref)


def random_chain(rng, n, side):
    """Chain of ``n`` states with the input on the first and the output on
    the last state, and optionally a side channel on one state: M is
    tridiagonal."""
    g = np.diag(rng.uniform(0.2, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1), 1)
    gam, Gam = np.zeros(n), np.zeros(n)
    gam[0], Gam[-1] = rng.uniform(0.1, 2.0, 2)
    sides = ()
    if side:
        mu = np.zeros(n)
        mu[rng.integers(n)] = rng.uniform(0.05, 0.5)
        sides = (mu,)
    return validate(NetworkSpec(rng.uniform(-2.0, 2.0, n), g + g.T, gam, Gam, sides))


def assert_matches_dense_in_band(S, ref, net, freqs):
    """Inside the band both solves are only normwise accurate, and near the
    narrow modes of a disordered chain A(omega) is ill-conditioned: agree
    to within what the conditioning allows."""
    n = net.size
    A = scatter.state_matrix(net)[None] - 1j * freqs[:, None, None] * np.eye(n)
    tol = 1e-10 + 1e3 * np.finfo(float).eps * np.linalg.cond(A)
    assert np.all(np.max(np.abs(S - ref), axis=(1, 2)) <= tol)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 100), side=st.booleans())
@example(seed=3, n=100, side=True)
@example(seed=22, n=24, side=False)
def test_tridiagonal_engine_matches_dense_property(seed, n, side):
    # beyond 2 |M|, A(omega) is well conditioned and T falls as |omega|^-N,
    # through underflow at 1e3 |M|: there the relative rule holds
    rng = np.random.default_rng(seed)
    net = random_chain(rng, n, side)
    basis = net._poles
    assert basis is None or basis.bands is not None
    reach = float(np.linalg.norm(scatter.state_matrix(net), 2))
    tail = np.geomspace(2 * reach, 1e3 * reach, 30)
    band = np.linspace(-2 * reach, 2 * reach, 41)[1:-1]
    freqs = np.concatenate([-tail[::-1], band, tail])
    inside = np.abs(freqs) < 2 * reach
    ref = _dense_smatrices(net, freqs)
    results = [_smatrices(net, freqs)]
    if basis is not None:
        # every frequency, pivoted or not, through the tridiagonal solve alone
        results.append(_tridiagonal_solve(basis.bands, basis.ports, freqs))
    for S in results:
        assert_matches_dense(S[~inside], ref[~inside])
        assert_matches_dense_in_band(S[inside], ref[inside], net, freqs[inside])


def test_tridiagonal_solve_interchanges_rows_where_zgttrf_does(monkeypatch):
    # both eliminations are accurate on these chains, so only LAPACK's own
    # pivoting shows which frequencies need an interchange
    from scipy.linalg import lapack

    net = parse_network_file(DEMOS / "chain_detuned_twenty.json")
    lower, diag, upper = net._poles.bands
    freqs = SweepGrid.for_network(net).frequencies
    rows = np.arange(1, net.size + 1)
    pivoted = np.array(
        [np.any(lapack.zgttrf(lower, diag - 1j * w, upper)[4] != rows) for w in freqs]
    )
    assert 0 < np.count_nonzero(pivoted) < len(freqs)
    seen = []
    solve = scatter._pivoted_solve
    monkeypatch.setattr(
        scatter, "_pivoted_solve", lambda lo, d, up, R: seen.append(d) or solve(lo, d, up, R)
    )
    _tridiagonal_solve(net._poles.bands, net._poles.ports, freqs)
    (d,) = seen
    np.testing.assert_array_equal(d, diag[None, :] - 1j * freqs[pivoted, None])


def test_flagged_frequencies_route_by_bandwidth(monkeypatch):
    def no_dense(*args):
        raise AssertionError("dense solve called")

    monkeypatch.setattr(scatter, "_solve", no_dense)
    comb = parse_network_file(DEMOS / "comb_seventy_strong.json")
    grid = bandwidth_grid(comb)
    assert not np.all(_pole_smatrices(comb._poles, grid.frequencies)[1])
    sweep(comb, grid)
    # the same chain with one next-nearest coupling: M is no longer tridiagonal
    chain = parse_network_file(DEMOS / "chain_detuned_twenty.json")
    g = np.array(chain.coupling)
    g[0, 2] = g[2, 0] = 0.01
    dense = validate(
        NetworkSpec(chain.resonances, g, chain.input_decays, chain.output_decays)
    )
    assert dense._poles.bands is None
    with pytest.raises(AssertionError, match="dense solve called"):
        sweep(dense, SweepGrid.for_network(dense))


def test_validation_runs_once_per_spec(monkeypatch):
    net = build_series([0.0, 0.1], 1.0, 1.0, [0.5])
    calls = []
    monkeypatch.setattr("qnet.netcore.validate", lambda spec: calls.append(spec) or spec)
    smatrix(net, 0.0)
    flux_check(net, 0.1)
    sweep(net, SweepGrid.linspace(-1, 1, 5))
    assert len(calls) == 1 and calls[0] is net
    monkeypatch.undo()
    bad = NetworkSpec([0.0], [[0.0]], [1.0], [0.0])  # no output port
    for _ in range(2):
        with pytest.raises(ValidationError):
            smatrix(bad, 0.0)
