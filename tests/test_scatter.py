import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnet import (
    NetworkSpec,
    SingularSystem,
    SweepGrid,
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
from qnet.scatter import _dense_smatrices, _smatrices

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"


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


def test_sweep_deterministic_across_threads(monkeypatch):
    rng = np.random.default_rng(5)
    net = random_network(rng, 4, loops=True)
    grid = SweepGrid.linspace(-4, 4, 3001)
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


def test_long_chain_tails_keep_relative_accuracy():
    # |T| falls below 1e-20 in the tails, far under the pole sum's
    # absolute error; the guard must hand those frequencies to the dense solve
    net = parse_network_file(DEMOS / "chain_detuned_twenty.json")
    freqs = SweepGrid.for_network(net).frequencies
    ref = _dense_smatrices(net, freqs)
    assert np.min(np.abs(ref[:, 1, 0])) < 1e-20
    np.testing.assert_allclose(_smatrices(net, freqs), ref, rtol=1e-8, atol=0)
