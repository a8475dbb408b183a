import pathlib

import numpy as np
import pytest

from qnet import (
    AsymmetricCoupling,
    DegenerateResonanceWarning,
    HybridSpec,
    LengthMismatch,
    NegativeRate,
    NetworkSpec,
    NonzeroSelfCoupling,
    NoPort,
    SweepGrid,
    ValidationError,
    build_parallel,
    build_series,
    hybrid_critical_unbalanced,
    hybrid_homogeneous,
    lower_hybrid,
    parse_network_file,
    validate,
)
from qnet.scatter import state_matrix

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"


def test_parallel_builder_basic():
    net = build_parallel([0.0, 1.0], [1.0, 2.0], [3.0, 4.0])
    assert net.size == 2
    assert net.n_ports == 2
    assert np.all(net.coupling == 0)
    np.testing.assert_allclose(net.total_rates(), [4.0, 6.0])


def test_series_builder_shape():
    net = build_series([0.0, 0.5, 1.0], 1.0, 2.0, [0.7, 0.9])
    assert net.coupling[0, 1] == 0.7
    assert net.coupling[1, 2] == 0.9
    assert net.coupling[0, 2] == 0.0
    assert net.input_decays[0] == 1.0 and net.input_decays[1] == 0.0
    assert net.output_decays[-1] == 2.0 and net.output_decays[0] == 0.0


def test_series_builder_coupling_count():
    with pytest.raises(LengthMismatch):
        build_series([0.0, 1.0], 1.0, 1.0, [0.5, 0.5])


def test_spec_arrays_frozen():
    net = build_parallel([0.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        net.resonances[0] = 5.0


def test_validate_rejects_asymmetric_coupling():
    g = np.array([[0.0, 1.0], [0.5, 0.0]])
    spec = NetworkSpec([0.0, 1.0], g, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(AsymmetricCoupling):
        validate(spec)


def test_validate_rejects_nonzero_diagonal():
    g = np.array([[0.5, 0.0], [0.0, 0.0]])
    spec = NetworkSpec([0.0, 1.0], g, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(NonzeroSelfCoupling):
        validate(spec)


def test_validate_rejects_negative_rates():
    with pytest.raises(NegativeRate):
        build_parallel([0.0], [-1.0], [1.0])


def test_validate_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        build_parallel([0.0, 1.0], [1.0], [1.0, 1.0])


def test_validate_requires_both_ports():
    with pytest.raises(NoPort):
        build_parallel([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(NoPort):
        build_parallel([0.0, 1.0], [1.0, 1.0], [0.0, 0.0])


def test_degenerate_decoupled_pair_warns():
    with pytest.warns(DegenerateResonanceWarning):
        build_parallel([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])


def test_degenerate_pairs_listed_in_loop_order():
    # reference: the pairwise loop the vectorized check replaced
    rng = np.random.default_rng(4)
    n = 9
    om = rng.choice([0.0, 0.5, 1.0], n)
    g = np.triu(rng.choice([0.0, 0.0, 0.3], (n, n)), 1)
    g = g + g.T
    gam = rng.choice([0.0, 1.0], n)
    Gam = rng.choice([0.0, 2.0], n)
    gam[0] = Gam[0] = 1.0
    expected = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if om[i] == om[j]
        and g[i, j] == 0
        and ((gam[i] > 0 and gam[j] > 0) or (Gam[i] > 0 and Gam[j] > 0))
    ]
    assert expected
    with pytest.warns(DegenerateResonanceWarning) as record:
        validate(NetworkSpec(om, g, gam, Gam))
    assert str(record[0].message) == f"degenerate decoupled state pairs: {expected}"


def test_degenerate_series_chain_does_not_warn():
    # identical resonances along a chain share no continuum port
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_series([0.0, 0.0, 0.0], 1.0, 1.0, [0.5, 0.5])


def test_grid_rejects_decreasing():
    with pytest.raises(ValidationError):
        SweepGrid([0.0, 1.0, 0.5])


def test_grid_rejects_nonfinite():
    with pytest.raises(ValidationError):
        SweepGrid([0.0, np.inf])


def test_grid_detunings_shape():
    grid = SweepGrid.linspace(-1, 1, 5)
    d = grid.detunings([0.0, 0.5])
    assert d.shape == (5, 2)
    np.testing.assert_allclose(d[:, 0], grid.frequencies)


def test_grid_for_network_covers_resonances():
    net = build_parallel([-2.0, 3.0], [1.0, 1.0], [1.0, 1.0])
    grid = SweepGrid.for_network(net)
    assert grid.frequencies[0] < -2.0
    assert grid.frequencies[-1] > 3.0
    # every pole lies within |g|_2 of the bare resonances, so the grid
    # holds each Im lambda_k at least 20 smallest linewidths inside
    for path in sorted(DEMOS.glob("*.json")):
        spec = parse_network_file(path)
        net = lower_hybrid(spec) if isinstance(spec, HybridSpec) else spec
        w = SweepGrid.for_network(net).frequencies
        pad = 20.0 * np.min(net.total_rates()[net.total_rates() > 0]) / 2.0
        im = np.linalg.eigvals(state_matrix(net)).imag
        assert np.min(im) - w[0] >= pad * (1 - 1e-12), path.stem
        assert w[-1] - np.max(im) >= pad * (1 - 1e-12), path.stem


def test_hybrid_requires_matching_couplings():
    with pytest.raises(LengthMismatch):
        HybridSpec(
            manifolds=(np.array([0.0]), np.array([1.0])),
            couplings=(),
            input_decays=1.0,
            output_decays=1.0,
        )


def test_hybrid_homogeneous_lowering():
    h = hybrid_homogeneous([[0.0, 1.0], [2.0]], 0.5, 1.5, [0.3])
    net = lower_hybrid(h)
    assert net.size == 3
    np.testing.assert_allclose(net.input_decays, [0.5, 0.5, 0.0])
    np.testing.assert_allclose(net.output_decays, [0.0, 0.0, 1.5])
    assert net.coupling[0, 2] == 0.3 and net.coupling[1, 2] == 0.3
    assert net.coupling[0, 1] == 0.0


def test_hybrid_critical_unbalanced_rates():
    h = hybrid_critical_unbalanced([[0.0], [1.0]], [[1.0], [4.0]], [2.0, 0.5])
    net = lower_hybrid(h)
    # inter-manifold coupling sqrt(r_1 * g1 * g2) / 2 = sqrt(2*1*4)/2
    np.testing.assert_allclose(net.coupling[0, 1], np.sqrt(8.0) / 2.0)
    # final manifold decays at r_M * gamma
    np.testing.assert_allclose(net.output_decays, [0.0, 2.0])
