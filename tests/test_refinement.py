"""Batched phase verification and peak polishing against the per-sample
algorithms they replace.

The references below are the recursive midpoint bisection and the
per-bracket peak loop (quadratic fit, or bounded `minimize_scalar` polish
calling `smatrix` once per sample).  Every demo network is checked on both default grids.
"""

import functools
import pathlib

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import qnet.metrics as metrics
from qnet import (
    HybridSpec,
    SweepGrid,
    UnresolvablePhaseJump,
    bandwidth_grid,
    find_unity_peaks,
    lower_hybrid,
    parse_network_file,
    smatrix,
    sweep,
    unwrap_phase,
)

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"
NAMES = sorted(p.stem for p in DEMOS.glob("*.json"))
GRIDS = {"for_network": SweepGrid.for_network, "bandwidth": bandwidth_grid}
# on these two the phase cannot be verified: the reference raises
COMB_JUMPS = [("comb_seventy_critical", "bandwidth"), ("comb_seventy_strong", "bandwidth")]
CASES = [(n, g) for n in NAMES for g in GRIDS if (n, g) not in COMB_JUMPS]


def load(name):
    spec = parse_network_file(DEMOS / f"{name}.json")
    return lower_hybrid(spec) if isinstance(spec, HybridSpec) else spec


@functools.cache
def case(name, grid):
    net = load(name)
    return net, sweep(net, GRIDS[grid](net))


# ---------------------------------------------------------------------------
# references: one smatrix call per sample


def ref_half_increment(t0, t1):
    return 0.5 * np.angle((t1 / t0) ** 2)


def ref_refined_increment(w0, w1, t0, t1, refine, depth):
    inc = ref_half_increment(t0, t1)
    if depth >= metrics._REFINE_LEVELS:
        if abs(inc) <= metrics._JUMP_THRESHOLD:
            return inc
        raise UnresolvablePhaseJump(float(w0), float(w1))
    wm = 0.5 * (w0 + w1)
    tm = complex(np.asarray(refine(wm)).reshape(()))
    if tm != 0.0 and t0 != 0.0 and t1 != 0.0:
        left = ref_half_increment(t0, tm)
        right = ref_half_increment(tm, t1)
        if (
            abs(inc) <= metrics._JUMP_THRESHOLD
            and abs(left) <= metrics._JUMP_THRESHOLD
            and abs(right) <= metrics._JUMP_THRESHOLD
            and abs(left + right - inc) < 0.5 * np.pi
        ):
            return left + right
    return ref_refined_increment(w0, wm, t0, tm, refine, depth + 1) + ref_refined_increment(
        wm, w1, tm, t1, refine, depth + 1
    )


def ref_unwrap_phase(resp, refine):
    T = resp.transmission()
    w = resp.grid.frequencies
    good = np.flatnonzero(np.abs(T) > 0)
    phi_good = [np.angle(T[good[0]])]
    for i, j in zip(good[:-1], good[1:]):
        phi_good.append(phi_good[-1] + ref_refined_increment(w[i], w[j], T[i], T[j], refine, 0))
    phi = np.empty_like(w)
    phi[good] = phi_good
    bad = np.setdiff1d(np.arange(len(w)), good)
    if bad.size:
        phi[bad] = np.interp(w[bad], w[good], phi_good)
    return phi


def ref_unity_peaks(resp, tol, refine=None):
    w = resp.grid.frequencies
    t2 = np.abs(resp.transmission()) ** 2
    interior = np.flatnonzero((t2[1:-1] >= t2[:-2]) & (t2[1:-1] >= t2[2:])) + 1
    peaks = []
    for i in interior:
        y0, y1, y2 = t2[i - 1], t2[i], t2[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom < 0:
            s = 0.5 * (y0 - y2) / denom
            wp = w[i] + s * (w[i + 1] - w[i])
            vp = y1 - 0.25 * (y0 - y2) * s
        else:
            wp, vp = w[i], y1
        if refine is not None:
            res = minimize_scalar(
                lambda x: -np.abs(np.asarray(refine(x)).reshape(())) ** 2,
                bounds=(w[i - 1], w[i + 1]),
                method="bounded",
                options={"xatol": 1e-12 * max(1.0, abs(w[i]))},
            )
            wp, vp = float(res.x), float(-res.fun)
        if vp >= 1.0 - tol:
            peaks.append(wp)
    peaks = np.sort(np.asarray(peaks))
    if peaks.size > 1:
        min_sep = 0.5 * float(np.min(np.diff(w)))
        peaks = peaks[np.concatenate([[True], np.diff(peaks) > min_sep])]
    return peaks


class Refiner:
    """omega -> T(omega) by `smatrix`, counting its calls."""

    def __init__(self, net):
        self.net, self.calls = net, 0

    def __call__(self, x):
        self.calls += 1
        return smatrix(self.net, x)[1, 0]


# ---------------------------------------------------------------------------
# phase


@pytest.mark.parametrize("name,grid", CASES)
def test_unwrap_matches_recursive_reference(name, grid):
    net, resp = case(name, grid)
    ref = ref_unwrap_phase(resp, Refiner(net))
    phase = unwrap_phase(resp, net=net)
    winding = lambda p: round((p[-1] - p[0]) / np.pi)
    assert winding(phase) == winding(ref)
    assert np.max(np.abs(phase - ref)) <= 1e-12


@pytest.mark.parametrize("name,grid", COMB_JUMPS)
def test_comb_jump_raised_on_the_reference_interval(name, grid):
    net, resp = case(name, grid)
    with pytest.raises(UnresolvablePhaseJump) as ref:
        ref_unwrap_phase(resp, Refiner(net))
    with pytest.raises(UnresolvablePhaseJump) as new:
        unwrap_phase(resp, net=net)
    assert str(new.value) == str(ref.value)


def test_unwrap_batches_engine_calls(monkeypatch):
    # the reference's samples, served by at most 20 engine calls
    engine = metrics._smatrices
    freqs = []

    def counting(net, f):
        freqs.append(len(f))
        return engine(net, f)

    monkeypatch.setattr(metrics, "_smatrices", counting)
    for grid in GRIDS:
        net, resp = case("chain_detuned_twenty", grid)
        refiner = Refiner(net)
        ref_unwrap_phase(resp, refiner)
        freqs.clear()
        unwrap_phase(resp, net=net)
        assert len(freqs) <= 20
        assert sum(freqs) == refiner.calls


def test_leftmost_failure_is_raised():
    # in the comb's far tail, where |T| nears underflow, the first six
    # intervals of this grid resolve and every later one fails, so the
    # batches that reach them hold several failures at once; the
    # recursion reports the leftmost failing sub-interval
    net = load("comb_seventy_strong")
    w = np.geomspace(5.5e5, 7e5, 17)
    with pytest.raises(UnresolvablePhaseJump):
        unwrap_phase(sweep(net, SweepGrid(w[-2:])), net=net)
    resp = sweep(net, SweepGrid(w))
    with pytest.raises(UnresolvablePhaseJump) as ref:
        ref_unwrap_phase(resp, Refiner(net))
    with pytest.raises(UnresolvablePhaseJump) as new:
        unwrap_phase(resp, net=net)
    assert str(new.value) == str(ref.value)
    assert w[6] <= new.value.omega_lo < w[7]


# ---------------------------------------------------------------------------
# peaks


@pytest.mark.parametrize("name,grid", [(n, g) for n in NAMES for g in GRIDS])
def test_peaks_match_scalar_polish(name, grid):
    net, resp = case(name, grid)
    ref = ref_unity_peaks(resp, 1e-6, Refiner(net))
    np.testing.assert_array_equal(find_unity_peaks(resp, tol=1e-6, net=net), ref)


def test_peaks_quadratic_fit_matches_scalar_loop():
    for name in NAMES:
        for grid in GRIDS:
            _, resp = case(name, grid)
            for tol in (1e-6, 1e-3):
                np.testing.assert_array_equal(find_unity_peaks(resp, tol=tol), ref_unity_peaks(resp, tol))
