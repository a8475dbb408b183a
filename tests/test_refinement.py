"""Phase and unity peaks from the poles, against independent references.

The phase must agree with angle(T) of the swept response at every sample,
wind N pi over N resonances, and match the recursive midpoint bisection
(one `smatrix` call per sample) that verified the phase before the pole
formula replaced it.  Unity peaks must reach 1 - tol and cover every
per-mode transmission maximum found by criterion 6's bracketed polish.
Every demo network is checked on both default grids.
"""

import functools
import pathlib

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import qnet.metrics as metrics
import qnet.scatter as scatter
from qnet import (
    HybridSpec,
    SweepGrid,
    UnresolvablePhaseJump,
    bandwidth_grid,
    find_unity_peaks,
    lower_hybrid,
    parse_network_file,
    port_coupling_matrix,
    smatrix,
    sweep,
    unwrap_phase,
)
from qnet.scatter import _dense_smatrices

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"
NAMES = sorted(p.stem for p in DEMOS.glob("*.json"))
GRIDS = {"for_network": SweepGrid.for_network, "bandwidth": bandwidth_grid}
# the bisection cannot verify these two: it raises
COMB_JUMPS = [("comb_seventy_critical", "bandwidth"), ("comb_seventy_strong", "bandwidth")]
CASES = [(n, g) for n in NAMES for g in GRIDS if (n, g) not in COMB_JUMPS]
# modes narrower than the grid step: the bisection aliases whole turns away
ALIASED = {("chain_detuned_twenty", "for_network"), ("chain_detuned_twenty", "bandwidth"),
           ("comb_seventy_critical", "for_network"), ("comb_seventy_strong", "for_network")}
WINDINGS = {"chain_detuned_twenty": 20, "comb_seventy_critical": 70, "comb_seventy_strong": 70}
REFINE_LEVELS = 10
JUMP = 0.45 * np.pi


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
    if depth >= REFINE_LEVELS:
        if abs(inc) <= JUMP:
            return inc
        raise UnresolvablePhaseJump(float(w0), float(w1))
    wm = 0.5 * (w0 + w1)
    tm = complex(np.asarray(refine(wm)).reshape(()))
    if tm != 0.0 and t0 != 0.0 and t1 != 0.0:
        left = ref_half_increment(t0, tm)
        right = ref_half_increment(tm, t1)
        if abs(inc) <= JUMP and abs(left) <= JUMP and abs(right) <= JUMP and abs(left + right - inc) < 0.5 * np.pi:
            return left + right
    return ref_refined_increment(w0, wm, t0, tm, refine, depth + 1) + ref_refined_increment(
        wm, w1, tm, t1, refine, depth + 1
    )


def ref_unwrap_phase(resp, refine):
    """The midpoint bisection, anchored at the first nonzero sample."""
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


def refined_max_t2(net, lo, hi, presample=256):
    """Peak of |T|^2 inside [lo, hi]: three staged scans, then a bounded
    scalar polish on the bracketing pair of scan samples (criterion 6)."""
    for _ in range(3):
        ws = np.linspace(lo, hi, presample)
        i = int(np.argmax(np.abs(sweep(net, SweepGrid(ws)).transmission()) ** 2))
        lo, hi = ws[max(i - 1, 0)], ws[min(i + 1, presample - 1)]
    res = minimize_scalar(lambda x: -abs(smatrix(net, x)[1, 0]) ** 2, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14, "maxiter": 1000})
    return float(res.x), float(-res.fun)


@functools.cache
def mode_maxima(name):
    """(omega, |T|^2) of the transmission maximum near each mode of the
    closed network, bracketed as criterion 6 brackets the comb's: half
    width min(50 linewidths, half the gap to the nearest mode), with the
    linewidth from the eigenvector's weight on the ports."""
    net = load(name)
    eig, vec = np.linalg.eigh(np.diag(net.resonances) + net.coupling)
    widths = 0.5 * np.sum((port_coupling_matrix(net) @ vec) ** 2, axis=0)
    halfgap = np.full(net.size, np.inf)
    halfgap[:-1] = np.minimum(halfgap[:-1], np.diff(eig) / 2)
    halfgap[1:] = np.minimum(halfgap[1:], np.diff(eig) / 2)
    half = np.minimum(50 * widths, halfgap)
    return [refined_max_t2(net, w0 - h, w0 + h) for w0, h in zip(eig, half) if h > 0]


# ---------------------------------------------------------------------------
# phase


@pytest.mark.parametrize("name,grid", [(n, g) for n in NAMES for g in GRIDS])
def test_phase_is_the_angle_of_the_response(name, grid):
    net, resp = case(name, grid)
    T = resp.transmission()
    phase = unwrap_phase(resp)
    normal = np.abs(T) >= np.finfo(float).tiny
    assert np.max(np.abs(np.sin(phase - np.angle(T)))[normal]) <= 1e-9
    winding = (phase[-1] - phase[0]) / np.pi
    if name in WINDINGS:
        # the window cuts off less than a tenth of a turn of the tails
        assert abs(winding - WINDINGS[name]) < 0.1


@pytest.mark.parametrize("name,grid", CASES)
def test_unwrap_matches_recursive_reference(name, grid):
    # where the bisection resolves every mode the two agree to 2e-11; where
    # modes are narrower than the grid step it drops whole multiples of pi,
    # which the pole phase keeps
    net, resp = case(name, grid)
    ref = ref_unwrap_phase(resp, lambda x: smatrix(net, x)[1, 0])
    phase = unwrap_phase(resp)
    if (name, grid) in ALIASED:
        assert np.max(np.abs(np.sin(phase - ref))) <= 1e-9
        assert (phase[-1] - phase[0]) - (ref[-1] - ref[0]) > 5.5 * np.pi
    else:
        assert np.max(np.abs(phase - ref)) <= 2e-11


def test_unwrap_batches_engine_calls(monkeypatch):
    # without side channels the phase needs no engine call at all
    engine = scatter._smatrices
    calls = []

    def counting(net, f):
        calls.append(len(f))
        return engine(net, f)

    monkeypatch.setattr(metrics, "_smatrices", counting)
    monkeypatch.setattr(scatter, "_smatrices", counting)
    for name in ("chain_detuned_twenty", "comb_seventy_strong", "parallel_balanced_five"):
        for grid in GRIDS:
            net, resp = case(name, grid)
            calls.clear()
            unwrap_phase(resp)
            assert len(calls) <= 1


# ---------------------------------------------------------------------------
# peaks


@pytest.mark.parametrize("name,grid", [(n, g) for n in NAMES for g in GRIDS])
def test_peaks_match_scalar_polish(name, grid):
    net, resp = case(name, grid)
    tol = 1e-6
    w = resp.grid.frequencies
    peaks = find_unity_peaks(resp, tol=tol)
    if peaks.size:
        assert np.min(np.abs(_dense_smatrices(net, peaks)[:, 1, 0]) ** 2) >= 1.0 - tol
    half_step = 0.5 * float(np.min(np.diff(w)))
    for wp, vp in mode_maxima(name):
        if vp >= 1.0 - tol and w[0] <= wp <= w[-1]:
            assert np.min(np.abs(peaks - wp)) <= half_step

