"""In-memory span tracer for the qnet benchmark.

`Tracer.install()` wraps each layer's public functions at every module
attribute where callers look them up (``qnet.metrics.smatrix``,
``qnet.cli.sweep``, ``qnet.scatter.validate``, ``qnet.design.series_R``,
...), so calls made inside the package are traced as well as calls made
by the benchmark.  Each call records a span (id, name, start, end,
parent); spans stay in memory until `dump` writes them out.

Self time of a span is its duration minus the time its direct children
cover; children of one span never overlap because the package calls
traced functions from a single thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# layer -> public functions traced in that layer.  Private helpers appear
# only where a per-layer metric needs them: the CLI loader, and the
# quadrature whose size gives metrics.ift_points (counted, not timed).
TRACED = {
    "cli": ("main", "_load", "parse_network_document"),
    "netcore": ("validate",),
    "scatter": ("sweep", "smatrix"),
    "closedform": ("series_R",),
    "metrics": (
        "compute_report", "unwrap_phase", "find_unity_peaks", "spectral_bandwidth",
        "propagate_wavepacket", "click_curve", "_quadrature_ift",
    ),
    "design": ("tune",),
}
COUNT_ONLY = ("_quadrature_ift",)
MODULES = ("qnet", "qnet.cli", "qnet.netcore", "qnet.scatter", "qnet.closedform",
           "qnet.metrics", "qnet.design")


class Tracer:
    """Span recorder.  ``spans`` holds [id, name, start, end, parent, info]
    lists; ``info`` carries per-call sizes (grid points, peaks found, ...)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.on = [True]  # cleared by `paused`, read by every wrapper
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's own checks) record
        nothing."""
        self.on[0] = False
        try:
            yield
        finally:
            self.on[0] = True

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so each call records one span named ``name``;
        ``info(args, kwargs, result)`` may return a dict stored with it."""
        spans, stack, clock, on = self.spans, self._stack, self.clock, self.on

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            rec = [len(spans), name, clock(), None, stack[-1][0] if stack else None, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn, info):
        """Wrap ``fn`` so each call records a zero-length span carrying
        ``info`` under the current span, without timing the call."""
        spans, stack, on = self.spans, self._stack, self.on

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not on[0]:
                return result
            parent = stack[-1][0] if stack else None
            spans.append([len(spans), name, 0.0, 0.0, parent, info(args, kwargs, result)])
            return result

        return counted

    def install(self):
        """Replace every traced function at every qnet module attribute
        bound to it.  `uninstall` puts the originals back."""
        mods = [importlib.import_module(m) for m in MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"qnet.{layer}")
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                if fname in COUNT_ONLY:
                    wrapped = self.count(name, original, _INFO[fname])
                else:
                    wrapped = self.span(name, original, _INFO.get(fname))
                for mod in mods:
                    if mod.__dict__.get(fname) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapped)
        grid = importlib.import_module("qnet.netcore").SweepGrid
        post = grid.__post_init__
        self._restore.append((grid, "__post_init__", post))
        grid.__post_init__ = self.count("netcore.SweepGrid", post, _grid_info)
        return self

    def uninstall(self):
        for owner, fname, original in reversed(self._restore):
            setattr(owner, fname, original)
        self._restore.clear()

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _sweep_info(args, kwargs, resp):
    net = args[0]
    return {"freqs": len(resp.grid), "n": net.size}


def _unwrap_info(args, kwargs, phase):
    return {"intervals": max(len(phase) - 1, 0)}


def _peaks_info(args, kwargs, peaks):
    return {"found": len(peaks)}


def _bandwidth_info(args, kwargs, bw):
    return {"points": len(args[0].grid)}


def _ift_info(args, kwargs, out):
    return {"points": len(args[0]) * len(args[2])}


def _grid_info(args, kwargs, out):
    return {"points": len(args[0].frequencies)}


def _tune_info(args, kwargs, res):
    return {"restarts": len(res.restart_objectives), "converged": bool(res.converged)}


_INFO = {
    "sweep": _sweep_info,
    "unwrap_phase": _unwrap_info,
    "find_unity_peaks": _peaks_info,
    "spectral_bandwidth": _bandwidth_info,
    "_quadrature_ift": _ift_info,
    "tune": _tune_info,
}


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """{span id: self time} -- duration minus the summed durations of the
    span's direct children."""
    child = defaultdict(float)
    for sid, _name, start, end, parent, _info in spans:
        if parent is not None:
            child[parent] += end - start
    return {s[0]: (s[3] - s[2]) - child[s[0]] for s in spans}


def nearest(spans, names):
    """{span id: id of the closest ancestor whose name is in ``names``}."""
    by_id = {s[0]: s for s in spans}
    out = {}
    for s in spans:
        p = s[4]
        while p is not None and by_id[p][1] not in names:
            p = by_id[p][4]
        out[s[0]] = p
    return out


def calibrate(n=20000):
    """Seconds one traced call adds over the bare call, measured on a no-op."""
    t = Tracer()
    noop = lambda: None
    wrapped = t.span("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t.spans.clear()
        a = clock()
        for _ in range(n):
            noop()
        b = clock()
        for _ in range(n):
            wrapped()
        c = clock()
        best = min(best, ((c - b) - (b - a)) / n)
    return max(best, 0.0)


def run_traced_cli(span_path, argv):
    """Entry point for one traced CLI process: time `import qnet`, install
    the tracer, run ``qnet.cli.main(argv)`` and write the spans."""
    t0 = time.perf_counter()
    import qnet.cli  # noqa: F401  (the import itself is what is timed)

    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    code = 1
    try:
        code = sys.modules["qnet.cli"].main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(span_path, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(run_traced_cli(sys.argv[1], sys.argv[2:]))
