"""Per-layer metrics from the spans of a traced run.

Layers are qnet's six modules.  Times are self times (span minus child
spans); counts and times are per round, one pass over the workload's op
list, so runs with different round counts compare.  Rates are ratios of
those sums.  Both GFLOP figures are computed, from F*N^3 (8/3 F N^3 real
flops for the batched complex LU solves), not measured by a counter.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import nearest, self_times

# (name, unit, better)
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("netcore.validate_calls", "count", "lower"),
    ("netcore.validate_s", "s", "lower"),
    ("netcore.grid_points", "count", "lower"),
    ("scatter.sweep_calls", "count", "lower"),
    ("scatter.sweep_s", "s", "lower"),
    ("scatter.sweep_freqs", "count", "lower"),
    ("scatter.freqs_per_s", "1/s", "higher"),
    ("scatter.sweep_gflop", "GFLOP", "lower"),
    ("scatter.gflops_rate", "GFLOP/s", "higher"),
    ("scatter.smatrix_calls", "count", "lower"),
    ("scatter.smatrix_s", "s", "lower"),
    ("scatter.smatrix_us_per_call", "us", "lower"),
    ("metrics.unwrap_s", "s", "lower"),
    ("metrics.unwrap_refine_calls", "count", "lower"),
    ("metrics.refine_per_interval", "ratio", "lower"),
    ("metrics.peaks_s", "s", "lower"),
    ("metrics.peaks_refine_calls", "count", "lower"),
    ("metrics.peaks_found", "count", "higher"),
    ("metrics.bandwidth_s", "s", "lower"),
    ("metrics.bandwidth_grid_points", "count", "lower"),
    ("metrics.report_s", "s", "lower"),
    ("metrics.wavepacket_s", "s", "lower"),
    ("metrics.click_s", "s", "lower"),
    ("metrics.ift_points", "count", "lower"),
    ("design.tune_s", "s", "lower"),
    ("design.restarts_per_problem", "count", "lower"),
    ("design.converged_frac", "fraction", "higher"),
    ("closedform.series_R_calls", "count", "lower"),
    ("closedform.series_R_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _div(a, b):
    return a / b if b else 0.0


def aggregate(span_sets):
    """Sums over every span set: self time and call count per span name,
    summed ``info`` fields per name, and refine calls attributed to the
    metrics function that issued them."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(lambda: defaultdict(float))
    refine = defaultdict(int)
    lists = defaultdict(list)
    total = 0
    for spans in span_sets:
        total += len(spans)
        st = self_times(spans)
        owner = nearest(spans, {"metrics.unwrap_phase", "metrics.find_unity_peaks"})
        by_id = {s[0]: s for s in spans}
        for sid, name, _start, _end, _parent, extra in spans:
            self_s[name] += st[sid]
            calls[name] += 1
            for k, v in (extra or {}).items():
                info[name][k] += float(v)
                lists[(name, k)].append(float(v))
            if name == "scatter.smatrix" and owner[sid] is not None:
                refine[by_id[owner[sid]][1]] += 1
    return self_s, calls, info, refine, lists, total


def per_layer(records, tracer, rounds, per_span_overhead):
    """{metric name: (value, unit)} for every PER_LAYER metric."""
    cli_runs = [r["cli"] for r in records if r["cli"] is not None and r["cli"].spans]
    if cli_runs:
        span_sets = [c.spans["spans"] for c in cli_runs]
    else:
        span_sets = [tracer.spans]
    self_s, calls, info, refine, lists, total = aggregate(span_sets)
    per = 1.0 / rounds
    sweep_s = self_s["scatter.sweep"]
    gflop = sum(8.0 / 3.0 * f * n**3 for f, n in zip(lists[("scatter.sweep", "freqs")],
                                                    lists[("scatter.sweep", "n")])) / 1e9
    tunes = calls["design.tune"]
    v = {
        "cli.import_s": _div(sum(c.spans["import_s"] for c in cli_runs), len(cli_runs)),
        "cli.parse_s": sum(s[3] - s[2] for ss in span_sets for s in ss if s[1] == "cli._load") * per,
        "cli.self_s": (self_s["cli.main"] + self_s["cli._load"]
                       + self_s["cli.parse_network_document"]) * per,
        "cli.out_bytes": sum(len(c.stdout) for c in cli_runs) * per,
        "netcore.validate_calls": calls["netcore.validate"] * per,
        "netcore.validate_s": self_s["netcore.validate"] * per,
        "netcore.grid_points": info["netcore.SweepGrid"]["points"] * per,
        "scatter.sweep_calls": calls["scatter.sweep"] * per,
        "scatter.sweep_s": sweep_s * per,
        "scatter.sweep_freqs": info["scatter.sweep"]["freqs"] * per,
        "scatter.freqs_per_s": _div(info["scatter.sweep"]["freqs"], sweep_s),
        "scatter.sweep_gflop": gflop * per,
        "scatter.gflops_rate": _div(gflop, sweep_s),
        "scatter.smatrix_calls": calls["scatter.smatrix"] * per,
        "scatter.smatrix_s": self_s["scatter.smatrix"] * per,
        "scatter.smatrix_us_per_call": 1e6 * _div(self_s["scatter.smatrix"], calls["scatter.smatrix"]),
        "metrics.unwrap_s": self_s["metrics.unwrap_phase"] * per,
        "metrics.unwrap_refine_calls": refine["metrics.unwrap_phase"] * per,
        "metrics.refine_per_interval": _div(refine["metrics.unwrap_phase"],
                                            info["metrics.unwrap_phase"]["intervals"]),
        "metrics.peaks_s": self_s["metrics.find_unity_peaks"] * per,
        "metrics.peaks_refine_calls": refine["metrics.find_unity_peaks"] * per,
        "metrics.peaks_found": info["metrics.find_unity_peaks"]["found"] * per,
        "metrics.bandwidth_s": self_s["metrics.spectral_bandwidth"] * per,
        "metrics.bandwidth_grid_points": info["metrics.spectral_bandwidth"]["points"] * per,
        "metrics.report_s": self_s["metrics.compute_report"] * per,
        "metrics.wavepacket_s": self_s["metrics.propagate_wavepacket"] * per,
        "metrics.click_s": self_s["metrics.click_curve"] * per,
        "metrics.ift_points": info["metrics._quadrature_ift"]["points"] * per,
        "design.tune_s": self_s["design.tune"] * per,
        "design.restarts_per_problem": _div(info["design.tune"]["restarts"], tunes),
        "design.converged_frac": _div(info["design.tune"]["converged"], tunes),
        "closedform.series_R_calls": calls["closedform.series_R"] * per,
        "closedform.series_R_s": self_s["closedform.series_R"] * per,
        "trace.spans": total * per,
        "trace.overhead_s": total * per_span_overhead * per,
    }
    return {name: (v[name], unit) for name, unit, _better in PER_LAYER}
