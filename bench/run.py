"""qnet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli --seed 1 --seconds 45 --trace 0

Set-up (process start, `import qnet`, input generation and one warm-up
op) is measured in three fresh probe processes and reported as their
median.  The runner then executes the workload's round of ops -- a closed
loop, one client -- in whole rounds for about ``--seconds`` of busy time.
Every op's output is checked against an independent reference outside
its timed interval.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the layers are wrapped by `tracer.Tracer` and the per-layer metrics are
reported instead, per round (one pass over the round's ops).  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
full record, with the environment and every failure, is appended to
bench/_results/runs.jsonl.
"""

from __future__ import annotations

import os
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
# Thread pinning, set before numpy loads: a single-threaded BLAS pool and
# at most two sweep threads, so QNET_THREADS x BLAS threads <= nproc.
THREADS = {
    "QNET_THREADS": str(max(1, min(2, NPROC))),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREADS)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
)
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_PROBES = 3
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB", "error_frac": "fraction", "wrong_frac": "fraction",
}
# the end-to-end metrics BENCHMARK.json gates; error_frac and wrong_frac are
# printed and recorded only, because they are 0 on sweep-large
GATED = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def check_checkout():
    """The program must come from this checkout's src/, nowhere else."""
    if not (ROOT / "src" / "qnet" / "__init__.py").is_file():
        fail(f"no qnet sources under {ROOT / 'src'}")
    try:
        import qnet
    except ImportError as exc:
        fail(f"cannot import qnet from {ROOT / 'src'}: {exc}")
    if pathlib.Path(qnet.__file__).resolve().parent != (ROOT / "src" / "qnet").resolve():
        fail(f"qnet imported from {qnet.__file__}, not from this checkout")


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": NPROC, "cpu_model": model, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "threads": THREADS,
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def tail(durations):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, never below the median."""
    d = sorted(durations)
    n = len(d)
    i = max(n - 11, n // 2)
    return d[i], 100.0 * (i + 1) / n, n - 1 - i


def setup_probe(workload, seed, work):
    """Body of one probe process: generate the inputs, run one warm-up op."""
    inputs = work / "inputs"
    gen.write(seed, inputs)
    runner = W.CliRunner(work, dict(os.environ)) if workload == "cli" else None
    W.warmup_op(workload, inputs, runner)()


def measure_setup(workload, seed, work):
    times = []
    for k in range(SETUP_PROBES):
        probe = work / f"probe-{k}"
        probe.mkdir()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
             str(seed), "--probe", str(probe)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        shutil.rmtree(probe)
    return statistics.median(times), times


def build_round(workload, inputs, runner, seed):
    if workload == "cli":
        return W.cli_round(inputs, runner, np.random.default_rng([seed, 1]))
    return W.sweep_large_round(inputs)


def run_ops(ops, seconds, min_rounds, tracer=None):
    """Closed loop, one client, over whole rounds of ``ops``: a further
    round starts while fewer than ``min_rounds`` ran or while, judged by
    the mean round so far, it would end at most half a round past
    ``seconds`` of busy time.  Checks run between ops, untimed and with
    tracing paused.  Returns the per-op records, busy time and rounds."""
    quiet = tracer.paused if tracer else contextlib.nullcontext
    records, busy, rounds = [], 0.0, 0
    clock = time.perf_counter
    while rounds < min_rounds or busy + 0.5 * busy / rounds <= seconds:
        for op in ops:
            t0 = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an op failing is a measured outcome
                out, err = None, exc
            dur = clock() - t0
            busy += dur
            res = out if err is None else getattr(err, "result", None)
            rec = {"op": op.name, "s": dur, "status": "ok", "defect": None, "detail": None,
                   "cli": res if isinstance(res, W.CliResult) else None}
            if err is not None:
                rec.update(status="error", defect=getattr(err, "defect", None),
                           detail=f"{type(err).__name__}: {err}")
            else:
                try:
                    with quiet():
                        op.check(out)
                except W.Failure as exc:
                    rec.update(status="wrong", defect=exc.defect, detail=str(exc))
            records.append(rec)
        rounds += 1
    return records, busy, rounds


def end_to_end(records, busy, setup_s, rss_mb):
    durations = [r["s"] for r in records]
    n = len(records)
    value, pct, beyond = tail(durations)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / busy,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": value,
        "peak_rss_mb": rss_mb,
        "error_frac": sum(r["status"] == "error" for r in records) / n,
        "wrong_frac": sum(r["status"] == "wrong" for r in records) / n,
    }
    return metrics, {"tail_percentile": pct, "tail_beyond": beyond, "samples": n}


def main(argv=None):
    ap = argparse.ArgumentParser(description="qnet benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0, help="target busy time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, help="keep only the round's first N ops (smoke tests)")
    ap.add_argument("--probe", type=pathlib.Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    check_checkout()
    warnings.simplefilter("ignore")  # numerical warnings go to the program's own stderr only
    if args.probe:
        setup_probe(args.workload, args.seed, args.probe)
        return 0

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, setup_all = measure_setup(args.workload, args.seed, work)
        inputs = work / "inputs"
        gen.write(args.seed, inputs)
        runner = W.CliRunner(work, dict(os.environ), trace=bool(args.trace))
        W.warmup_op(args.workload, inputs, runner)()
        ops = build_round(args.workload, inputs, runner, args.seed)[: args.max_ops]
        tracer = T.Tracer().install() if args.trace else None
        try:
            records, busy, rounds = run_ops(ops, args.seconds, W.MIN_ROUNDS[args.workload],
                                            tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if args.workload == "cli":
            rss_mb = runner.max_rss_kb / 1024.0
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, tail_info = end_to_end(records, busy, setup_s, rss_mb)
        layer = None
        if args.trace:
            layer = layers.per_layer(records, tracer, rounds, T.calibrate())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in records if r["status"] != "ok"]
    unexplained = [r for r in failures if r["defect"] is None]
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops in {rounds} "
          f"round(s), {busy:.3f} s busy; set-up probes {[round(t, 4) for t in setup_all]}")
    if layer:
        print("  per layer, per round (times are self times; GFLOP figures are computed, "
              "from F*N^3):")
        for name, (value, unit) in layer.items():
            print(f"  {name:32s} {value:.6g} {unit}")
    else:
        for name, unit in END_TO_END.items():
            extra = ""
            if name == "op_tail_s":
                extra = (f"  (p{tail_info['tail_percentile']:.1f}, {tail_info['tail_beyond']} of "
                         f"{tail_info['samples']} samples beyond)")
            print(f"  {name:12s} {metrics[name]:.6g} {unit}{extra}")
    seen = set()
    for r in failures:
        key = (r["op"], r["status"], r["detail"])
        if key not in seen:
            seen.add(key)
            tag = (f"known defect '{r['defect']}': {W.KNOWN_DEFECTS[r['defect']]}"
                   if r["defect"] else "UNEXPECTED")
            print(f"  {r['status']}: {r['op']}: {r['detail']} [{tag}]")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "rounds": rounds, "busy_s": busy,
        "setup_probes_s": setup_all, **tail_info,
        "end_to_end": metrics, "per_layer": {k: v[0] for k, v in (layer or {}).items()},
        "failures": sorted({(r["op"], r["status"], r["defect"] or "", r["detail"]) for r in failures}),
        "ops": [[r["op"], r["s"], r["status"]] for r in records],
    }
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    with open(results / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    if args.trace:
        shown = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        shown = {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in GATED}
    print(json.dumps({"correct": not unexplained, "attempted": len(records),
                      "failed": len(failures), "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
