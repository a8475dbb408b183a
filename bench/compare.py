"""Collect repeated benchmark runs and compare two sets of them.

    python3 bench/compare.py collect --seeds 1-10 --out base.jsonl [--workloads cli,sweep-large]
    python3 bench/compare.py compare base.jsonl change.jsonl

`collect` runs bench/run.py once per (workload, seed) with the settings in
BENCHMARK.json, appends one line per run to ``--out`` and prints, per
(workload, metric), the median, the quartiles and the spread -- the
interquartile distance as a share of the median -- next to the metric's
bound.

`compare` applies BENCHMARK.json's bounds per (metric, workload), after
the choosing-metrics method: a pair is *improved* when the change wins at
least nine tenths of the seed-matched pairs (ties count for neither) and
the medians differ by more than the base's interquartile distance;
*regressed* when the change's median is worse than the base's by more than
the bound; *unresolved* when the base's own spread exceeds the bound,
unless every change run beats every base run; otherwise *unchanged*.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def load(path):
    """{(workload, metric): {seed: value}} from a collect file."""
    data = defaultdict(dict)
    for line in pathlib.Path(path).read_text().splitlines():
        run = json.loads(line)
        for name, m in run["metrics"].items():
            data[(run["workload"], name)][run["seed"]] = m["value"]
    return data


def collect(args):
    bench = spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with open(args.out, "a") as fh:
        for workload in names:
            for seed in seeds(args.seeds):
                cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"workload": workload, "seed": seed, **last}) + "\n")
                fh.flush()
                print(f"{workload} seed {seed}: correct={last['correct']} "
                      f"failed={last['failed']}/{last['attempted']} wall={wall:.1f}s", flush=True)
    data = load(args.out)
    print(f"{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for (workload, metric), by_seed in sorted(data.items()):
        q1, med, q3 = quartiles(list(by_seed.values()))
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds[metric] / 3 else ("  > bound/3" if spread <= bounds[metric]
                                                         else "  > BOUND")
        print(f"{workload:12s} {metric:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {bounds[metric]:6.2f}{flag}")


def verdict(base, change, better, bound):
    """(label, detail) for one (metric, workload) pair of seed->value maps."""
    b, c = list(base.values()), list(change.values())
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cmed - bmed) / bmed  # > 0 when the change is worse
    common = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in common] or list(zip(b, c))
    wins = sum(sign * (cv - bv) < 0 for bv, cv in pairs)
    spread = (bq3 - bq1) / bmed
    all_better = all(sign * (cv - bv) < 0 for bv in b for cv in c)
    if spread > bound and not all_better:
        label = "unresolved"
    elif wins >= 0.9 * len(pairs) and worse < 0 and abs(cmed - bmed) > (bq3 - bq1):
        label = "improved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "unchanged"
    detail = (f"base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]"
              f"  worse {100 * worse:+.1f}%  wins {wins}/{len(pairs)}  spread {spread:.3f}")
    return label, detail


def compare(args):
    bench = spec()
    base, change = load(args.base), load(args.change)
    status = 0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in base or key not in change:
                print(f"{w['name']:12s} {m['name']:12s} missing")
                continue
            label, detail = verdict(base[key], change[key], m["better"], m["bound"])
            status |= label == "regressed"
            print(f"{w['name']:12s} {m['name']:12s} {label:10s} {detail}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads")
    c.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    args = ap.parse_args(argv)
    return collect(args) if args.cmd == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
