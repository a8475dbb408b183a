"""Smoke tests for the benchmark itself.

    python3 -m pytest bench -q
"""

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from run import tail  # noqa: E402


def test_generator_is_deterministic(tmp_path):
    assert gen.generate(5) == gen.generate(5)
    assert gen.generate(5) != gen.generate(6)
    a = [p.read_bytes() for p in gen.write(5, tmp_path / "a")]
    b = [p.read_bytes() for p in gen.write(5, tmp_path / "b")]
    assert a == b


def test_generator_keeps_sizes_across_seeds():
    def shape(files):
        return {k: (d["type"], len(gen.doc_resonances(d))) for k, d in files.items()}

    assert shape(gen.generate(1)) == shape(gen.generate(2))


def test_self_time_of_hand_built_span_tree():
    #  root [0, 10] -> a [1, 4] -> c [2, 3]
    #               -> b [5, 7]
    spans = [
        [0, "root", 0.0, 10.0, None, None],
        [1, "a", 1.0, 4.0, 0, None],
        [2, "b", 5.0, 7.0, 0, None],
        [3, "c", 2.0, 3.0, 1, None],
    ]
    assert tracer.self_times(spans) == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}
    assert tracer.nearest(spans, {"root"}) == {0: None, 1: 0, 2: 0, 3: 0}
    assert tracer.nearest(spans, {"a"}) == {0: None, 1: None, 2: None, 3: 1}


def test_tracer_wraps_every_lookup_site_and_restores():
    import numpy as np

    import qnet.metrics
    import qnet.scatter

    original = qnet.scatter.smatrix
    net = qnet.netcore.build_series([0.0, 0.1], 1.0, 1.0, [0.5])
    t = tracer.Tracer().install()
    try:
        assert qnet.metrics.smatrix is qnet.scatter.smatrix is not original
        qnet.metrics.smatrix(net, 0.0)
        with t.paused():
            qnet.metrics.smatrix(net, 0.0)
    finally:
        t.uninstall()
    assert qnet.metrics.smatrix is qnet.scatter.smatrix is original
    names = [s[1] for s in t.spans]
    assert names == ["scatter.smatrix", "netcore.validate"]
    assert t.spans[1][4] == t.spans[0][0]
    assert np.isfinite(tracer.calibrate(200))


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = tail([float(i) for i in range(1, 31)])
    assert (value, beyond) == (20.0, 10)
    assert pct == pytest.approx(100 * 20 / 30)
    value, _pct, beyond = tail([float(i) for i in range(1, 17)])
    assert value == 9.0 and beyond == 7  # never below the median


def test_compare_verdicts():
    base = {s: 1.0 + 0.01 * s for s in range(10)}
    faster = {s: 0.5 + 0.01 * s for s in range(10)}
    slower = {s: 2.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(base, dict(base), "lower", 0.1)[0] == "unchanged"
    noisy = {s: 1.0 + (s % 2) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1)[0] == "unresolved"


@pytest.mark.parametrize("workload", ["cli", "sweep-large"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_tiny_size(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--max-ops", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] in (2, 4)  # cli makes at least two rounds
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
