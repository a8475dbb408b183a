import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from qnet import (
    HybridSpec,
    LengthMismatch,
    ParseError,
    lower_hybrid,
    parse_network_document,
    parse_network_file,
)
from qnet.cli import main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"


def write(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SIMPLE = {
    "schema_version": 1,
    "type": "parallel",
    "omegas": [0.0],
    "gammas": [1.0],
    "Gammas": [1.0],
}


# ---------------------------------------------------------------------------
# parsing


def test_parse_parallel():
    net = parse_network_document(
        {
            "schema_version": 1,
            "type": "parallel",
            "omegas": [0.0, 1.0],
            "gammas": [1.0, 2.0],
            "Gammas": [3.0, 4.0],
            "mus": [[0.1, 0.1]],
        }
    )
    assert net.size == 2 and net.n_ports == 3


def test_parse_series():
    net = parse_network_document(
        {
            "schema_version": 1,
            "type": "series",
            "omegas": [0.0, 0.5, 1.0],
            "gamma": 1.0,
            "Gamma": 2.0,
            "g": [0.7, 0.9],
        }
    )
    assert net.coupling[0, 1] == 0.7


def test_parse_general_with_loop():
    g = [[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]]
    net = parse_network_document(
        {
            "schema_version": 1,
            "type": "general",
            "omegas": [0.0, 0.2, -0.1],
            "g": g,
            "gammas": [1.0, 0.0, 0.0],
            "Gammas": [0.0, 0.0, 1.0],
        }
    )
    assert net.coupling[0, 2] == 0.3


def test_parse_hybrid_homogeneous():
    spec = parse_network_document(
        {
            "schema_version": 1,
            "type": "hybrid",
            "manifolds": [[0.0, 0.3], [1.0]],
            "gamma": 0.5,
            "Gamma": 1.5,
            "g": [0.4],
        }
    )
    assert isinstance(spec, HybridSpec)


def test_parse_rejects_wrong_schema_version():
    with pytest.raises(ParseError):
        parse_network_document({**SIMPLE, "schema_version": 2})


def test_parse_rejects_unknown_type():
    with pytest.raises(ParseError):
        parse_network_document({**SIMPLE, "type": "ring"})


def test_parse_rejects_missing_field():
    doc = dict(SIMPLE)
    del doc["Gammas"]
    with pytest.raises(ParseError):
        parse_network_document(doc)


def test_parse_propagates_validation_error():
    with pytest.raises(LengthMismatch):
        parse_network_document({**SIMPLE, "gammas": [1.0, 2.0]})


def test_parse_file_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_network_file(str(path))


def test_parse_file_rejects_missing_file(tmp_path):
    with pytest.raises(ParseError):
        parse_network_file(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_validate_echoes_normalized_form(tmp_path, capsys):
    path = write(tmp_path, SIMPLE)
    assert main(["validate", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "general"
    assert doc["omegas"] == [0.0]
    assert doc["g"] == [[0.0]]


def test_exit_code_on_parse_error(tmp_path):
    path = write(tmp_path, {**SIMPLE, "gammas": [1.0, 2.0]})
    assert main(["validate", "--input", path]) == 2


def test_exit_code_on_empty_window(tmp_path):
    path = write(tmp_path, SIMPLE)
    assert main(["sweep", "--input", path, "--wmin", "2.0", "--wmax", "-2.0"]) == 2


def test_exit_code_on_half_window(tmp_path):
    path = write(tmp_path, SIMPLE)
    assert main(["sweep", "--input", path, "--wmin", "-2.0"]) == 2


def test_sweep_csv_shape_and_peak(tmp_path):
    path = write(tmp_path, SIMPLE)
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--input", path, "--out", str(out), "--wmin", "-5", "--wmax", "5", "--points", "101"]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "omega,ReT,ImT,absT2,ReR,ImR,phase_unwrapped,tau_g"
    assert len(lines) == 102
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    mid = data[np.argmin(np.abs(data[:, 0]))]
    assert mid[3] == pytest.approx(1.0, abs=1e-10)  # |T|^2 = 1 on resonance
    assert mid[7] == pytest.approx(1.0, abs=1e-2)  # tau_g = 2/(gamma+Gamma)


def test_sweep_output_is_byte_identical(tmp_path, monkeypatch):
    path = write(tmp_path, SIMPLE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--input", path, "--wmin", "-3", "--wmax", "3", "--points", "201"]
    monkeypatch.setenv("QNET_THREADS", "1")
    assert main(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("QNET_THREADS", "4")
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_metrics_json_simple_model(tmp_path, capsys):
    path = write(tmp_path, SIMPLE)
    assert main(["metrics", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bandwidth"] == pytest.approx(1.0, rel=5e-3)  # 2*1*1/(1+1)
    assert doc["dispersion"] == pytest.approx(1.0, rel=1e-2)  # 8*1*1/(1+1)^3
    assert doc["unity_peaks"] == pytest.approx([0.0], abs=1e-6)
    assert doc["total_phase_change"] == pytest.approx(np.pi, rel=1e-2)


def test_metrics_on_a_dark_state(tmp_path, capsys):
    # state 1 couples to no port, so A is singular at its resonance 0.37:
    # its eigenvalue of M - k_a^T k_a must not become a unity-peak candidate
    doc = {**SIMPLE, "omegas": [0.0, 0.37], "gammas": [1.0, 0.0], "Gammas": [1.0, 0.0]}
    assert main(["metrics", "--input", write(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["unity_peaks"] == [0.0]


DESIGN_CONVERGES = {
    "schema_version": 1,
    "type": "series",
    "omegas": [0.0, 0.75],
    "gamma": 1.0,
    "Gamma": 2.0,
    "g": [0.4],
    "design": {
        "free": [["g", 0, 1]],
        "bounds": [[0.05, 10.0]],
        "target": ["count", 1],
    },
}
# unity transmission at a frequency far outside what the bounds allow
DESIGN_FAILS = {
    **DESIGN_CONVERGES,
    "design": {
        "free": [["g", 0, 1]],
        "bounds": [[0.05, 0.06]],
        "target": ["freq", 40.0],
    },
}


def test_design_subcommand_converges(tmp_path, capsys):
    path = write(tmp_path, DESIGN_CONVERGES)
    assert main(["design", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True
    assert out["objective"] < 1e-8
    assert out["parameters"][0][:3] == ["g", 0, 1]


def test_design_subcommand_reports_failure(tmp_path, capsys):
    path = write(tmp_path, DESIGN_FAILS)
    assert main(["design", "--input", path]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is False


MALFORMED_DESIGN = {
    "count-without-value": {"target": ["count"]},
    "count-not-integer": {"target": ["count", 2.5]},
    "count-bool": {"target": ["count", True]},
    "freq-not-number": {"target": ["freq", "abc"]},
    "freq-nan": {"target": ["freq", float("nan")]},
    "free-index-out-of-range": {"free": [["g", 0, 7], ["g", 1, 2]]},
    "free-rate-index-out-of-range": {"free": [["g", 0, 1], ["gamma", 5]]},
    "free-negative-index": {"free": [["g", -1, 0], ["g", 1, 2]]},
    "free-missing-index": {"free": [["g", 0], ["g", 1, 2]]},
    "free-not-a-list": {"free": [5, ["g", 1, 2]]},
    "bound-single-number": {"bounds": [[0.05], [0.05, 10.0]]},
    "bound-not-number": {"bounds": [[0.05, "x"], [0.05, 10.0]]},
}


@pytest.mark.parametrize("change", MALFORMED_DESIGN.values(), ids=MALFORMED_DESIGN.keys())
def test_design_rejects_malformed_block(tmp_path, capsys, change):
    doc = json.loads((DEMOS / "design_chain_three.json").read_text())
    doc["design"].update(change)
    path = write(tmp_path, doc)
    assert main(["design", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_wavepacket_subcommand(tmp_path):
    doc = {**SIMPLE, "wavepacket": {"center": 0.0, "sigma": 0.2}}
    path = write(tmp_path, doc)
    out = tmp_path / "wp.csv"
    assert main(["wavepacket", "--input", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,Re_psi,Im_psi,abs2"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(data[:, 3] >= 0)
    # transmitted norm below unity but substantial for a narrow packet
    norm = np.trapezoid(data[:, 3], data[:, 0])
    assert 0.5 < norm <= 1.0 + 1e-9


def test_povm_subcommand_monotone(tmp_path):
    doc = {**SIMPLE, "wavepacket": {"center": 0.0, "sigma": 0.2, "t0": -30.0}}
    path = write(tmp_path, doc)
    out = tmp_path / "povm.csv"
    assert main(["povm", "--input", path, "--out", str(out), "--tau", "60.0"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau,click_probability"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    probs = data[:, 1]
    assert probs[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(probs) >= -1e-12)
    assert probs[-1] > 0.5


def test_metrics_output_is_byte_identical(tmp_path, monkeypatch):
    # both bandwidth grids span several sweep chunks, so threads run
    for name in ("chain_detuned_twenty", "comb_seventy_strong"):
        path = str(DEMOS / f"{name}.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("QNET_THREADS", "1")
        assert main(["metrics", "--input", path, "--out", str(a)]) == 0
        monkeypatch.setenv("QNET_THREADS", "2")
        assert main(["metrics", "--input", path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def gramian_bandwidth(net):
    """(1/pi) Int |T|^2 d omega = 2 C P C^H, with P the controllability
    Gramian of dc/dt = -(K^T K / 2 + i g + i diag omega) c + k_a^T u."""
    K = np.sqrt(np.array([net.input_decays, net.output_decays, *net.side_decays]))
    A = -(0.5 * K.T @ K + 1j * net.coupling + 1j * np.diag(net.resonances))
    B = K[0][:, None].astype(complex)
    P = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.conj().T)
    return 2.0 * float(np.real(K[1] @ P @ K[1]))


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.json")))
def test_metrics_runs_on_every_demo(tmp_path, name):
    out = tmp_path / "metrics.json"
    assert main(["metrics", "--input", str(DEMOS / f"{name}.json"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    spec = parse_network_file(DEMOS / f"{name}.json")
    net = lower_hybrid(spec) if isinstance(spec, HybridSpec) else spec
    assert doc["bandwidth"] == pytest.approx(gramian_bandwidth(net), rel=1e-12)


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # scipy costs about half a second to import and no subcommand needs
    # it: `import qnet.cli`, `qnet metrics` and `qnet design` (converging,
    # exit 3, and a count target) run without loading any scipy module
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    no_scipy = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    code = f"import sys, qnet.cli; {no_scipy}"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    runs = [
        (["metrics", "--input", str(DEMOS / f"{name}.json")], 0)
        for name in ("chain_detuned_twenty", "parallel_balanced_five", "comb_seventy_strong",
                     "side_channel_parallel")
    ] + [
        (["design", "--input", write(tmp_path, DESIGN_CONVERGES, "ok.json")], 0),
        (["design", "--input", write(tmp_path, DESIGN_FAILS, "fail.json")], 3),
        (["design", "--input", str(DEMOS / "design_chain_three.json")], 0),
    ]
    for argv, status in runs:
        argv = [*argv, "--out", str(tmp_path / "out.json")]
        code = (
            "import sys; from qnet.cli import main\n"
            f"assert main({argv!r}) == {status}\n"
            f"{no_scipy}"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
