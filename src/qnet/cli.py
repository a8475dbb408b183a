"""Command-line front end: JSON network descriptions in, CSV/JSON out.

Exit codes: 0 success, 2 description/configuration errors, 3 numerical
failures (singular sweeps, non-converged designs).  Output bytes are a
pure function of the input file, the flags, and the seed; floats are
written at full repr precision so external diffs are meaningful.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .design import DesignProblem, tune
from .errors import ParseError, QnetError, ValidationError
from .metrics import (
    Wavepacket,
    _exact_phase,
    click_curve,
    compute_report,
    propagate_wavepacket,
)
from .netcore import (
    HybridSpec,
    NetworkSpec,
    SweepGrid,
    _finite_real,
    _is,
    build_parallel,
    build_series,
    hybrid_critical_unbalanced,
    hybrid_homogeneous,
    lower_hybrid,
    validate,
)
from .scatter import sweep

SCHEMA_VERSION = 1
# most points a wavepacket grid may have (a description's "points"),
# checked before any grid is built
MAX_PACKET_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# input files


def _field(doc: dict, key: str, kind=None):
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"field {key!r} has type {type(value).__name__}")
    return value


def _reals(doc: dict, key: str, kind=list):
    """Field ``key`` of type ``kind``, every number in it, at any depth of
    nested lists, a finite real."""
    value = _field(doc, key, kind)
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif not _finite_real(v):
            raise ParseError(f"field {key!r} must hold finite numbers only")
    return value


def parse_network_document(doc: dict):
    """Network (or hybrid) spec from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    version = _field(doc, "schema_version", int)
    if not _is(version, int) or version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}")
    kind = _field(doc, "type", str)
    try:
        if kind == "parallel":
            return build_parallel(
                _reals(doc, "omegas"),
                _reals(doc, "gammas"),
                _reals(doc, "Gammas"),
                side_decays=tuple(_reals(doc, "mus")) if "mus" in doc else (),
            )
        if kind == "series":
            return build_series(
                _reals(doc, "omegas"),
                _reals(doc, "gamma", (int, float)),
                _reals(doc, "Gamma", (int, float)),
                _reals(doc, "g"),
            )
        if kind == "general":
            spec = NetworkSpec(
                resonances=_reals(doc, "omegas"),
                coupling=_reals(doc, "g"),
                input_decays=_reals(doc, "gammas"),
                output_decays=_reals(doc, "Gammas"),
                side_decays=tuple(_reals(doc, "mus")) if "mus" in doc else (),
            )
            return validate(spec)
        if kind == "hybrid":
            manifolds = _reals(doc, "manifolds")
            if "manifold_gammas" in doc:
                return hybrid_critical_unbalanced(
                    manifolds,
                    _reals(doc, "manifold_gammas"),
                    _reals(doc, "ratios"),
                )
            return hybrid_homogeneous(
                manifolds,
                _reals(doc, "gamma", (int, float)),
                _reals(doc, "Gamma", (int, float)),
                _reals(doc, "g"),
            )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind!r} description: {exc}") from None
    raise ParseError(f"unknown network type {kind!r}")


def parse_network_file(path: str):
    """Validated NetworkSpec or HybridSpec from a JSON description file."""
    return _load(path, lower=False)[1]


def _load(path: str, lower=True):
    """(document, spec) for a description file; a hybrid spec is lowered
    to its flattened NetworkSpec unless ``lower`` is false."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path!r} line {exc.lineno}: {exc.msg}") from None
    spec = parse_network_document(doc)
    if lower and isinstance(spec, HybridSpec):
        spec = lower_hybrid(spec)
    return doc, spec


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: subcommand, file paths, window, and tolerances."""

    command: str
    input: str
    out: str | None = None
    wmin: float | None = None
    wmax: float | None = None
    points: int | None = None
    ppl: float = 40.0
    tol: float = 1e-6
    seed: int = 0
    tau: float = 10.0

    def __post_init__(self):
        if self.points is not None and self.points < 2:
            raise ValidationError("point count must be at least 2")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if (self.wmin is None) != (self.wmax is None):
            raise ValidationError("give both --wmin and --wmax or neither")
        if self.wmin is not None:
            if not (np.isfinite(self.wmin) and np.isfinite(self.wmax)):
                raise ValidationError("frequency window must be finite")
            if not self.wmin < self.wmax:
                raise ValidationError("empty frequency window")
        if not all(0 < v < np.inf for v in (self.tol, self.ppl, self.tau)):
            raise ValidationError("tolerances must be positive and finite")


def _grid_for(config: RunConfig, net: NetworkSpec) -> SweepGrid:
    if config.wmin is not None:
        return SweepGrid.linspace(config.wmin, config.wmax, config.points or 2001)
    return SweepGrid.for_network(net, points_per_linewidth=config.ppl)


def _emit(config: RunConfig, text: str):
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w") as fh:
            fh.write(text)


def _csv(header, columns) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(config: RunConfig):
    _, net = _load(config.input)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": "general",
        "omegas": net.resonances.tolist(),
        "g": net.coupling.tolist(),
        "gammas": net.input_decays.tolist(),
        "Gammas": net.output_decays.tolist(),
        "mus": [m.tolist() for m in net.side_decays],
    }
    _emit(config, json.dumps(doc, indent=2) + "\n")


def _cmd_sweep(config: RunConfig):
    _, net = _load(config.input)
    grid = _grid_for(config, net)
    resp = sweep(net, grid)
    phase, tau, _ = _exact_phase(resp)
    T = resp.transmission()
    R = resp.reflection()
    _emit(
        config,
        _csv(
            ["omega", "ReT", "ImT", "absT2", "ReR", "ImR", "phase_unwrapped", "tau_g"],
            [grid.frequencies, T.real, T.imag, np.abs(T) ** 2, R.real, R.imag, phase, tau],
        ),
    )


def _cmd_metrics(config: RunConfig):
    _, net = _load(config.input)
    grid = None if config.wmin is None else _grid_for(config, net)
    report = compute_report(net, grid=grid, tol=config.tol)
    doc = {
        "bandwidth": report.bandwidth,
        "dispersion": report.dispersion,
        "unity_peaks": report.unity_peaks.tolist(),
        "reflection_zeros": report.reflection_zeros.tolist(),
        "total_phase_change": report.total_phase_change,
        "frequencies": report.frequencies.tolist(),
        "phase": report.phase.tolist(),
        "group_delay": report.group_delay.tolist(),
    }
    # not indented: the report carries tens of thousands of floats, which
    # the indented form makes a sixth larger and json encodes only in
    # Python (its C encoder serves the unindented form alone)
    _emit(config, json.dumps(doc) + "\n")


def _cmd_design(config: RunConfig):
    doc, net = _load(config.input)
    design = _field(doc, "design", dict)
    free = tuple(_field(design, "free", list))  # entries are checked by DesignProblem
    bounds = tuple(_field(design, "bounds", list))
    target = tuple(_field(design, "target", list))
    problem = DesignProblem(
        base=net, free=free, bounds=bounds, target=target, seed=config.seed
    )
    result = tune(problem)
    out = {
        "parameters": [[*item, value] for item, value in result.parameters.items()],
        "objective": result.objective,
        "converged": result.converged,
        "achieved_frequencies": result.achieved_frequencies.tolist(),
        "achieved_values": result.achieved_values.tolist(),
        "message": result.message,
    }
    _emit(config, json.dumps(out, indent=2) + "\n")
    if not result.converged:
        return 3
    return 0


def _packet_from(doc: dict) -> Wavepacket:
    wp = _field(doc, "wavepacket", dict)
    real = {"center": _field(wp, "center"), "sigma": _field(wp, "sigma"),
            "span": wp.get("span", 8.0), "t0": wp.get("t0", 0.0)}
    for key, value in real.items():
        if not _finite_real(value):
            raise ParseError(f"wavepacket {key} must be a finite number")
    if not (real["sigma"] > 0 and real["span"] > 0):
        raise ParseError("wavepacket sigma and span must be positive")
    points = wp.get("points", 4001)
    if not (_is(points, numbers.Integral) and 2 <= points <= MAX_PACKET_POINTS):
        raise ParseError(f"wavepacket points must be an integer from 2 to {MAX_PACKET_POINTS}")
    return Wavepacket.gaussian(
        real["center"], real["sigma"], span=float(real["span"]), points=int(points),
        t0=float(real["t0"]),
    )


def _cmd_wavepacket(config: RunConfig):
    doc, net = _load(config.input)
    packet = _packet_from(doc)
    trace = propagate_wavepacket(net, packet)
    psi = trace.amplitudes
    _emit(
        config,
        _csv(
            ["t", "Re_psi", "Im_psi", "abs2"],
            [trace.times, psi.real, psi.imag, np.abs(psi) ** 2],
        ),
    )


def _cmd_povm(config: RunConfig):
    doc, net = _load(config.input)
    packet = _packet_from(doc)
    taus, probs = click_curve(net, packet, config.tau)
    out_taus = np.linspace(0.0, config.tau, config.points or 101)
    out_probs = np.interp(out_taus, taus, probs)
    _emit(config, _csv(["tau", "click_probability"], [out_taus, out_probs]))


_COMMANDS = {
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "metrics": _cmd_metrics,
    "design": _cmd_design,
    "wavepacket": _cmd_wavepacket,
    "povm": _cmd_povm,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        code = _COMMANDS[config.command](config)
        return 0 if code is None else code
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except QnetError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qnet",
        description="Frequency-domain simulator for discrete-state scattering networks",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", required=True, help="JSON network description")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--wmin", type=float, default=None)
    parser.add_argument("--wmax", type=float, default=None)
    parser.add_argument("--points", type=int, default=None)
    parser.add_argument("--ppl", type=float, default=40.0, help="points per linewidth")
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tau", type=float, default=10.0, help="POVM window length")
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            input=args.input,
            out=args.out,
            wmin=args.wmin,
            wmax=args.wmax,
            points=args.points,
            ppl=args.ppl,
            tol=args.tol,
            seed=args.seed,
            tau=args.tau,
        )
    except (ValidationError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
