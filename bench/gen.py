"""Seeded input generator for the qnet benchmark.

Every input a workload hands to qnet is produced here from the workload
seed, so the same seed always yields byte-identical files.  The seed moves
values (resonances, rates, couplings, packet centres and widths), never
sizes or topologies, so that runs with different seeds do the same amount
of work.

    PYTHONPATH=src python3 bench/gen.py --seed 7 --out bench/_work/inputs-7
"""

from __future__ import annotations

import argparse
import json
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos" / "networks"

# sweep-large workload: dense general networks with one side channel;
# F is chosen so each sweep takes about 0.3 s with two sweep threads
LARGE_SHAPES = ((50, 6000), (100, 2000), (200, 400))
# resonances of the cli workload's generated design chain.  They are fixed:
# tune's cost on such chains swings 0.5-4 s with the detunings and up to
# 5x with the tuner seed, which would swamp the run-to-run spread; this
# instance converges in two starts, 1.6 s, for any tuner seed.
DESIGN_CHAIN_OMEGAS = (0.005838254090777983, 0.10574431608495205, 0.8130677292075226,
                       1.4873313126556544)
# wavepacket copies are made only of demos whose slowest pole decays at
# least this fast; slower poles make the packet grid needlessly narrow
MIN_PACKET_DECAY = 0.05


def _doc(kind, **fields):
    return {"schema_version": 1, "type": kind, **fields}


def _floats(a):
    return [float(x) for x in np.asarray(a, float).ravel()]


def _spread(rng, lo, hi, n):
    """n draws from [lo, hi] with the first pinned to lo and the last to hi,
    so every seed gives the same resonance span and smallest rate."""
    x = rng.uniform(lo, hi, n)
    x[0], x[-1] = lo, hi
    return x


def general_doc(rng, n):
    """Dense symmetric coupling, every state on both ports plus one side
    channel; state 0 carries the smallest rates."""
    om = rng.permutation(_spread(rng, -2.0 * n, 2.0 * n, n))
    g = rng.uniform(-0.3, 0.3, (n, n))
    g = np.triu(g, 1)
    g = g + g.T
    return _doc(
        "general", omegas=_floats(om), g=[_floats(r) for r in g],
        gammas=_floats(_spread(rng, 0.2, 1.0, n)), Gammas=_floats(_spread(rng, 0.2, 1.0, n)),
        mus=[_floats(_spread(rng, 0.01, 0.1, n))],
    )


def design_chain_doc():
    """Detuned 4-state chain from the statistical test's family: free chain
    couplings plus the last output decay, target n-1 unity peaks."""
    n = len(DESIGN_CHAIN_OMEGAS)
    doc = _doc("series", omegas=list(DESIGN_CHAIN_OMEGAS), gamma=1.0, Gamma=2.0,
               g=[0.7] * (n - 1))
    free = [["g", i, i + 1] for i in range(n - 1)] + [["Gamma", n - 1]]
    doc["design"] = {"free": free, "bounds": [[0.02, 20.0]] * len(free),
                     "target": ["count", n - 1]}
    return doc


def slowest_decay(doc):
    """Smallest decay rate Re(lambda) over the network's poles."""
    from qnet.cli import parse_network_document
    from qnet.netcore import HybridSpec, lower_hybrid

    spec = parse_network_document(doc)
    net = lower_hybrid(spec) if isinstance(spec, HybridSpec) else spec
    K = np.sqrt(np.array([net.input_decays, net.output_decays, *net.side_decays]))
    M = 0.5 * K.T @ K + 1j * net.coupling + 1j * np.diag(net.resonances)
    return float(np.min(np.linalg.eigvals(M).real))


def wavepacket_block(rng, doc, slowest):
    """Seeded Gaussian packet centred inside the network's band, starting at
    t0 = -tau/2 for a POVM window tau = 40/sigma.  sigma stays below the
    slowest pole's decay rate, so that pole empties well inside both the
    POVM window and the CLI's +-30/sigma wavepacket window."""
    om = doc_resonances(doc)
    sigma = float(rng.uniform(0.5, 0.9) * min(slowest, 1.0))
    center = float(np.mean(om) + rng.uniform(-2.0, 2.0) * sigma)
    tau = 40.0 / sigma
    return {"center": center, "sigma": sigma, "t0": -tau / 2.0, "points": 2001}, tau


def doc_resonances(doc):
    if doc["type"] == "hybrid":
        return np.concatenate([np.asarray(m, float) for m in doc["manifolds"]])
    return np.asarray(doc["omegas"], float)


def generate(seed: int) -> dict:
    """All inputs for one seed: {relative file name: JSON document}."""
    rng = np.random.default_rng([seed, 0x9E3779B9])
    files = {}
    # cli: every demo verbatim, plus seeded wavepacket copies
    for path in sorted(DEMOS.glob("*.json")):
        doc = json.loads(path.read_text())
        files[f"cli/{path.name}"] = doc
    for path in sorted(DEMOS.glob("*.json")):
        doc = dict(files[f"cli/{path.name}"])
        slowest = slowest_decay(doc)
        if slowest < MIN_PACKET_DECAY:
            continue
        block, tau = wavepacket_block(rng, doc, slowest)
        doc["wavepacket"] = block
        doc["bench_tau"] = tau
        files[f"cli/wp_{path.name}"] = doc
    # sweep-large
    for n, f in LARGE_SHAPES:
        doc = general_doc(rng, n)
        doc["bench_points"] = f
        files[f"sweep-large/general-{n}.json"] = doc
    files["cli/design_chain_four.json"] = design_chain_doc()
    return files


def write(seed: int, out: pathlib.Path) -> list:
    """Write every input for ``seed`` under ``out``; returns the paths."""
    paths = []
    for rel, doc in generate(seed).items():
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    args = ap.parse_args(argv)
    for p in write(args.seed, args.out):
        print(p)


if __name__ == "__main__":
    main()
