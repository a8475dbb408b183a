"""Transmission spectra of small networks, from description files.

Loads the bundled single-state and four-state parallel examples, sweeps
them, and prints the peak structure: a lone state transmits at most
4*gamma*Gamma/(gamma+Gamma)^2 on resonance, while a parallel ladder with
proportional decays (Gamma_i = k*gamma_i) pins every peak at 4k/(k+1)^2
and interleaves N-1 exact transmission zeros between the resonances.
"""

import os

import numpy as np

from qnet import (
    SweepGrid,
    find_reflection_zeros,
    find_unity_peaks,
    parse_network_file,
    sweep,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def describe(path):
    net = parse_network_file(os.path.join(HERE, "networks", path))
    resp = sweep(net, SweepGrid.for_network(net, points_per_linewidth=200))
    t2 = np.abs(resp.transmission()) ** 2
    print(f"{path}:")
    print(f"  states: {net.size}, peak |T|^2 on grid: {t2.max():.6f}")
    peaks = find_unity_peaks(resp, tol=1e-3)
    print(f"  near-unity peaks: {np.round(peaks, 4)}")
    if net.size > 1 and np.all(net.coupling == 0):
        zeros = find_reflection_zeros(net)
        print(f"  transmission zeros: {np.round(zeros, 4)}")
    print()


def main():
    for path in (
        "single_state.json",
        "parallel_ladder_balanced.json",
        "parallel_ladder_half.json",
        "parallel_balanced_five.json",
    ):
        describe(path)

    # the k = 1/2 ladder peaks at exactly 4k/(k+1)^2 = 8/9
    k = 0.5
    print(f"proportional-decay ceiling 4k/(k+1)^2 at k={k}: {4 * k / (k + 1) ** 2:.6f}")


if __name__ == "__main__":
    main()
