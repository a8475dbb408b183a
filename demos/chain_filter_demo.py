"""Band-pass behavior of uniform resonator chains.

A chain of N identical states with nearest-neighbor coupling g acts as a
coupled-resonator filter.  At the critical coupling g = sqrt(gamma*Gamma)/2
the passband is maximally flat; over-coupling splits it into ripples and
under-coupling narrows it.  Strong coupling (g >> critical) spreads the
N chain modes into a frequency comb across (-2g, 2g).
"""

import os

import numpy as np

from qnet import (
    SweepGrid,
    bandwidth_grid,
    find_unity_peaks,
    parse_network_file,
    spectral_bandwidth,
    sweep,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def load(name):
    return parse_network_file(os.path.join(HERE, "networks", name))


def main():
    for name in (
        "chain_critical_five.json",
        "chain_over_coupled_four.json",
        "chain_under_coupled_four.json",
    ):
        net = load(name)
        resp = sweep(net, SweepGrid.for_network(net, points_per_linewidth=200))
        peaks = find_unity_peaks(resp, tol=1e-6)
        gb = spectral_bandwidth(sweep(net, bandwidth_grid(net)))
        print(f"{name}: {len(peaks)} perfect-transmission points, bandwidth {gb:.4f}")

    # the strong-coupling comb: count deep dips between the first few peaks
    net = load("comb_seventy_strong.json")
    g = net.coupling[0, 1]
    grid = SweepGrid.linspace(-2 * g, 2 * g, 20001)
    t2 = np.abs(sweep(net, grid).transmission()) ** 2
    dips = np.sum((t2[1:-1] < t2[:-2]) & (t2[1:-1] < t2[2:]) & (t2[1:-1] < 0.05))
    print(f"comb_seventy_strong.json: band edges +-{2 * g:.0f}, deep grid dips: {dips}")

    # bandwidth of a chain never exceeds the single-state value
    single = load("single_state.json")
    gb1 = spectral_bandwidth(sweep(single, bandwidth_grid(single)))
    print(f"single-state bandwidth bound: {gb1:.4f}")


if __name__ == "__main__":
    main()
