"""Designing couplings for perfect transmission.

Two routes to |T|^2 = 1: the closed-form rule for a detuned two-state
chain with unequal decays, and the numerical tuner for larger chains
where no closed form exists.
"""

import os

import numpy as np

from qnet import (
    DesignProblem,
    apply_parameters,
    build_series,
    detuned_pair,
    parse_network_file,
    smatrix,
    tune,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    # closed form: pick the coupling that makes a detuned pair transparent
    gamma, Gamma = 1.0, 2.0
    w1, w2 = 0.0, 0.75
    omega, g = detuned_pair(gamma, Gamma, w1, w2)
    net = build_series([w1, w2], gamma, Gamma, [g])
    t2 = abs(smatrix(net, omega)[1, 0]) ** 2
    print(f"detuned pair: g = {g:.6f}, |T({omega:+.4f})|^2 = {t2:.12f}")

    # numerical route: free both couplings of a three-state chain and ask
    # for three perfect-transmission frequencies
    doc = parse_network_file(os.path.join(HERE, "networks", "design_chain_three.json"))
    problem = DesignProblem(
        base=doc,
        free=(("g", 0, 1), ("g", 1, 2)),
        bounds=((0.05, 10.0), (0.05, 10.0)),
        target=("count", 3),
    )
    result = tune(problem)
    print(f"three-state tune: converged={result.converged}, objective={result.objective:.2e}")
    for item, value in result.parameters.items():
        print(f"  {item}: {value:.6f}")
    # adding 0.0 turns a rounded -0.0 into 0.0
    print(f"  transmission frequencies: {np.round(result.achieved_frequencies, 6) + 0.0}")

    # with balanced decays and no detuning, every equal pair g_01 = g_12
    # above sqrt(gamma*Gamma/8) gives three unity peaks: the critical value
    # sqrt(gamma*Gamma)/2 is one member of that family, and the tuner may
    # land on any other
    tuned = apply_parameters(doc, problem.free, list(result.parameters.values()))
    print(f"  critical coupling for comparison: {np.sqrt(1.0 * 1.0) / 2:.6f}")
    print(f"  tuned coupling matrix diagonal+1: {np.round(np.diag(tuned.coupling, 1), 6)}")


if __name__ == "__main__":
    main()
