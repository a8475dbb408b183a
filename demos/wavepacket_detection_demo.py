"""Filtering a single-photon wavepacket and detecting it in time.

A Gaussian spectral packet sent through a single resonant state is
filtered by T(omega); the transmitted pulse is delayed by the group
delay and its long-time detection probability equals the overlap
integral of |psi|^2 with |T|^2.  The click probability is monotone in
the detection window and saturates at that overlap.
"""

import numpy as np

from qnet import (
    Wavepacket,
    build_parallel,
    click_curve,
    click_probability,
    propagate_wavepacket,
    transmitted_fraction,
)


def delayed(packet, t0):
    """The same packet translated to arrive around time t0 < 0."""
    amp = packet.amplitudes * np.exp(1j * packet.grid.frequencies * t0)
    return Wavepacket(packet.grid, amp)


def main():
    net = build_parallel([0.0], [1.0], [1.0])  # bandwidth 2*1*1/(1+1) = 1

    for sigma in (0.2, 1.0):
        packet = delayed(Wavepacket.gaussian(0.0, sigma), -30.0)
        trace = propagate_wavepacket(net, packet)
        power = np.abs(trace.amplitudes) ** 2
        t_peak = trace.times[np.argmax(power)]
        limit = transmitted_fraction(net, packet)
        p = click_probability(net, packet, 60.0)
        print(f"sigma={sigma}: peak arrives at t={t_peak:+.2f} (sent at -30)")
        print(f"  long-window click probability {p:.6f} vs filtered norm {limit:.6f}")

    # narrow packets pass almost untouched; the curve shape shows the rise
    packet = delayed(Wavepacket.gaussian(0.0, 0.2), -30.0)
    taus, probs = click_curve(net, packet, 60.0)
    for tau in np.linspace(0.0, 60.0, 7):
        print(f"  P(window {tau:5.1f}) = {np.interp(tau, taus, probs):.6f}")


if __name__ == "__main__":
    main()
