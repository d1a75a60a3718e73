#!/usr/bin/env python3
"""Probe the 2^(M-1) rank ceiling for paradox states under paired settings.

For each (n_qubits, alice_qubits) cell the script draws random maximal-rank
families, certifies them against a shared-family protocol with two distinct
rotation angles, then appends one extra component on an occupied slot and
shows the verdict flip.  A final sweep over unstructured mixed states shows
the ceiling is not an artifact of the construction: above the ceiling the
paradox never appears.
"""

import argparse

import numpy as np

from steerlab import (
    BellLikeBasis,
    SteeringProtocol,
    add_shared_slot_component,
    bell_like_setting,
    certify,
    computational_family,
    density_of,
    max_rank_family,
    random_mixed,
    random_rank1_setting,
    rank_bound_check,
    settings_equal,
)


def paired_protocol(m: int, n: int, beta_1: float, beta_2: float) -> SteeringProtocol:
    family = computational_family(m)
    return SteeringProtocol(
        alice_qubits=m,
        setting_1=bell_like_setting(BellLikeBasis(beta_1, family, family_label="computational")),
        setting_2=bell_like_setting(BellLikeBasis(beta_2, family, family_label="computational")),
        n_qubits=n,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--beta-1", type=float, default=0.3)
    parser.add_argument("--beta-2", type=float, default=1.1)
    parser.add_argument("--sweep-count", type=int, default=100,
                        help="unstructured states per cell for the ceiling check")
    args = parser.parse_args()

    cells = [(2, 1), (3, 1), (3, 2), (4, 2)]
    print(f"{'n':>2} {'m':>2} {'bound':>5} {'rank ok':>8} {'paradox':>8} {'flipped':>8}")
    for n, m in cells:
        protocol = paired_protocol(m, n, args.beta_1, args.beta_2)
        bound = 2 ** (m - 1)
        rank_ok = paradox = flipped = 0
        for seed in range(args.seeds):
            ensemble = max_rank_family(n, m, seed)
            rank_ok += rank_bound_check(density_of(ensemble), protocol).rank == bound
            paradox += certify(ensemble, protocol).verdict == "PARADOX"
            widened = add_shared_slot_component(ensemble, m, seed)
            flipped += certify(widened, protocol).verdict != "PARADOX"
        print(f"{n:>2} {m:>2} {bound:>5} {rank_ok:>5}/{args.seeds} "
              f"{paradox:>5}/{args.seeds} {flipped:>5}/{args.seeds}")

    print()
    print(f"unstructured rank-2 two-qubit states, random protocols "
          f"(count={args.sweep_count}):")
    hits = 0
    for i in range(args.sweep_count):
        state = random_mixed(2, 2, i)
        rng = np.random.default_rng([7, i])
        s1 = random_rank1_setting(1, rng, label="r1")
        s2 = random_rank1_setting(1, rng, label="r2")
        while settings_equal(s1, s2):
            s2 = random_rank1_setting(1, rng, label="r2")
        protocol = SteeringProtocol(alice_qubits=1, setting_1=s1, setting_2=s2)
        hits += certify(state, protocol).verdict == "PARADOX"
    print(f"  paradox count: {hits}")


if __name__ == "__main__":
    main()
