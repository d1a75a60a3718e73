#!/usr/bin/env python3
"""Time ``certify`` on the size ladder of ROADMAP aim 1, one rung per line.

Each rung (n, M) certifies one instance: a Haar-random pure state on n
qubits, given as a one-term ensemble, under two Haar-random rank-1 settings
on Alice's M qubits, both drawn from a generator seeded with (n, M).  The
time is the best of three calls; the peak is the largest traced allocation
(``tracemalloc``) of one further call, made after the timed ones.  BLAS
runs on one thread.  ``--max-n`` skips the rungs with more qubits.  The
LP rungs never build the program's constraint matrix, so the largest, (9, 4),
peaks near 27 MB.

    python scripts/ladder.py --max-n 8
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from steerlab import (  # noqa: E402
    EnsembleState,
    SteeringProtocol,
    certify,
    random_pure,
    random_rank1_setting,
)

# (lp, n, M) per rung, in the order of ROADMAP's ladder table
RUNGS = (
    (False, 8, 4), (False, 10, 5), (False, 12, 6),
    (True, 4, 2), (True, 5, 2), (True, 6, 3), (True, 7, 3), (True, 8, 4), (True, 9, 4),
)
REPEATS = 3


def instance(n: int, m: int) -> tuple[EnsembleState, SteeringProtocol]:
    rng = np.random.default_rng([n, m])
    state = EnsembleState(n, (1.0,), (random_pure(n, int(rng.integers(2**32))),))
    settings = [random_rank1_setting(m, rng, label=f"haar-{k}") for k in (1, 2)]
    return state, SteeringProtocol(alice_qubits=m, setting_1=settings[0], setting_2=settings[1])


def measure(lp: bool, n: int, m: int) -> tuple[float, int]:
    """(best seconds, traced peak bytes) of ``certify`` on the rung's instance."""
    state, protocol = instance(n, m)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        certify(state, protocol, lp=lp)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    certify(state, protocol, lp=lp)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return best, peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=None,
                        help="run only the rungs with at most this many qubits")
    args = parser.parse_args()
    print(f"certify, best of {REPEATS}, 1 BLAS thread; peak from tracemalloc")
    for lp, n, m in RUNGS:
        if args.max_n is not None and n > args.max_n:
            continue
        seconds, peak = measure(lp, n, m)
        call = "certify(lp=True)" if lp else "certify"
        print(f"{call:17s} ({n:2d}, {m}) {1e3 * seconds:10.2f} ms {peak / 2**20:9.1f} MB peak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
