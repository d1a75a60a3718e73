#!/usr/bin/env python3
"""Print best-of-k milliseconds per operation for each stage of a benchmark pool.

The pool is a benchmark workload's, rebuilt from ``bench/workloads.py``.
Rows starting ``density.`` time the passes a ``DensityMatrix`` runs on
construction (skipped when the pool holds no density matrix):
``density.low_rank_psd`` is the pivot loop and the whole remainder, which
accepts the matrix on its own factor; ``density.copy`` the kept copy;
``density.fallback_hermiticity`` the Hermiticity pass, which runs, before
the full Cholesky factor, only on instances that keep no factor; rows starting
``protocol.`` time ``build_protocol``'s library calls: both
``MeasurementSetting``s from the instance's projector and vector tuples,
then the ``SteeringProtocol`` (its check that the settings differ); rows
starting ``certify.`` time the stages ``certify`` runs, one after another,
on fresh inputs each repeat: the joint contraction of both settings, the
joint validation, then the purity check and principal vectors, each read
once for both sets; ``op`` is the benchmark's timed operation.
A density pool's header also counts the instances on each of the
``DensityMatrix``'s two acceptance paths: its own low-rank factor, which
``certify`` then contracts in place of the matrix, or the full Cholesky
factor.  ``certify.principal_vectors`` times only the instances whose
counted conditional states are all pure, the only ones whose vectors
``certify`` reads, and adds nothing for the others; ``certify.duplicates``
includes it.
Each row is the fastest of ``--repeats`` passes over the pool, divided by
the pool size.  BLAS runs on one thread, as in the benchmark.

    python scripts/density_stages.py --workload density-large --seed 21
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import numpy as np  # noqa: E402
from workloads import WORKLOADS, build_protocol, build_state, run_op  # noqa: E402

from steerlab import (  # noqa: E402
    DensityMatrix,
    MeasurementSetting,
    SteeringProtocol,
    bob_marginal,
    certify,
    config,
    measurement_requirement,
    purity_requirement,
)
from steerlab.linalg import hermiticity_residuals  # noqa: E402
from steerlab.states import _low_rank_psd  # noqa: E402
from steerlab.steering import _unvalidated_states, _validate, _validated_states  # noqa: E402


def raw_settings(inst):
    """``build_protocol``'s constructor arguments for both settings; its
    ``np.outer`` calls run here, outside the timed span."""
    m = inst.alice_qubits
    outcomes = tuple(format(i, f"0{m}b") for i in range(2**m))
    return [
        (f"setting-{k}", m, outcomes, tuple(np.outer(v, v.conj()) for v in vecs), tuple(vecs))
        for k, vecs in enumerate(inst.settings, start=1)
    ]


def settings(raw):
    return [MeasurementSetting(*args) for args in raw]


def unvalidated_sets(state, protocol):
    # certify's one joint contraction of both settings
    return _unvalidated_states(state, protocol, (1, 2))


def validated_sets(state, protocol):
    return _validated_states(state, protocol, (1, 2))


def pure_sets(state, protocol):
    # certify reads principal vectors only when every counted state is pure;
    # other instances time nothing in that row
    sets = validated_sets(state, protocol)
    return sets if purity_requirement(*sets).ok else ()


def principal_vectors(*sets):
    # the first read computes both sets' vectors in one pass
    for cs in sets:
        cs.principal_vectors


def duplicates(set1, set2):
    # certify looks for coincidences only when every counted state is pure
    if purity_requirement(set1, set2).ok:
        measurement_requirement(set1, set2)


def stages(lp):
    """(name, prepare, run): ``prepare`` turns (instance, state, protocol) into
    the arguments of ``run``, outside the timed span."""
    return (
        ("density.low_rank_psd", lambda i, s, p: (i.matrix, config.ZERO_FLOOR), _low_rank_psd),
        ("density.copy", lambda i, s, p: (i.matrix,), np.copy),
        ("density.fallback_hermiticity", lambda i, s, p: (i.matrix,), hermiticity_residuals),
        ("density.construct", lambda i, s, p: (i.n_qubits, i.matrix), DensityMatrix),
        ("protocol.settings", lambda i, s, p: (raw_settings(i),), settings),
        (
            "protocol.equality",
            lambda i, s, p: (i.alice_qubits, *settings(raw_settings(i)), i.n_qubits),
            SteeringProtocol,
        ),
        ("certify.bob_marginal", lambda i, s, p: (s, p.alice_qubits), bob_marginal),
        ("certify.conditional", lambda i, s, p: (s, p), unvalidated_sets),
        (
            "certify.validate",
            lambda i, s, p: (unvalidated_sets(s, p), bob_marginal(s, p.alice_qubits)),
            _validate,
        ),
        ("certify.purity", lambda i, s, p: validated_sets(s, p), purity_requirement),
        ("certify.principal_vectors", lambda i, s, p: pure_sets(s, p), principal_vectors),
        ("certify.duplicates", lambda i, s, p: validated_sets(s, p), duplicates),
        ("certify.total", lambda i, s, p: (s, p), certify),
        ("op", lambda i, s, p: (i, lp), run_op),
    )


def best_ms(prepare, run, inputs, repeats):
    best = float("inf")
    for _ in range(repeats):
        args = [prepare(*x) for x in inputs]
        start = time.perf_counter()
        for a in args:
            run(*a)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best / len(inputs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="density-large")
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--count", type=int, default=None,
                        help="instances of the pool, from index 0 (default: the whole pool)")
    parser.add_argument("--repeats", type=int, default=5, help="passes per stage (k)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    pool = workload.pool(args.seed)[: args.count]
    inputs = [(inst, build_state(inst), build_protocol(inst)) for inst in pool]
    print(f"{args.workload} seed {args.seed}: {len(pool)} instances, "
          f"best of {args.repeats}, ms per operation")
    dense = all(inst.matrix is not None for inst in pool)
    if dense:
        kept = sum(state.factor is not None for _, state, _ in inputs)
        print(f"low-rank factor on {kept} of {len(pool)}; full factor on {len(pool) - kept}")
    for name, prepare, run in stages(workload.lp):
        if name.startswith("density.") and not dense:
            continue
        print(f"{name:30s} {best_ms(prepare, run, inputs, args.repeats):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
