#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload over everything its pools output.

Each pool instance is rebuilt from its (seed, index) pair by
``bench/workloads.py``.  The digest covers, per instance, the sorted
``certify`` JSON (``lp=True`` on ``lp-oracle``; the SolverLimitError message
when it raises) and, on ``lp-oracle``, the bytes of the benchmark LP
stage's ``a_eq`` and ``b_eq`` (``problem_for`` on the dense state's
conditional sets) and the outcome of
``solve_feasibility(max_iter=LP_PIVOT_BUDGET)``: the verdict, residual,
iteration count and member weights, or the SolverLimitError message.  Two
commits that print the same lines give byte-identical outputs on the pools.

    python scripts/pool_digest.py --seeds 1 2 3 4
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import LP_PIVOT_BUDGET, WORKLOADS, build_protocol, build_state  # noqa: E402

from steerlab import (  # noqa: E402
    EnsembleState,
    SolverLimitError,
    certify,
    conditional_states,
    density_of,
    problem_for,
    solve_feasibility,
)


def lp_outcome(state, protocol) -> bytes:
    rho = density_of(state) if isinstance(state, EnsembleState) else state
    problem, relative = problem_for(
        conditional_states(rho, protocol, 1), conditional_states(rho, protocol, 2)
    )
    try:
        result = solve_feasibility(problem, max_iter=LP_PIVOT_BUDGET)
    except SolverLimitError as exc:
        outcome = f"undecided {exc}"
    else:
        weights = result.model.member_weights if result.feasible else ()
        outcome = repr((result.feasible, relative, result.residual, result.iterations, weights))
    return problem.a_eq.tobytes() + problem.b_eq.tobytes() + outcome.encode()


def digest(name: str, seeds: list[int], count: int | None) -> str:
    workload = WORKLOADS[name]
    h = hashlib.sha256()
    for seed in seeds:
        for inst in workload.pool(seed)[:count]:
            state, protocol = build_state(inst), build_protocol(inst)
            try:
                report = certify(state, protocol, lp=workload.lp)
            except SolverLimitError as exc:
                h.update(f"undecided {exc}".encode())
            else:
                h.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
            if workload.lp:
                h.update(lp_outcome(state, protocol))
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--count", type=int, default=None,
                        help="instances per pool, from index 0 (default: the whole pool)")
    args = parser.parse_args()
    for name in WORKLOADS:
        print(f"{name} {digest(name, args.seeds, args.count)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
