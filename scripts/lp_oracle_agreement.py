#!/usr/bin/env python3
"""Check the LHS feasibility oracle against HiGHS on the benchmark's lp-oracle pools.

Each pool instance is rebuilt from its (seed, index) pair by
``bench/workloads.py`` and turned into the program the benchmark's LP stage
solves (conditional states of the dense state, ``problem_for`` with default
tolerances).  ``solve_feasibility`` decides it, and so does
``scipy.optimize.linprog`` with HiGHS.  The script prints, per seed and in
total: the verdicts that disagree, the undecided solves, the largest
``verify_model`` residual of a feasible model, the smallest
``verify_certificate`` margin of an infeasible verdict, the smallest
infeasible residual, the most iterations, the largest ratio of iterations
to columns (the default cap allows 3) and the total solve time.  It
exits 1 if any verdict disagrees or is undecided, a model misses by more
than 1e-8, or a certificate margin is not positive.

    python scripts/lp_oracle_agreement.py --seeds 1 2 3 4
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import scipy.optimize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, build_protocol, build_state  # noqa: E402

from steerlab import (  # noqa: E402
    EnsembleState,
    SolverLimitError,
    conditional_states,
    density_of,
    problem_for,
    solve_feasibility,
    verify_certificate,
    verify_model,
)

MODEL_TOL = 1e-8


def highs_feasible(problem) -> bool:
    lp = scipy.optimize.linprog(
        c=np.zeros(problem.n_variables),
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=(0, None),
        method="highs",
    )
    if lp.status not in (0, 2):
        raise RuntimeError(f"HiGHS gave no verdict: {lp.message}")
    return lp.status == 0


def check_seed(seed: int, count: int | None) -> dict:
    pool = WORKLOADS["lp-oracle"].pool(seed)[:count]
    tally = {
        "instances": len(pool), "feasible": 0, "infeasible": 0, "undecided": [],
        "disagreements": [], "worst_model": 0.0, "least_margin": np.inf,
        "least_infeasible_residual": np.inf, "most_iterations": 0, "most_per_column": 0.0,
        "solve_s": 0.0,
    }
    for inst in pool:
        state, protocol = build_state(inst), build_protocol(inst)
        rho = density_of(state) if isinstance(state, EnsembleState) else state
        set1, set2 = conditional_states(rho, protocol, 1), conditional_states(rho, protocol, 2)
        problem, _ = problem_for(set1, set2)
        start = time.perf_counter()
        try:
            result = solve_feasibility(problem)
        except SolverLimitError as exc:
            tally["solve_s"] += time.perf_counter() - start
            tally["undecided"].append((inst.index, str(exc)))
            continue
        tally["solve_s"] += time.perf_counter() - start
        tally["most_iterations"] = max(tally["most_iterations"], result.iterations)
        tally["most_per_column"] = max(
            tally["most_per_column"], result.iterations / problem.n_variables
        )
        if result.feasible != highs_feasible(problem):
            tally["disagreements"].append(inst.index)
        if result.feasible:
            tally["feasible"] += 1
            tally["worst_model"] = max(tally["worst_model"], verify_model(result.model, set1, set2))
        else:
            tally["infeasible"] += 1
            margin = verify_certificate(problem, result.certificate)
            tally["least_margin"] = min(tally["least_margin"], margin)
            tally["least_infeasible_residual"] = min(
                tally["least_infeasible_residual"], result.residual
            )
    return tally


def report(name: str, t: dict) -> None:
    print(
        f"{name}: {t['instances']} instances, {t['feasible']} feasible, "
        f"{t['infeasible']} infeasible, {len(t['undecided'])} undecided, "
        f"{len(t['disagreements'])} disagreements with HiGHS"
    )
    print(
        f"  worst feasible verify_model {t['worst_model']:.3g}, "
        f"smallest certificate margin {t['least_margin']:.12g}, "
        f"smallest infeasible residual {t['least_infeasible_residual']:.3g}, "
        f"most iterations {t['most_iterations']} "
        f"({t['most_per_column']:.2f} per column), solve time {t['solve_s']:.3f} s"
    )
    for index in t["disagreements"]:
        print(f"  disagreement at index {index}")
    for index, message in t["undecided"]:
        print(f"  undecided at index {index}: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--count", type=int, default=None,
                        help="instances per pool, from index 0 (default: the whole pool)")
    args = parser.parse_args()
    tallies = []
    for seed in args.seeds:
        tally = check_seed(seed, args.count)
        report(f"seed {seed}", tally)
        tallies.append(tally)
    total = {
        "instances": sum(t["instances"] for t in tallies),
        "feasible": sum(t["feasible"] for t in tallies),
        "infeasible": sum(t["infeasible"] for t in tallies),
        "undecided": [u for t in tallies for u in t["undecided"]],
        "disagreements": [d for t in tallies for d in t["disagreements"]],
        "worst_model": max(t["worst_model"] for t in tallies),
        "least_margin": min(t["least_margin"] for t in tallies),
        "least_infeasible_residual": min(t["least_infeasible_residual"] for t in tallies),
        "most_iterations": max(t["most_iterations"] for t in tallies),
        "most_per_column": max(t["most_per_column"] for t in tallies),
        "solve_s": sum(t["solve_s"] for t in tallies),
    }
    if len(tallies) > 1:
        report("total", {**total, "undecided": [], "disagreements": []})
    ok = (
        not total["disagreements"]
        and not total["undecided"]
        and total["worst_model"] <= MODEL_TOL
        and total["least_margin"] > 0.0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
