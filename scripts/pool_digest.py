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

``--dump FILE`` also writes one JSON line per instance: its workload, seed
and index, the ``certify`` JSON and the LP outcome.  ``--against FILE``
compares this run's lines with such a dump, field by field: every string,
bool, integer and None must be equal and every float within ``--atol``
(default 0).  It prints the largest move of each field and exits 1 on a
mismatch, so two commits whose outputs differ only in the last digits can
be told apart from two that disagree.

    python scripts/pool_digest.py --seeds 1 2 3 4
    python scripts/pool_digest.py --dump old.jsonl            # on one commit
    python scripts/pool_digest.py --against old.jsonl --atol 1e-14  # on another
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

LP_FIELDS = ("feasible", "relative", "residual", "iterations", "member_weights")


def lp_stage(state, protocol) -> tuple[bytes, tuple | str]:
    """The LP stage's program bytes, and its outcome: a tuple of ``LP_FIELDS`` or a message."""
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
        outcome = (result.feasible, relative, result.residual, result.iterations, weights)
    return problem.a_eq.tobytes() + problem.b_eq.tobytes(), outcome


def run(name: str, seeds: list[int], count: int | None, h, records: list[dict]) -> None:
    """Feed the workload's pool outputs to ``h`` and append one record per instance."""
    workload = WORKLOADS[name]
    for seed in seeds:
        for index, inst in enumerate(workload.pool(seed)[:count]):
            state, protocol = build_state(inst), build_protocol(inst)
            try:
                report = certify(state, protocol, lp=workload.lp)
            except SolverLimitError as exc:
                certified = f"undecided {exc}"
                h.update(certified.encode())
            else:
                certified = report.to_json_dict()
                h.update(json.dumps(certified, sort_keys=True).encode())
            lp = None
            if workload.lp:
                program, outcome = lp_stage(state, protocol)
                text = outcome if isinstance(outcome, str) else repr(outcome)
                h.update(program + text.encode())
                lp = outcome if isinstance(outcome, str) else dict(zip(LP_FIELDS, outcome))
            records.append(
                {"workload": name, "seed": seed, "index": index, "certify": certified, "lp": lp}
            )


def walk(old, new, path: str, atol: float, moves: dict, bad: dict) -> None:
    """Record, per field, the largest float move and the count of mismatches.

    A field is a JSON path with list indices written ``[]``, so all
    outcomes of all instances share one entry per key.
    """
    if type(old) is float and type(new) is float:
        move = abs(new - old)
        moves[path] = max(moves.get(path, 0.0), move)
        mismatched = not move <= atol
    elif type(old) is not type(new):
        mismatched = True
    elif isinstance(old, dict):
        mismatched = old.keys() != new.keys()
        for key in old.keys() & new.keys():
            walk(old[key], new[key], f"{path}.{key}", atol, moves, bad)
    elif isinstance(old, list):
        mismatched = len(old) != len(new)
        for a, b in zip(old, new):
            walk(a, b, f"{path}[]", atol, moves, bad)
    else:
        mismatched = old != new
    bad[path] = bad.get(path, 0) + mismatched


def compare(old: list[dict], new: list[dict], atol: float) -> bool:
    """Print each float field's largest move and every mismatched field; True when none is."""
    keyed = {(r["workload"], r["seed"], r["index"]): r for r in old}
    moves: dict[str, float] = {}
    bad: dict[str, int] = {}
    matched = 0
    for record in new:
        key = (record["workload"], record["seed"], record["index"])
        if key in keyed:
            matched += 1
            walk(keyed.pop(key), record, "", atol, moves, bad)
    unmatched = len(keyed) + len(new) - matched
    print(f"compared {matched} instances with atol {atol:g}, {unmatched} unmatched")
    for path in sorted(moves.keys() | {p for p, n in bad.items() if n}):
        move = f"largest move {moves[path]:.3g}" if path in moves else "exact field"
        print(f"  {path.lstrip('.') or '(record)':40s} {move:22s} {bad[path]} mismatched")
    return unmatched == 0 and not any(bad.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--count", type=int, default=None,
                        help="instances per pool, from index 0 (default: the whole pool)")
    parser.add_argument("--dump", type=Path, help="write one JSON line per instance here")
    parser.add_argument("--against", type=Path, help="compare with a dump written by --dump")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="largest float move --against accepts (default 0)")
    args = parser.parse_args()
    records: list[dict] = []
    for name in WORKLOADS:
        h = hashlib.sha256()
        run(name, args.seeds, args.count, h, records)
        print(f"{name} {h.hexdigest()}")
    if args.dump is not None:
        args.dump.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    if args.against is not None:
        old = [json.loads(line) for line in args.against.read_text().splitlines()]
        # read this run's records back from JSON too, so both sides hold the same types
        if not compare(old, json.loads(json.dumps(records)), args.atol):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
