"""Command line front end: demo, check, sweep and lhs subcommands.

Exit codes: 0 when the requested run completed (whatever the verdict), 2 for
any input problem (bad flags, malformed or mismatched documents), 3 when the
feasibility solver hit its iteration cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import lhs_lp
from .config import Tolerances
from .errors import DimensionError, SolverLimitError, SteerlabError
from .measurements import (
    SteeringProtocol,
    load_protocol,
    random_rank1_setting,
    settings_equal,
    tensor_protocol,
)
from .states import (
    DensityMatrix,
    EnsembleState,
    basis_ket,
    density_of,
    lc4_mixed,
    load_state,
    two_qubit_theta_state,
    random_mixed,
)
from .steering import (
    NO_PARADOX_CROSS_DUPLICATE,
    NO_PARADOX_PURITY,
    PARADOX,
    ConditionalStateSet,
    ParadoxReport,
    certify,
    conditional_states,
)

DEMO_NAMES = ("two-qubit", "lc4", "product")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerlab",
        description="Certify the two-setting 2-vs-1 steering gap for N-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the purity and phase-coincidence thresholds")

    p_demo = sub.add_parser("demo", help="run a built-in state and protocol")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--theta", type=float, default=math.pi / 4,
                        help="mixing angle in radians (two-qubit and lc4 demos)")
    p_demo.add_argument("--lp", action="store_true",
                        help="also run the independent feasibility oracle")
    add_common(p_demo)

    p_check = sub.add_parser("check", help="certify a state file against a protocol file")
    p_check.add_argument("--state", type=Path, required=True)
    p_check.add_argument("--protocol", type=Path, required=True)
    p_check.add_argument("--lp", action="store_true",
                         help="also run the independent feasibility oracle")
    p_check.add_argument("--dump-lp", type=Path, default=None,
                         help="write the assembled feasibility program as JSON")
    add_common(p_check)

    p_sweep = sub.add_parser("sweep", help="certify a batch of random states")
    p_sweep.add_argument("--n-qubits", type=int, default=2)
    p_sweep.add_argument("--alice-qubits", type=int, default=1)
    p_sweep.add_argument("--rank", type=int, default=1)
    p_sweep.add_argument("--count", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--protocol", type=Path, default=None,
                         help="fixed protocol file; omitted means fresh random settings per sample")
    add_common(p_sweep)

    p_lhs = sub.add_parser("lhs", help="run the feasibility oracle on its own")
    p_lhs.add_argument("--state", type=Path, required=True)
    p_lhs.add_argument("--protocol", type=Path, required=True)
    p_lhs.add_argument("--dump-lp", type=Path, default=None,
                       help="write the assembled feasibility program as JSON")
    add_common(p_lhs)
    return parser


def _tolerances(args: argparse.Namespace) -> Tolerances:
    if args.tolerance is None:
        return Tolerances()
    return Tolerances(purity=args.tolerance, phase=args.tolerance)


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_report(report: ParadoxReport, fmt: str) -> None:
    if fmt == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text(), end="")


def _demo_instance(args: argparse.Namespace) -> tuple[EnsembleState, SteeringProtocol]:
    if args.name == "two-qubit":
        return two_qubit_theta_state(args.theta), tensor_protocol("z", "x", n_qubits=2)
    if args.name == "lc4":
        return lc4_mixed(args.theta), tensor_protocol("zz", "yx", n_qubits=4)
    if args.name == "product":
        product = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        return product, tensor_protocol("z", "x", n_qubits=2)
    raise DimensionError(f"unknown demo {args.name!r}")


def cmd_demo(args: argparse.Namespace) -> int:
    state, protocol = _demo_instance(args)
    report = certify(state, protocol, lp=args.lp, tolerances=_tolerances(args))
    _emit_report(report, args.fmt)
    return 0


def _load_pair(
    args: argparse.Namespace,
) -> tuple[EnsembleState | DensityMatrix, SteeringProtocol]:
    state = load_state(args.state.read_text())
    protocol = load_protocol(args.protocol.read_text())
    if protocol.alice_qubits >= state.n_qubits:
        raise DimensionError(
            f"protocol measures {protocol.alice_qubits} qubits but the state only has "
            f"{state.n_qubits}; Bob needs at least one"
        )
    return state, protocol


def _lp_problem(
    state: EnsembleState | DensityMatrix, protocol: SteeringProtocol, tols: Tolerances
) -> tuple[ConditionalStateSet, ConditionalStateSet, lhs_lp.LpProblem, bool]:
    rho = density_of(state) if isinstance(state, EnsembleState) else state
    set1 = conditional_states(rho, protocol, 1, tols)
    set2 = conditional_states(rho, protocol, 2, tols)
    problem, relative = lhs_lp.problem_for(set1, set2, tolerances=tols)
    return set1, set2, problem, relative


def _write_lp(path: Path, problem: lhs_lp.LpProblem, relative: bool) -> None:
    doc = problem.to_json_dict()
    doc["relative"] = relative
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_check(args: argparse.Namespace) -> int:
    state, protocol = _load_pair(args)
    tols = _tolerances(args)
    report = certify(state, protocol, lp=args.lp, tolerances=tols)
    if args.dump_lp is not None:
        _, _, problem, relative = _lp_problem(state, protocol, tols)
        _write_lp(args.dump_lp, problem, relative)
    _emit_report(report, args.fmt)
    return 0


def _random_protocol(m_qubits: int, seed: int, index: int) -> SteeringProtocol:
    rng = np.random.default_rng([seed, index])
    s1 = random_rank1_setting(m_qubits, rng, label="random-1")
    s2 = random_rank1_setting(m_qubits, rng, label="random-2")
    while settings_equal(s1, s2):
        s2 = random_rank1_setting(m_qubits, rng, label="random-2")
    return SteeringProtocol(alice_qubits=m_qubits, setting_1=s1, setting_2=s2)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise DimensionError(f"count must be positive, got {args.count}")
    fixed = None
    if args.protocol is not None:
        fixed = load_protocol(args.protocol.read_text())
        if fixed.alice_qubits != args.alice_qubits:
            raise DimensionError(
                f"protocol measures {fixed.alice_qubits} qubits, sweep says {args.alice_qubits}"
            )
    if args.alice_qubits >= args.n_qubits:
        raise DimensionError(
            f"alice_qubits={args.alice_qubits} leaves Bob empty for n={args.n_qubits}"
        )
    tols = _tolerances(args)
    counts = {PARADOX: 0, NO_PARADOX_PURITY: 0, NO_PARADOX_CROSS_DUPLICATE: 0}
    samples = []
    for i in range(args.count):
        # per-sample determinism: the state takes seed+i, the protocol a
        # stream keyed on (seed, i) so the two never share draws
        state = random_mixed(args.n_qubits, args.rank, args.seed + i)
        protocol = fixed or _random_protocol(args.alice_qubits, args.seed, i)
        report = certify(state, protocol, tolerances=tols)
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        samples.append({"index": i, "seed": args.seed + i, "verdict": report.verdict})
    if args.fmt == "json":
        _emit_json(
            {
                "command": "sweep",
                "n_qubits": args.n_qubits,
                "alice_qubits": args.alice_qubits,
                "rank": args.rank,
                "count": args.count,
                "seed": args.seed,
                "protocol": "fixed" if fixed is not None else "random",
                "verdict_counts": counts,
                "samples": samples,
            }
        )
    else:
        print(
            f"sweep: n={args.n_qubits} alice={args.alice_qubits} rank={args.rank} "
            f"count={args.count} seed={args.seed} "
            f"protocol={'fixed' if fixed is not None else 'random'}"
        )
        for verdict in sorted(counts):
            print(f"  {verdict:<28} {counts[verdict]}")
    return 0


def cmd_lhs(args: argparse.Namespace) -> int:
    state, protocol = _load_pair(args)
    tols = _tolerances(args)
    set1, set2, problem, relative = _lp_problem(state, protocol, tols)
    if args.dump_lp is not None:
        _write_lp(args.dump_lp, problem, relative)
    result = lhs_lp.solve_feasibility(problem, tol=tols.lp_feasibility)
    residual = None
    if result.feasible:
        residual = lhs_lp.verify_model(result.model, set1, set2)
        verdict = "feasible"
    else:
        verdict = "infeasible-relative-to-candidates" if relative else "infeasible"
    if args.fmt == "json":
        model_doc = None
        if result.feasible:
            model_doc = {
                "weights": list(result.model.member_weights),
                "responses": [
                    [[float(v) for v in row] for row in table]
                    for table in result.model.responses
                ],
            }
        _emit_json(
            {
                "command": "lhs",
                "lp_verdict": verdict,
                "phase1_optimum": result.phase1_optimum,
                "iterations": result.iterations,
                "relative": relative,
                "verify_residual": residual,
                "n_members": problem.n_members,
                "n_variables": problem.n_variables,
                "model": model_doc,
            }
        )
    else:
        print(f"lhs-lp: {verdict} (phase-1 optimum {result.phase1_optimum:.6e})")
        print(f"members: {problem.n_members}  variables: {problem.n_variables}  "
              f"iterations: {result.iterations}")
        if result.feasible:
            for i, w in enumerate(result.model.member_weights):
                print(f"  member {i}: weight {w:.6f}")
            print(f"verify residual: {residual:.6e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"demo": cmd_demo, "check": cmd_check, "sweep": cmd_sweep, "lhs": cmd_lhs}
    try:
        return handlers[args.command](args)
    except SolverLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SteerlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
