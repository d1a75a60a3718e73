"""Command line front end: demo, check, sweep and lhs subcommands.

Exit codes: 0 when the requested run completed (whatever the verdict), 2 for
any input problem (bad flags, malformed or mismatched documents), 3 when the
feasibility solver reaches neither a model nor a valid certificate (its
iteration cap, a singular passive Gram block, or a residual that certifies
nothing).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config, lhs_lp
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
    lc4_mixed,
    load_state,
    two_qubit_theta_state,
    random_mixed,
)
from .steering import (
    NO_PARADOX_CROSS_DUPLICATE,
    NO_PARADOX_PURITY,
    PARADOX,
    ParadoxReport,
    _certify,
    _evidence,
    _Evidence,
    _validated_states,
    certify,
)

# each demo's state and protocol, given the mixing angle (ignored by product)
DEMOS = {
    "two-qubit": lambda theta: (
        two_qubit_theta_state(theta), tensor_protocol("z", "x", n_qubits=2)
    ),
    "lc4": lambda theta: (lc4_mixed(theta), tensor_protocol("zz", "yx", n_qubits=4)),
    "product": lambda theta: (
        EnsembleState(2, (1.0,), (basis_ket(2, 0),)), tensor_protocol("z", "x", n_qubits=2)
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerlab",
        description="Certify the two-setting 2-vs-1 steering gap for N-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
        p.add_argument("--tolerance", type=float, default=config.REQUIREMENT_TOL, dest="tol",
                       help="override the tolerance of both requirements (purity and "
                            "phase coincidence)")

    p_demo = sub.add_parser("demo", help="run a built-in state and protocol")
    p_demo.add_argument("name", choices=DEMOS)
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


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_report(report: ParadoxReport, fmt: str) -> None:
    if fmt == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text(), end="")


def cmd_demo(args: argparse.Namespace) -> int:
    state, protocol = DEMOS[args.name](args.theta)
    report = certify(state, protocol, lp=args.lp, tol=args.tol)
    _emit_report(report, args.fmt)
    return 0


def _load_pair(
    args: argparse.Namespace,
) -> tuple[EnsembleState | DensityMatrix, SteeringProtocol]:
    return load_state(args.state.read_text()), load_protocol(args.protocol.read_text())


def _program(evidence: _Evidence, dump: Path | None) -> tuple[lhs_lp.LpProblem, bool]:
    """The pair's (problem, relative), written to ``dump`` before anything solves it."""
    problem, relative = lhs_lp._problem(evidence)
    if dump is not None:
        doc = problem.to_json_dict()
        doc["relative"] = relative
        dump.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return problem, relative


def cmd_check(args: argparse.Namespace) -> int:
    state, protocol = _load_pair(args)
    report, evidence = _certify(state, protocol, args.tol)
    if args.lp or args.dump_lp is not None:
        problem, relative = _program(evidence, args.dump_lp)
        if args.lp:
            report = lhs_lp._judged(report, problem, relative)
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
    counts = {PARADOX: 0, NO_PARADOX_PURITY: 0, NO_PARADOX_CROSS_DUPLICATE: 0}
    samples = []
    for i in range(args.count):
        # per-sample determinism: the state takes seed+i, the protocol a
        # stream keyed on (seed, i) so the two never share draws
        state = random_mixed(args.n_qubits, args.rank, args.seed + i)
        protocol = fixed or _random_protocol(args.alice_qubits, args.seed, i)
        report = certify(state, protocol, tol=args.tol)
        counts[report.verdict] += 1
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
    evidence = _evidence(*_validated_states(state, protocol, (1, 2)), args.tol)
    problem, relative = _program(evidence, args.dump_lp)
    result = lhs_lp.solve_feasibility(problem)
    verdict = lhs_lp.verdict_label(result, relative)
    residual = margin = None
    if result.feasible:
        residual = lhs_lp.verify_model(result.model, evidence.set1, evidence.set2)
    else:
        margin = lhs_lp.verify_certificate(problem, result.certificate)
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
                "residual": result.residual,
                "iterations": result.iterations,
                "relative": relative,
                "verify_residual": residual,
                "certificate_margin": margin,
                "n_members": problem.n_members,
                "n_variables": problem.n_variables,
                "model": model_doc,
            }
        )
    else:
        print(f"lhs-lp: {verdict} (residual {result.residual:.6e})")
        print(f"members: {problem.n_members}  variables: {problem.n_variables}  "
              f"iterations: {result.iterations}")
        if result.feasible:
            for i, w in enumerate(result.model.member_weights):
                print(f"  member {i}: weight {w:.6f}")
            print(f"verify residual: {residual:.6e}")
        else:
            print(f"certificate margin: {margin:.6e}")
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
