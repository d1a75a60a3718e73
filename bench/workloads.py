"""Workload definitions: seeded input generation, the timed operation, output checks.

Every workload is a list of shares that alternate operation by operation, so
the shares stay in equal parts.  An instance is raw arrays only (state
vectors or a density matrix, and the basis vectors of two settings); the
timed operation turns them into validated objects through the public
constructors and calls ``certify``, the same way ``steerlab check`` does
after parsing.  Instance ``index`` is drawn from ``default_rng([seed, index])``,
so any single instance can be regenerated from its (seed, index) pair.
"""

from __future__ import annotations

import signal
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from steerlab import (
    NO_PARADOX_CROSS_DUPLICATE,
    NO_PARADOX_PURITY,
    PARADOX,
    BellLikeBasis,
    DensityMatrix,
    EnsembleState,
    LhsModel,
    MeasurementSetting,
    ParadoxReport,
    SolverLimitError,
    SteeringProtocol,
    add_shared_slot_component,
    bell_like_setting,
    certify,
    computational_family,
    conditional_states,
    density_of,
    max_rank_family,
    problem_for,
    random_mixed,
    random_pure,
    random_rank1_setting,
    solve_feasibility,
    verify_model,
)

LP_INFEASIBLE = "infeasible"
LP_FEASIBLE = "feasible"
LP_RELATIVE = "relative"  # expectation only: either relative-mode verdict is correct
RELATIVE_VERDICTS = ("feasible", "infeasible-relative-to-candidates")
# The simplex gave up: it reached the pivot budget or raised SolverLimitError
# for another reason.  Not a wrong output, but not an answer either.
LP_UNDECIDED = "undecided"

# Completing solves at n=4, M=2 take at most about 630 pivots; stalled ones
# were still pivoting past 8000 (see README.md).  A pivot count, unlike a
# clock, gives every instance the same outcome on every run.
LP_PIVOT_BUDGET = 1000
# Wall-clock guard against a hang; a miss counts as a failed operation.
DEADLINE_S = 10.0

TRACE_SUM_TOL = 1e-9
MODEL_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Instance:
    """Raw inputs of one operation plus the verdicts the generator predicts."""

    index: int
    share: str
    n_qubits: int
    alice_qubits: int
    weights: tuple[float, ...] | None  # ensemble input
    vectors: np.ndarray | None  # (terms, 2**n) ensemble vectors
    matrix: np.ndarray | None  # (2**n, 2**n) density input
    settings: tuple[np.ndarray, np.ndarray]  # each (2**M, 2**M), one basis vector per row
    expected: str
    expected_lp: str | None


@dataclass(frozen=True)
class Share:
    name: str
    make: Callable[[np.random.Generator, int, int], dict]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; the sizes are part of its definition."""

    name: str
    n_qubits: int
    alice_qubits: int
    lp: bool
    shares: tuple[Share, ...]
    pool_size: int  # distinct instances; the timed loop cycles through them
    tail_percentile: float  # highest percentile with >= 10 samples beyond it
    traced_ops: int  # fixed so that per-layer counts repeat exactly

    def instance(self, seed: int, index: int) -> Instance:
        rng = np.random.default_rng([seed, index])
        share = self.shares[index % len(self.shares)]
        fields = share.make(rng, self.n_qubits, self.alice_qubits)
        return Instance(
            index=index,
            share=share.name,
            n_qubits=self.n_qubits,
            alice_qubits=self.alice_qubits,
            weights=fields.get("weights"),
            vectors=fields.get("vectors"),
            matrix=fields.get("matrix"),
            settings=fields["settings"],
            expected=fields["expected"],
            expected_lp=fields.get("expected_lp") if self.lp else None,
        )

    def pool(self, seed: int) -> list[Instance]:
        return [self.instance(seed, i) for i in range(self.pool_size)]


# ---------------------------------------------------------------------------
# share generators (set-up only; belllike and the samplers run here)
# ---------------------------------------------------------------------------


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def _haar_settings(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array(random_rank1_setting(m, rng).vectors) for _ in range(2))


def _bell_like_settings(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    # the angles differ by 0.3 to 1.1 rad, never by a multiple of pi/2, so no
    # conditional state of one setting coincides with one of the other
    family = computational_family(m)
    betas = (rng.uniform(0.2, 0.6), rng.uniform(0.9, 1.3))
    return tuple(
        np.array(bell_like_setting(BellLikeBasis(b, family, "computational")).vectors)
        for b in betas
    )


def _ensemble(state: EnsembleState) -> dict:
    return {"weights": state.weights, "vectors": np.array(state.vectors)}


def _haar_pure(rng, n, m):
    return {
        "weights": (1.0,),
        "vectors": random_pure(n, _seed(rng))[None, :],
        "settings": _haar_settings(rng, m),
        "expected": PARADOX,
        "expected_lp": LP_INFEASIBLE,
    }


def _family(rng, n, m):
    family = max_rank_family(n, m, _seed(rng))
    return {**_ensemble(family), "settings": _bell_like_settings(rng, m), "expected": PARADOX}


def _family_shared_slot(rng, n, m):
    seed = _seed(rng)
    state = add_shared_slot_component(max_rank_family(n, m, seed), m, seed)
    return {
        **_ensemble(state),
        "settings": _bell_like_settings(rng, m),
        "expected": NO_PARADOX_PURITY,
    }


def _mixed_density(rng, n, m):
    mixed = random_mixed(n, 3, _seed(rng))
    vecs = np.array(mixed.vectors)
    return {
        "matrix": (vecs.T * np.array(mixed.weights)) @ vecs.conj(),
        "settings": _haar_settings(rng, m),
        "expected": NO_PARADOX_PURITY,
    }


def _pure_density(rng, n, m):
    psi = random_pure(n, _seed(rng))
    return {
        "matrix": np.outer(psi, psi.conj()),
        "settings": _haar_settings(rng, m),
        "expected": PARADOX,
    }


def _product(rng, n, m):
    psi = np.kron(random_pure(m, _seed(rng)), random_pure(n - m, _seed(rng)))
    return {
        "weights": (1.0,),
        "vectors": psi[None, :],
        "settings": _haar_settings(rng, m),
        "expected": NO_PARADOX_CROSS_DUPLICATE,
        "expected_lp": LP_FEASIBLE,
    }


def _rank2_mixed(rng, n, m):
    return {
        **_ensemble(random_mixed(n, 2, _seed(rng))),
        "settings": _haar_settings(rng, m),
        "expected": NO_PARADOX_PURITY,
        "expected_lp": LP_RELATIVE,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble-large",
            n_qubits=9,
            alice_qubits=4,
            lp=False,
            shares=(
                Share("haar-pure", _haar_pure),
                Share("family", _family),
                Share("family-shared-slot", _family_shared_slot),
            ),
            pool_size=48,
            tail_percentile=95.0,
            traced_ops=30,
        ),
        Workload(
            name="density-large",
            n_qubits=9,
            alice_qubits=4,
            lp=False,
            shares=(Share("rank3-mixed", _mixed_density), Share("pure", _pure_density)),
            pool_size=24,
            tail_percentile=95.0,
            traced_ops=24,
        ),
        Workload(
            name="lp-oracle",
            n_qubits=4,
            alice_qubits=2,
            lp=True,
            shares=(
                Share("haar-pure", _haar_pure),
                Share("product", _product),
                Share("rank2-mixed", _rank2_mixed),
            ),
            pool_size=300,
            tail_percentile=92.0,
            traced_ops=15,
        ),
    )
}


# ---------------------------------------------------------------------------
# the operation
# ---------------------------------------------------------------------------


def build_state(inst: Instance) -> EnsembleState | DensityMatrix:
    if inst.matrix is not None:
        return DensityMatrix(inst.n_qubits, inst.matrix)
    return EnsembleState(inst.n_qubits, inst.weights, tuple(inst.vectors))


def build_protocol(inst: Instance) -> SteeringProtocol:
    m = inst.alice_qubits
    outcomes = tuple(format(i, f"0{m}b") for i in range(2**m))
    s1, s2 = (
        MeasurementSetting(
            label=f"setting-{k}",
            m_qubits=m,
            outcomes=outcomes,
            projectors=tuple(np.outer(v, v.conj()) for v in vecs),
            vectors=tuple(vecs),
        )
        for k, vecs in enumerate(inst.settings, start=1)
    )
    return SteeringProtocol(alice_qubits=m, setting_1=s1, setting_2=s2, n_qubits=inst.n_qubits)


@dataclass(frozen=True)
class Outcome:
    """What one operation returns: the certify report and, with the LP, its answer."""

    report: ParadoxReport
    lp_verdict: str | None = None  # None without the LP
    model: LhsModel | None = None  # the LP's model when feasible
    lp_error: str | None = None  # why the simplex gave up, when undecided


def run_op(inst: Instance, lp: bool) -> Outcome:
    """The timed operation: constructors, then ``certify``.

    ``certify(lp=True)`` cannot take a pivot budget, so with the LP the
    operation calls ``certify`` and then runs the LP stages that
    ``certify(lp=True)`` would run, with the same default tolerances and
    ``LP_PIVOT_BUDGET``.  The repeated ``density_of`` and
    ``conditional_states`` cost well under 1% of an n=4 operation.
    """
    state, protocol = build_state(inst), build_protocol(inst)
    report = certify(state, protocol)
    if not lp:
        return Outcome(report)
    rho = density_of(state) if isinstance(state, EnsembleState) else state
    problem, relative = problem_for(
        conditional_states(rho, protocol, 1), conditional_states(rho, protocol, 2)
    )
    try:
        result = solve_feasibility(problem, max_iter=LP_PIVOT_BUDGET)
    except SolverLimitError as exc:
        return Outcome(report, LP_UNDECIDED, lp_error=str(exc))
    if result.feasible:
        return Outcome(report, LP_FEASIBLE, model=result.model)
    return Outcome(report, "infeasible-relative-to-candidates" if relative else LP_INFEASIBLE)


class DeadlineExceeded(Exception):
    """The operation ran past its per-operation deadline."""


class Deadline:
    """Per-operation wall-clock limit delivered as SIGALRM to the main thread.

    The simplex pivots in Python, so the signal handler runs between two
    pivots and a hung call unwinds cleanly.  A signal that arrives after
    the limit was disarmed is ignored.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            raise DeadlineExceeded(f"operation exceeded {self.seconds} s")

    @contextmanager
    def limit(self):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# output checks (run outside the timed span)
# ---------------------------------------------------------------------------


def check_report(inst: Instance, outcome: Outcome) -> str | None:
    """Return why the outcome is wrong, or None when it is correct.

    An undecided LP is not wrong: the structural report is still checked.
    """
    report = outcome.report
    if report.verdict != inst.expected:
        return f"verdict {report.verdict}, expected {inst.expected}"
    if abs(report.quantum_trace_sum - 2.0) > TRACE_SUM_TOL:
        return f"quantum trace sum {report.quantum_trace_sum!r}"
    want_lhs = 1.0 if report.verdict == PARADOX else None
    if report.lhs_trace_sum != want_lhs:
        return f"lhs trace sum {report.lhs_trace_sum!r} with verdict {report.verdict}"
    want_decomposition = "eigen" if inst.matrix is not None else "given"
    if report.decomposition_used != want_decomposition:
        return f"decomposition {report.decomposition_used}, expected {want_decomposition}"
    if inst.expected_lp is None or outcome.lp_verdict == LP_UNDECIDED:
        return None
    if inst.expected_lp != LP_RELATIVE:
        if outcome.lp_verdict != inst.expected_lp:
            return f"LP {outcome.lp_verdict}, expected {inst.expected_lp}"
        return None
    if outcome.lp_verdict not in RELATIVE_VERDICTS:
        return f"LP {outcome.lp_verdict} in relative mode"
    if outcome.lp_verdict == LP_FEASIBLE:
        residual = relative_model_residual(inst, outcome.model)
        if residual > MODEL_RESIDUAL_TOL:
            return f"relative-mode model residual {residual:.3e}"
    return None


def relative_model_residual(inst: Instance, model: LhsModel) -> float:
    state = build_state(inst)
    rho = density_of(state) if isinstance(state, EnsembleState) else state
    protocol = build_protocol(inst)
    set1 = conditional_states(rho, protocol, 1)
    set2 = conditional_states(rho, protocol, 2)
    return verify_model(model, set1, set2)
