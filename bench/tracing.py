"""Traced replay of one operation as its public stages, with spans and counts.

Spans are recorded from the benchmark's side, around each call into a
layer; the package itself carries no instrumentation.  Each span has a name,
start, end, parent and operation id.  The root span of an operation is
``certify``: its self time is the glue between the stages.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from steerlab import (
    NO_PARADOX_CROSS_DUPLICATE,
    NO_PARADOX_PURITY,
    PARADOX,
    EnsembleState,
    SolverLimitError,
    conditional_states,
    density_of,
    measurement_requirement,
    problem_for,
    purity_requirement,
    solve_feasibility,
)

from workloads import (
    LP_FEASIBLE,
    LP_INFEASIBLE,
    LP_PIVOT_BUDGET,
    LP_UNDECIDED,
    Deadline,
    DeadlineExceeded,
    Instance,
    build_protocol,
    build_state,
)

STAGES = (
    "states.construct",
    "measurements.protocol",
    "states.density",
    "steering.conditional",
    "steering.purity",
    "steering.duplicates",
    "lhs_lp.assembly",
    "lhs_lp.solve",
)
ROOT = "certify"

DEADLINE = "deadline"  # the operation missed the wall-clock guard

COUNTS = (
    "states.dense_bytes",
    "steering.outcomes",
    "steering.excluded",
    "steering.phase_comparisons",
    "lhs_lp.solves",
    "lhs_lp.rows",
    "lhs_lp.cols",
    "lhs_lp.iterations",
    "lhs_lp.tableau_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, op))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()


@dataclass
class StagedResult:
    op: int
    verdict: str
    lp_verdict: str | None
    failure: str | None  # DEADLINE or None
    counts: dict[str, int]


def replay(inst: Instance, lp: bool, tracer: Tracer, deadline: Deadline) -> StagedResult:
    """Run the operation stage by stage under one deadline; spans go to ``tracer``."""
    op = inst.index
    counts = dict.fromkeys(COUNTS, 0)
    verdict = lp_verdict = failure = None
    try:
        with deadline.limit(), tracer.span(ROOT, op):
            with tracer.span("states.construct", op):
                state = build_state(inst)
            with tracer.span("measurements.protocol", op):
                protocol = build_protocol(inst)
            if isinstance(state, EnsembleState):
                with tracer.span("states.density", op):
                    rho = density_of(state)
                counts["states.dense_bytes"] = 16 * 4**inst.n_qubits
            else:
                rho = state
            with tracer.span("steering.conditional", op):
                set1 = conditional_states(rho, protocol, 1)
            with tracer.span("steering.conditional", op):
                set2 = conditional_states(rho, protocol, 2)
            with tracer.span("steering.purity", op):
                check = purity_requirement(set1, set2)
            k1, k2 = len(set1.outcomes), len(set2.outcomes)
            counts["steering.outcomes"] = k1 + k2
            counts["steering.excluded"] = len(check.excluded)
            if not check.ok:
                verdict = NO_PARADOX_PURITY
            else:
                with tracer.span("steering.duplicates", op):
                    dup = measurement_requirement(set1, set2)
                verdict = PARADOX if dup.ok else NO_PARADOX_CROSS_DUPLICATE
                k1 -= sum(1 for s, _ in check.excluded if s == 1)
                k2 -= sum(1 for s, _ in check.excluded if s == 2)
                counts["steering.phase_comparisons"] = (
                    k1 * k2 + k1 * (k1 - 1) // 2 + k2 * (k2 - 1) // 2
                )
            if lp:
                with tracer.span("lhs_lp.assembly", op):
                    problem, relative = problem_for(set1, set2)
                rows, cols = problem.a_eq.shape
                counts["lhs_lp.solves"] = 1
                counts["lhs_lp.rows"] = rows
                counts["lhs_lp.cols"] = cols
                counts["lhs_lp.tableau_bytes"] = 8 * rows * (cols + rows + 1)
                try:
                    with tracer.span("lhs_lp.solve", op):
                        result = solve_feasibility(problem, max_iter=LP_PIVOT_BUDGET)
                except SolverLimitError:
                    lp_verdict = LP_UNDECIDED
                else:
                    counts["lhs_lp.iterations"] = result.iterations
                    if result.feasible:
                        lp_verdict = LP_FEASIBLE
                    elif relative:
                        lp_verdict = "infeasible-relative-to-candidates"
                    else:
                        lp_verdict = LP_INFEASIBLE
    except DeadlineExceeded:
        failure = DEADLINE
    return StagedResult(op, verdict, lp_verdict, failure, counts)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another, so the covered time is the
    sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
