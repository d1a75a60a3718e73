"""steerlab benchmark: closed-loop ``certify`` load with one caller.

Usage::

    python3 bench/run.py --workload ensemble-large --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` times whole operations for ``--seconds`` seconds and prints
the end-to-end metrics.  ``--trace 1`` replays a fixed list of operations
stage by stage and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
every failed operation and every LP-undecided instance by (seed, index),
spans) goes to ``bench/results/``.
See ``bench/README.md`` for why each workload exists.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NPROC = len(os.sched_getaffinity(0))
# Pinned before numpy loads.  One thread measured as fast as two at these
# sizes on a 2-core host, and it cannot stall waiting for a sibling thread
# that another process has pushed off a core.
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import steerlab  # noqa: E402

if Path(steerlab.__file__).resolve().parent != ROOT / "src" / "steerlab":
    sys.exit(f"steerlab was imported from {steerlab.__file__}, not from {ROOT / 'src'}")

from tracing import COUNTS, DEADLINE, ROOT as ROOT_SPAN, STAGES, Tracer, replay, self_times  # noqa: E402
from workloads import (  # noqa: E402
    DEADLINE_S,
    LP_FEASIBLE,
    LP_PIVOT_BUDGET,
    LP_UNDECIDED,
    WORKLOADS,
    Deadline,
    DeadlineExceeded,
    check_report,
    run_op,
)

T_IMPORTED = time.perf_counter()

SETUP_REPEATS = 3
RESULTS_DIR = BENCH_DIR / "results"


def environment(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "seed": seed,
        "commit": git_commit(),
        "steerlab": steerlab.__file__,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(workload, seed: int, deadline: Deadline):
    """Generate the instance pool and warm up; returns the pool.

    Warm-up runs one operation per share without the LP, plus one LP solve
    on the first product instance, whose solve takes about ten pivots.
    """
    pool = workload.pool(seed)
    for inst in pool[: len(workload.shares)]:
        run_op(inst, lp=False)
    if workload.lp:
        product = next(i for i in pool if i.expected_lp == LP_FEASIBLE)
        with deadline.limit():
            run_op(product, lp=True)
    return pool


def timed_set_up(workload, seed: int, deadline: Deadline):
    times = []
    for _ in range(SETUP_REPEATS):
        pool = None  # free the previous pool so peak memory holds one
        t0 = time.perf_counter()
        pool = set_up(workload, seed, deadline)
        times.append(time.perf_counter() - t0)
    return pool, (T_IMPORTED - T_START) + statistics.median(times), times


# ---------------------------------------------------------------------------
# one operation, timed, with its output check outside the timed span
# ---------------------------------------------------------------------------


def attempt(inst, workload, deadline: Deadline) -> dict:
    t0 = time.perf_counter()
    outcome = None
    failure = detail = None
    try:
        with deadline.limit():
            outcome = run_op(inst, workload.lp)
    except DeadlineExceeded:
        failure = DEADLINE
    except Exception as exc:  # a failed operation is counted, not fatal
        failure, detail = "exception", repr(exc)
    elapsed = time.perf_counter() - t0
    if failure is None and elapsed > DEADLINE_S:
        failure = DEADLINE
    if failure is None:
        try:
            detail = check_report(inst, outcome)
        except Exception as exc:
            detail = f"check raised {exc!r}"
        if detail is not None:
            failure = "wrong-output"
    return {
        "index": inst.index,
        "share": inst.share,
        "elapsed": elapsed,
        "failure": failure,
        "detail": detail,
        "verdict": None if outcome is None else outcome.report.verdict,
        "lp_verdict": None if outcome is None else outcome.lp_verdict,
        "lp_error": None if outcome is None else outcome.lp_error,
    }


def is_wrong(record) -> bool:
    """A wrong answer or an unexpected exception; a missed deadline is not."""
    return record["failure"] not in (None, DEADLINE)


def answered(record) -> bool:
    """Correct output, and an LP verdict when the LP was asked for."""
    return record["failure"] is None and record["lp_verdict"] != LP_UNDECIDED


def run_timed(workload, seed: int, seconds: float, max_ops: int | None = None) -> dict:
    deadline = Deadline(DEADLINE_S)
    pool, setup_s, setup_times = timed_set_up(workload, seed, deadline)
    records = []
    loop_start = time.perf_counter()
    i = 0
    while time.perf_counter() - loop_start < seconds and (max_ops is None or i < max_ops):
        records.append(attempt(pool[i % len(pool)], workload, deadline))
        i += 1
    n = len(records)
    failed = sum(1 for r in records if r["failure"] is not None)
    good = [r for r in records if answered(r)]
    elapsed = [r["elapsed"] for r in records]
    tail = float(np.percentile(elapsed, workload.tail_percentile))
    beyond = sum(1 for e in elapsed if e > tail)
    # The rate is taken over answered operations, per share, and averaged
    # with equal weights, the workload's own mix.  The shares differ in cost
    # by about 35x on lp-oracle, and how many rank-2 instances stall varies
    # from seed to seed: a pooled rate would follow that count, which
    # success_ratio already gates.  The fallback only serves runs too short
    # to answer anything.
    by_share: dict[str, list[float]] = {}
    for r in good or records:
        by_share.setdefault(r["share"], []).append(r["elapsed"])
    mean_s = statistics.mean(statistics.mean(v) for v in by_share.values())
    metrics = {
        "certify_per_s": (1.0 / mean_s, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(elapsed), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "success_ratio": (len(good) / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "correct": not any(is_wrong(r) for r in records),
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "samples": n,
            "answered_per_share": {k: len(v) for k, v in by_share.items()},
            "tail_percentile": workload.tail_percentile,
            "samples_beyond_tail": beyond,
            "failed_ratio": failed / n,
            "undecided_ratio": sum(1 for r in records if r["lp_verdict"] == LP_UNDECIDED) / n,
            "timed_s": sum(elapsed),
            "answered_s": sum(r["elapsed"] for r in good),
            "pool_size": len(pool),
            "setup_times_s": setup_times,
            "import_s": T_IMPORTED - T_START,
            "ops": [[r["index"], r["share"], 1e3 * r["elapsed"], r["failure"], r["lp_verdict"]]
                    for r in records],
            **failure_details(records, seed),
        },
    }


def failure_details(records, seed: int) -> dict:
    """Every failed operation, and every distinct instance whose LP gave up."""
    undecided = {}
    for r in records:
        if r["lp_verdict"] == LP_UNDECIDED:
            undecided.setdefault(r["index"], {
                "seed": seed, "index": r["index"], "share": r["share"], "detail": r["lp_error"],
            })
    return {
        "deadline_s": DEADLINE_S,
        "lp_pivot_budget": LP_PIVOT_BUDGET,
        "failures": [
            {"seed": seed, "index": r["index"], "share": r["share"],
             "failure": r["failure"], "detail": r["detail"]}
            for r in records
            if r["failure"] is not None
        ],
        "undecided": sorted(undecided.values(), key=lambda u: u["index"]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, staged) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    total = sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)
    metrics = {}
    for name in STAGES + (ROOT_SPAN,):
        per_op: dict[int, float] = {}
        for s, own in zip(spans, selfs):
            if s.name == name:
                per_op[s.op] = per_op.get(s.op, 0.0) + (own if name == ROOT_SPAN else s.end - s.start)
        key = "certify.self" if name == ROOT_SPAN else name
        median = statistics.median(per_op.values()) if per_op else 0.0
        metrics[f"{key}_ms"] = (1e3 * median, "ms")
        metrics[f"{key}_share"] = (sum(per_op.values()) / total, "ratio")
    k = len(staged)
    decided = [r for r in staged if r.counts["lhs_lp.solves"] and not r.failure
               and r.lp_verdict != LP_UNDECIDED]
    for name in COUNTS:
        if name == "lhs_lp.iterations":
            value = sum(r.counts[name] for r in decided) / len(decided) if decided else 0.0
        else:
            value = sum(r.counts[name] for r in staged) / k
        unit = "B/op" if name.endswith("bytes") else "count/op"
        metrics[name] = (value, unit)
    solves = sum(r.counts["lhs_lp.solves"] for r in staged)
    # no solve attempted means none failed to complete
    metrics["lhs_lp.completed_ratio"] = (len(decided) / solves if solves else 1.0, "ratio")
    return metrics


def run_traced(workload, seed: int, max_ops: int | None = None) -> dict:
    deadline = Deadline(DEADLINE_S)
    pool, _, _ = timed_set_up(workload, seed, deadline)
    ops = pool[: min(workload.traced_ops, max_ops or workload.traced_ops)]
    # Each operation runs once untraced, as the timed operation with its
    # output checks, and then traced; alternating them keeps drift in host
    # speed out of the overhead ratio.  A second traced pass checks that the
    # counts repeat.
    tracer, reference, staged = Tracer(), [], []
    for inst in ops:
        reference.append(attempt(inst, workload, deadline))
        staged.append(replay(inst, workload.lp, tracer, deadline))
    staged_2 = [replay(inst, workload.lp, Tracer(), deadline) for inst in ops]

    mismatches = []
    for ref, st in zip(reference, staged):
        ref_failure = ref["failure"] if ref["failure"] == DEADLINE else None
        if ref_failure != st.failure or (
            not st.failure and (ref["verdict"], ref["lp_verdict"]) != (st.verdict, st.lp_verdict)
        ):
            mismatches.append(
                {"index": st.op, "certify": [ref["verdict"], ref["lp_verdict"], ref_failure],
                 "staged": [st.verdict, st.lp_verdict, st.failure]}
            )
    counts_1 = [(r.counts, r.failure) for r in staged]
    counts_2 = [(r.counts, r.failure) for r in staged_2]
    counts_repeat = counts_1 == counts_2

    metrics = layer_metrics(tracer, staged)
    done = [i for i, r in enumerate(reference) if not r["failure"] and not staged[i].failure]
    ref_time = sum(reference[i]["elapsed"] for i in done)
    root = {s.op: s.end - s.start for s in tracer.spans if s.name == ROOT_SPAN}
    traced_time = sum(root[ops[i].index] for i in done)
    metrics["trace.overhead_ratio"] = (traced_time / ref_time - 1.0 if ref_time else 0.0, "ratio")

    n = len(reference)
    failed = sum(1 for r in reference if r["failure"] is not None)
    return {
        "correct": not any(is_wrong(r) for r in reference) and not mismatches and counts_repeat,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "traced_ops": n,
            "verdict_mismatches": mismatches,
            "counts_repeat": counts_repeat,
            **failure_details(reference, seed),
        },
        "spans": [
            {"name": s.name, "start": s.start - T_START, "end": s.end - T_START,
             "parent": s.parent, "op": s.op}
            for s in tracer.spans
        ],
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name: str, seed: int, seconds: float, trace: bool, max_ops: int | None = None) -> dict:
    workload = WORKLOADS[name]
    if trace:
        result = run_traced(workload, seed, max_ops)
    else:
        result = run_timed(workload, seed, seconds, max_ops)
    result["workload"] = name
    result["trace"] = int(trace)
    result["environment"] = environment(seed)
    return result


def summary_lines(result: dict) -> list[str]:
    lines = [f"workload={result['workload']} trace={result['trace']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"correct={result['correct']}"]
    details = result["details"]
    if "failed_ratio" in details:
        lines.append(
            f"  samples={details['samples']} failed_ratio={details['failed_ratio']:.6g} "
            f"undecided_ratio={details['undecided_ratio']:.6g} "
            f"answered={details['answered_per_share']} "
            f"tail=p{details['tail_percentile']:g} ({details['samples_beyond_tail']} beyond)"
        )
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:<30} {value:.6g} {unit}")
    for f in details["failures"]:
        lines.append(f"  failed: {f['failure']} seed={f['seed']} index={f['index']} "
                     f"share={f['share']}" + (f" ({f['detail']})" if f["detail"] else ""))
    for u in details["undecided"]:
        lines.append(f"  lp undecided: seed={u['seed']} index={u['index']} "
                     f"share={u['share']} ({u['detail']})")
    if result["trace"]:
        lines.append(f"  counts_repeat={details['counts_repeat']} "
                     f"verdict_mismatches={len(details['verdict_mismatches'])}")
    env = result["environment"]
    lines.append("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    return lines


def write_record(result: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / (
        f"{result['workload']}-seed{result['environment']['seed']}-trace{result['trace']}.json"
    )
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=list) + "\n")
    return path


def last_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
    )


def smoke() -> int:
    """Every workload for a handful of operations; every named metric present."""
    spec = bench_spec()
    want = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, seed=0, seconds=1.0, trace=bool(trace), max_ops=3)
            print("\n".join(summary_lines(result)))
            missing = [m for m in want[trace] if m not in result["metrics"]]
            extra = [m for m in result["metrics"] if m not in want[trace]]
            if missing or extra or not result["correct"]:
                problems.append(f"{name} trace={trace}: missing={missing} extra={extra} "
                                f"correct={result['correct']}")
    for p in problems:
        print("smoke:", p)
    print("smoke:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(result)))
    print(f"  record: {write_record(result).relative_to(ROOT)}")
    print(last_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
