"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the untraced loop runs for S seconds and the end-to-end
metrics are reported. With --trace 1 an untraced loop runs for S/2
seconds, then one set-up and one plan run under the span tracer, and the
per-layer metrics are reported; spans go to .bench/spans-<workload>-seed<N>.tsv.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 when an output
check failed or the domainlm sources are missing, and 2 on a usage error.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in the process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".bench"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

try:
    import numpy as np
    from tracer import Tracer
    from workloads import FULL, WORKLOADS, YARDSTICK_NOMINAL_MS, Outcome, yardstick_ms
except ModuleNotFoundError as exc:  # not inside a domainlm source tree
    sys.exit(f"error: cannot import the library under {ROOT}: {exc}")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    """HEAD's commit id read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _workdir() -> tempfile.TemporaryDirectory:
    """Scratch directory for generated input files, removed when closed."""
    STATE_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=STATE_DIR)


def _setup(workload, seed: int, sizes):
    """One set-up from scratch; returns its context, wall ms and yardsticks.

    The yardstick is timed right before and right after, and the wall time
    is divided by their mean, as an iteration's is by the one after it.
    """
    with _workdir() as work:
        before = yardstick_ms()
        start = time.perf_counter()
        ctx = workload.setup(seed, sizes, Path(work))
        wall_ms = (time.perf_counter() - start) * 1e3
        return ctx, wall_ms, wall_ms / ((before + yardstick_ms()) / 2)


def _measure(workload, ctx, seconds: float, setups: int = 0) -> tuple[Outcome, list[float]]:
    """Repeat the workload's plan until `seconds` of loop time have passed.

    `setups` further set-ups run between plans, spaced evenly over the run,
    so that their median sees the same mix of machine load as the loop.
    Returns the loop's outcome and (wall ms, yardsticks) of each set-up.
    """
    out, times = Outcome(), []
    start = time.perf_counter()
    while True:
        workload.plan(ctx, out, lambda: None)
        elapsed = time.perf_counter() - start
        done = out.failed or elapsed >= seconds
        while len(times) < setups and (
                done or elapsed >= (len(times) + 1) * seconds / (setups + 1)):
            times.append(_setup(workload, ctx.seed, ctx.sizes)[1:])
        if done:
            return out, times


def _iter_ms(workload, out: Outcome) -> list[float]:
    """Every iteration time the loop measured, over all plans."""
    return [ms for steps in out.plan_ms for ms in steps[workload.first_iter:]]


def _iter_ref(workload, out: Outcome) -> list[float]:
    """Every iteration time over the yardstick time measured right after it."""
    return [ms / yard
            for steps, yards in zip(out.plan_ms, out.yard_ms)
            for ms, yard in zip(steps[workload.first_iter:], yards[workload.first_iter:])]


def _plan_ref(out: Outcome) -> float:
    """Median over plans of the plan's step time over its yardstick time."""
    return statistics.median(sum(steps) / sum(yards)
                             for steps, yards in zip(out.plan_ms, out.yard_ms))


def _traced(workload, seed: int, sizes, seconds: float):
    """Untraced loop for `seconds`, then one set-up and plan under the tracer."""
    ctx = _setup(workload, seed, sizes)[0]
    out, _ = _measure(workload, ctx, seconds)
    untraced_p50 = float(np.percentile(_iter_ref(workload, out), 50))
    untraced_loss = workload.final_loss(ctx, out)

    traced = Outcome()

    def check(name: str, ok: bool, detail: str) -> None:
        if not ok:
            traced.fail(f"{name}: {detail}")

    tracer = Tracer(check=check)

    def next_step() -> None:
        tracer.step += 1

    with tracer, _workdir() as work:
        tctx = workload.setup(seed, sizes, Path(work))
        workload.plan(tctx, traced, next_step)
    traced_loss = workload.final_loss(tctx, traced)
    if traced_loss != untraced_loss:
        traced.fail(f"traced final_loss {traced_loss!r} != untraced {untraced_loss!r}")
    traced_ref = _iter_ref(workload, traced)
    traced_p50 = float(np.percentile(traced_ref, 50))
    metrics = tracer.metrics(overhead=traced_p50 / untraced_p50)
    note = (f"trace overhead: iter_ref.p50 traced {traced_p50:.4f} / untraced "
            f"{untraced_p50:.4f} ({len(traced_ref)} traced, "
            f"{len(_iter_ref(workload, out))} untraced iterations)")
    out.attempted += traced.attempted
    out.failed += traced.failed
    out.errors += traced.errors
    return out, metrics, note, tracer


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=FULL):
    """Run one workload; returns (result dict, report lines, tracer or None)."""
    workload = WORKLOADS[workload_name]
    load_before = _loadavg()
    if trace:
        out, metrics, note, tracer = _traced(workload, seed, sizes, seconds / 2)
    else:
        ctx, *first_setup = _setup(workload, seed, sizes)
        out, more_setups = _measure(workload, ctx, seconds, sizes.setup_reps - 1)
        setup_ms, setup_ref = zip(first_setup, *more_setups)
        iters = _iter_ref(workload, out)
        metrics = {
            "setup_s": statistics.median(setup_ref) * YARDSTICK_NOMINAL_MS / 1e3,
            "iter_ref.p50": float(np.percentile(iters, 50)),
            "iter_ref.p95": float(np.percentile(iters, 95)),
            "tokens_per_ref": ctx.tokens_per_plan / _plan_ref(out),
            "final_loss": workload.final_loss(ctx, out),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = _iter_ms(workload, out)
        yards = [y for plan in out.yard_ms for y in plan]
        note = (f"samples: {len(iters)} iterations over {out.plans} plans, "
                f"{len(setup_ms)} set-ups; as measured in ms: iteration p50 "
                f"{np.percentile(raw, 50):.4f}, p95 {np.percentile(raw, 95):.4f}, "
                f"set-up p50 {statistics.median(setup_ms):.4f}, "
                f"yardstick p50 {np.percentile(yards, 50):.4f}")
        tracer = None

    env = _environment(seed) | {"loadavg_before": load_before, "loadavg_after": _loadavg()}
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    lines = [note, "env: " + json.dumps(env, sort_keys=True)]
    lines += [f"{name}\t{value:.6g}\t{UNITS[name]}" for name, value in metrics.items()]
    lines += [f"check failed: {e}" for e in out.errors]
    return result, lines, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, lines, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.write_spans(STATE_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
