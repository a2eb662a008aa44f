"""salemtori benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Each workload runs in this one process, single-threaded, as a closed loop
with one client: the next instance starts when the previous one returns.

--trace 0 sets up, runs instances for S seconds, sets up a second time
and prints the end-to-end metrics.
--trace 1 runs the first few instances of the sample three times: once to
warm up, then timed without and with timing wrappers on every layer, and
prints the per-layer metrics; it processes a fixed number of instances
whatever S is, so its counts compare across commits.  The spans are
saved under .perfbench_out/.

Every answer is checked against an independent reference after the timed
phase.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import salemtori
    except ImportError as exc:
        raise SystemExit(
            f"perfbench: cannot import salemtori from {src} ({exc}); "
            "run from the root of a checkout"
        ) from exc

    if Path(salemtori.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: salemtori was imported from {salemtori.__file__}, not {src}")


def _machine() -> str:
    import mpmath

    return (
        f"machine: nproc {os.cpu_count()}, {platform.python_implementation()}"
        f" {platform.python_version()}, mpmath {mpmath.__version__}"
        f" ({mpmath.libmp.BACKEND} backend),"
        f" sympy {importlib.metadata.version('sympy')} (in child processes only)"
    )


def tail(samples) -> tuple:
    """(value, percentile) at the highest percentile that still has at
    least TAIL_BEYOND samples beyond it.

    In sorted order that is the sample with exactly TAIL_BEYOND samples
    after it, at percentile 100 * (n - TAIL_BEYOND) / n.  With TAIL_BEYOND
    samples or fewer no percentile qualifies, and the smallest sample is
    reported at percentile 0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _parse(argv):
    ap = argparse.ArgumentParser(description="salemtori benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_one(workload, instance):
    """(result, error text) of one instance; an exception is a failure."""
    try:
        return workload.run(instance), None
    except Exception:  # any exception is a failed instance, recorded
        return None, traceback.format_exc(limit=-3).strip()


def setup(workload, seed: int):
    """One set-up: generate the instances, then run every warm-up instance
    once.  Returns (instances, set-up seconds, generation seconds, problems)."""
    t = time.perf_counter()
    instances = workload.generate(seed)
    gen_s = time.perf_counter() - t
    problems = []
    for instance in workload.warmup():
        _result, error = _run_one(workload, instance)
        if error:
            problems.append(f"warm-up failed: {error}")
    return instances, time.perf_counter() - t, gen_s, problems


def closed_loop(workload, instances, seconds: float):
    """Run instances one after another until `seconds` have passed or the
    list ends.  Returns ([(result, error)], per-instance seconds, elapsed)."""
    clock = time.perf_counter
    outcomes, durations = [], []
    start = clock()
    deadline = start + seconds
    for instance in instances:
        if clock() >= deadline:
            break
        t = clock()
        outcomes.append(_run_one(workload, instance))
        durations.append(clock() - t)
    return outcomes, durations, clock() - start


def check_all(workload, instances, outcomes) -> list:
    """(index, problem) for every instance that failed or answered wrong."""
    refs = workload.references(instances[: len(outcomes)], [r for r, _e in outcomes])
    bad = []
    for i, (instance, (result, error)) in enumerate(zip(instances, outcomes)):
        problems = [error] if error else workload.check(instance, result, refs)
        bad.extend((i, p) for p in problems)
    return bad


def _failed_count(bad) -> int:
    return len({i for i, _p in bad})


def _report(lines, correct, attempted, failed, metrics, units):
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )


def _problem_lines(bad, limit=5) -> list:
    lines = [f"FAIL instance {i}: {p}" for i, p in bad[:limit]]
    if len(bad) > limit:
        lines.append(f"... {len(bad) - limit} more problems")
    return lines


def untraced(workload, args, instances, import_s, first_setup, setup_problems):
    """The timed phase between two set-ups.  The second set-up runs after
    it, so the two set-up times see the host at moments a run apart; the
    second generation must repeat the first byte for byte."""
    outcomes, durations, elapsed = closed_loop(workload, instances, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not durations:
        raise SystemExit("perfbench: no instance completed")
    again, total_s, gen_s, problems = setup(workload, args.seed)
    setups = [first_setup, (total_s, gen_s)]
    setup_problems = setup_problems + problems
    if repr(again) != repr(instances):
        setup_problems.append("the same seed generated different instance lists")
    t = time.perf_counter()
    bad = check_all(workload, instances, outcomes)
    check_s = time.perf_counter() - t
    failed = _failed_count(bad)
    n = len(durations)
    tail_s, tail_pct = tail(durations)
    setup_s = [total for total, _gen in setups]
    metrics = {
        "items_per_s": n / elapsed,
        "item_s_p50": statistics.median(durations),
        "item_s_tail": tail_s,
        "setup_s": import_s + statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"workload {workload.name}, seed {args.seed}: closed loop, one client, one thread",
        _machine(),
        f"instances          {n} of {len(instances)} generated, in {elapsed:.3f} s",
        f"items_per_s        {metrics['items_per_s']!r} 1/s",
        f"item_s_p50         {metrics['item_s_p50']!r} s",
        f"item_s_tail        {tail_s!r} s at p{tail_pct:.1f} of {n} instances",
        f"setup_s            {metrics['setup_s']!r} s = import {import_s:.3f} s"
        " + median of set-ups "
        + ", ".join(f"{t:.3f} s (generation {g:.3f} s)" for t, g in setups)
        + f"; a set-up generates, then runs {len(workload.warmup())} warm-up instances",
        f"peak_rss_mb        {peak_rss_mb!r} MB",
        f"fail_ratio         {failed / n!r} ({failed} of {n} instances,"
        f" checked against the references in {check_s:.3f} s)",
    ]
    lines += _problem_lines(setup_problems + bad)
    correct = failed == 0 and not setup_problems
    _report(lines, correct, n, failed, metrics, END_TO_END_UNITS)


def traced(workload, args, instances, setup_problems):
    items = instances[: workload.trace_items]
    # A first pass over these instances runs slower than later ones, so it
    # is left untimed: both timed passes then start from the same state.
    for instance in items:
        _run_one(workload, instance)
    clock = time.perf_counter
    t = clock()
    plain = [_run_one(workload, instance) for instance in items]
    plain_s = clock() - t

    tracer = tracing.Tracer()
    windows = {}
    with_trace = []
    tracer.install()
    try:
        for i, instance in enumerate(items):
            tracer.item = i
            t = clock()
            with_trace.append(_run_one(workload, instance))
            windows[i] = (t, clock())
    finally:
        tracer.uninstall()
    traced_s = sum(end - start for start, end in windows.values())

    bad = check_all(workload, items, with_trace)
    problems = list(setup_problems)
    for i, (a, b) in enumerate(zip(plain, with_trace)):
        if a[0] != b[0]:
            bad.append((i, "results differ with the timing wrappers installed"))
    problems += tracer.misplaced(windows)

    metrics = tracer.metrics(len(items))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    units = {name: unit for name, unit, _better in tracing.PER_LAYER}
    missing = [name for name in units if name not in metrics]
    if missing:
        problems.append(f"per-layer metrics missing: {missing}")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    self_total = sum(tracer.self_times())
    lines = [
        f"workload {workload.name}, seed {args.seed}: traced run of {len(items)} instances",
        _machine(),
        f"wall untraced {plain_s:.3f} s, traced {traced_s:.3f} s"
        f" = layer self times {self_total:.3f} s + untraced remainder"
        f" {traced_s - self_total:.3f} s ({(traced_s - self_total) / traced_s:.2%} of the wall)",
        "waiting time: not reported; salemtori neither queues work nor runs in parallel,"
        " so no layer waits",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    lines += [f"{name:48s} {metrics[name]!r} {units[name]}" for name in units if name in metrics]
    lines += _problem_lines(problems + bad)
    failed = _failed_count(bad)
    correct = failed == 0 and not problems
    _report(lines, correct, len(items), failed, metrics, units)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import workloads

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    instances, setup_s, gen_s, problems = setup(workload, args.seed)
    if args.trace:
        traced(workload, args, instances, problems)
    else:
        untraced(workload, args, instances, import_s, (setup_s, gen_s), problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
