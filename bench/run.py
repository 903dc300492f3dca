"""Layered benchmark for recat: end-to-end metrics per workload, per-module traced run.

Run from the repository root:

    python3 bench/run.py --workload enum_classify --seed 1 --seconds 40 --trace 0

Each workload runs in this one process as a single closed-loop client: one
thread, the next item starts when the previous one ends.  With `--trace 0` the
run measures end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes over the workload's digest items and reports per-module metrics
(see tracing.py).  End-to-end times are scaled to a reference machine speed by
a calibration kernel run between items (see calibrate.py); the unscaled
figures are printed and recorded beside them.  Every metric is printed as
`name value unit`; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A record with provenance, digests and counters is written to
`bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json`.

Exit status: 0 when every self-check held, 1 after printing the result when a
self-check failed, 2 without a result when the benchmark could not start
(for example, `src/recat` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracing import SPANNED, Tracer, probe_ns_per_op  # noqa: E402
from workloads import WORKLOADS, Outcome, WrongResult, canonical  # noqa: E402

MODULES = ("tnorm", "values", "poset", "cat", "presheaf", "classify", "balls", "laws", "gen", "cli")
SETUP_REPEATS = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
WARMUP_S = 1.0  # untimed warm-up over the leading (digest) items, at most this long
CLI_COMMANDS = ("check", "classify", "complete", "balls", "laws")


class StartError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_recat():
    """Fresh import of every recat module from this checkout's src/."""
    if not (SRC / "recat" / "__init__.py").is_file():
        raise StartError(f"no recat package under {SRC}")
    for name in [n for n in sys.modules if n == "recat" or n.startswith("recat.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    R = SimpleNamespace(**{m: importlib.import_module(f"recat.{m}") for m in MODULES})
    if Path(R.tnorm.__file__).resolve().parent != SRC / "recat":
        raise StartError(f"imported recat from {R.tnorm.__file__}, not from {SRC}")
    return R


def setup(wl, seed, scratch):
    """Set up SETUP_REPEATS times.

    Returns (R, items, workdir, raw set-up times, scaled set-up times, input
    digests); each time is scaled by the calibrations just before and after it.
    """
    times, scaled, digests = [], [], []
    before = calibrate.measure(3)
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(scratch, f"setup{i}")
        t0 = time.perf_counter()
        R = import_recat()
        os.mkdir(workdir)
        items = wl.setup(R, seed, workdir)
        times.append(time.perf_counter() - t0)
        after = calibrate.measure(3)
        scaled.append(calibrate.scaled(times[-1], before, after))
        before = after
        digests.append(sha256(canonical([wl.describe(it) for it in items])))
    return R, items, workdir, times, scaled, digests


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def execute(wl, R, item) -> Outcome:
    try:
        return wl.run(R, item)
    except WrongResult as exc:
        return Outcome({"wrong": str(exc)}, failed=True, wrong=True)
    except Exception as exc:  # the library raised: a failed operation
        return Outcome({"raised": type(exc).__name__}, failed=True)


def run_pass(wl, R, items, tracer=None):
    """Run each item once, in order; returns ([(latency s, outcome)], elapsed s)."""
    run = execute if tracer is None else tracer.item_runner(execute, wl.name)
    results = []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        outcome = run(wl, R, item)
        results.append((time.perf_counter() - t0, outcome))
    return results, time.perf_counter() - start


def output_digest(results, count):
    return sha256("\n".join(canonical(o.verdict) for _, o in results[:count]))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_BEYOND samples above its rank."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            best = p
    return best


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(wl, R, items, seconds):
    """Warm up, then run items in order (cycling) for `seconds`, and at least once each.

    The first run of an item is its check: `attempted` and `failed` count the
    distinct items by it, and every later run of the item must repeat its
    verdict exactly.  Returns (metrics, results, info, problems, checked).
    """
    first = {}  # index in items -> (verdict text, outcome of the first run)
    problems = []

    def check(i, outcome):
        text = canonical(outcome.verdict)
        if i not in first:
            first[i] = (text, outcome)
        elif first[i][0] != text and len(problems) < 5:
            problems.append(f"item {i} gave a different verdict when run again")

    warm_until = time.perf_counter() + WARMUP_S
    for i in range(wl.DIGEST_ITEMS):
        check(i, execute(wl, R, items[i]))
        if time.perf_counter() >= warm_until:
            break

    # Every run covers the whole schedule at least once, so `attempted`,
    # `failed` and the mix of items depend on the seed alone.
    results = []
    start = time.perf_counter()
    until = start + seconds
    clock = calibrate.Clock()
    while len(results) < len(items) or time.perf_counter() < until:
        i = len(results) % len(items)
        t0 = time.perf_counter()
        outcome = execute(wl, R, items[i])
        results.append((time.perf_counter() - t0, outcome))
        clock.item_done()
        check(i, outcome)
    clock.close()
    elapsed = time.perf_counter() - start

    # Each distinct item counts once, at the median of its runs: the loop
    # reaches the first items of the schedule more often than the last, and
    # that must not change the mix the metrics describe.
    runs, raw_runs = {}, {}
    for n, ((dt, _), f) in enumerate(zip(results, clock.factors())):
        runs.setdefault(n % len(items), []).append(dt * 1000 * f)
        raw_runs.setdefault(n % len(items), []).append(dt * 1000)
    lat = sorted(statistics.median(v) for v in runs.values())
    raw = sorted(statistics.median(v) for v in raw_runs.values())
    tail_p = tail_percentile(len(lat))
    metrics = {
        "items_per_s": metric(1000 * len(lat) / sum(lat), "1/s"),
        "item_p50_ms": metric(percentile(lat, 50), "ms"),
        "item_tail_ms": metric(percentile(lat, tail_p), "ms"),
    }
    info = {
        "elapsed_s": elapsed,
        "items_run": len(results),
        "unscaled": {
            "items_per_s": 1000 * len(raw) / sum(raw),
            "items_per_s_mean": len(results) / elapsed,
            "item_p50_ms": percentile(raw, 50),
            "item_tail_ms": percentile(raw, tail_p),
        },
        "calibration_s": clock.samples,
        "tail_percentile": tail_p,
        "tail_samples_beyond": len(lat) - math.ceil(tail_p / 100 * len(lat)),
        "output_digest": output_digest(results, wl.DIGEST_ITEMS),
    }
    checked = [first[i][1] for i in sorted(first)]
    return metrics, results, info, problems, checked


def traced_run(wl, R, items, seconds):
    """Alternate untraced and traced passes over the digest items until `seconds`.

    Counts come from the first traced pass and must repeat in every later one;
    times are medians over the passes.
    """
    subset = items[: wl.DIGEST_ITEMS]
    tracer = Tracer(R)
    caches = (R.tnorm._conj_cached, R.tnorm._imp_cached)
    before = [c.cache_info() for c in caches]
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for on in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not on:
                results, elapsed = run_pass(wl, R, subset)
                plain.append(SimpleNamespace(results=results, elapsed=elapsed))
                continue
            tracer.reset()
            with tracer:
                results, elapsed = run_pass(wl, R, subset, tracer=tracer)
            keep = not traced  # spans and operands of the first traced pass only
            traced.append(
                SimpleNamespace(
                    results=results,
                    elapsed=elapsed,
                    self_ns=dict(tracer.self_ns),
                    parse_ns=tracer.parse_ns,
                    counters=tracer.counters(),
                    spans=tracer.spans if keep else None,
                    dropped=tracer.dropped_spans,
                    operands=tracer.operands if keep else None,
                )
            )
    after = [c.cache_info() for c in caches]
    hits = sum(b.hits - a.hits for a, b in zip(before, after))
    misses = sum(b.misses - a.misses for a, b in zip(before, after))
    first = traced[0]
    exact_ns, float_ns = probe_ns_per_op(R, first.operands)

    c = first.counters
    calls = c["calls"]
    median = statistics.median
    m = {
        "tnorm.conj_calls": metric(c["scalar_calls"].get("conj", 0), "count"),
        "tnorm.imp_calls": metric(c["scalar_calls"].get("imp", 0), "count"),
        "tnorm.cache_hit_ratio": metric(hits / max(1, hits + misses), "ratio"),
        "tnorm.exact_ns_per_op": metric(exact_ns, "ns"),
        "tnorm.float_ns_per_op": metric(float_ns, "ns"),
    }
    for module in SPANNED:
        m[f"{module}.calls"] = metric(c["layer_calls"].get(module, 0), "count")
        m[f"{module}.self_s"] = metric(median(t.self_ns.get(module, 0) for t in traced) / 1e9, "s")
    m["presheaf.enum_candidates"] = metric(c["enum_candidates"], "count")
    m["presheaf.enum_kept"] = metric(c["enum_kept"], "count")
    m["presheaf.enum_yield"] = metric(c["enum_kept"] / max(1, c["enum_candidates"]), "ratio")
    m["classify.conically_flat_per_classify"] = metric(
        calls.get("classify.is_conically_flat", 0) / max(1, calls.get("classify.classify", 0)), "ratio"
    )
    m["classify.coweight_family_builds"] = metric(calls.get("classify._coweight_family", 0), "count")
    plain_results = [r for p in plain for r in p.results]
    for command in CLI_COMMANDS:
        lat = sorted(dt * 1000 for dt, o in plain_results if o.command == command)
        m[f"cli.{command}_p50_ms"] = metric(percentile(lat, 50) if lat else 0.0, "ms")
    m["cli.parse_s"] = metric(median(t.parse_ns for t in traced) / 1e9, "s")
    m["cli.emit_bytes"] = metric(sum(o.stdout_bytes for _, o in first.results), "bytes")
    m["cli.exit_mismatches"] = metric(sum(o.exit_mismatch for _, o in first.results), "count")
    plain_ips = len(subset) / median(p.elapsed for p in plain)
    traced_ips = len(subset) / median(t.elapsed for t in traced)
    m["trace.overhead_ratio"] = metric(1 - traced_ips / plain_ips, "ratio")

    problems = []
    if any(t.counters != c for t in traced):
        problems.append("deterministic counters differ between traced passes")
    digests = {output_digest(p.results, len(subset)) for p in plain + traced}
    if len(digests) != 1:
        problems.append("verdicts differ between passes over the same items")
    info = {
        "elapsed_s": time.perf_counter() - start,
        "items_per_pass": len(subset),
        "items_per_s_untraced": plain_ips,
        "items_per_s_traced": traced_ips,
        "untraced_pass_s": [p.elapsed for p in plain],
        "traced_pass_s": [t.elapsed for t in traced],
        "output_digest": digests.pop() if len(digests) == 1 else None,
        "counters": c,
        "spans": {"names": tracer.names, "spans": first.spans, "dropped": first.dropped},
    }
    checked = [o for _, o in plain[0].results]
    return m, plain_results + [r for t in traced for r in t.results], info, problems, checked


def traced_counters(workload, seed, count):
    """Counters, failures and digests of one traced pass over the first `count` items.

    bench/tests calls this twice per seed to check that they repeat exactly.
    """
    wl = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as scratch:
        R = import_recat()
        items = wl.setup(R, seed, scratch)
        tracer = Tracer(R)
        with wl.context(scratch), tracer:
            results, _ = run_pass(wl, R, items[:count], tracer=tracer)
    return {
        "counters": tracer.counters(),
        "failures": _failure_summary(o for _, o in results),
        "input_digest": sha256(canonical([wl.describe(it) for it in items])),
        "output_digest": output_digest(results, count),
    }


def commit_id():
    """HEAD of the checkout's git metadata, read without running git."""
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    wl = WORKLOADS[args.workload]

    try:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as scratch:
            R, items, workdir, setup_times, setup_scaled, input_digests = setup(wl, args.seed, scratch)
            with wl.context(workdir):
                run = traced_run if args.trace else timed_run
                metrics, results, info, problems, checked = run(wl, R, items, args.seconds)
    except StartError as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2

    if len(set(input_digests)) != 1:
        problems.append("repeated set-ups from one seed built different inputs")
    if info["output_digest"] is None:
        problems.append("output digest missing")
    wrong = [o.verdict["wrong"] for o in checked + [o for _, o in results] if o.wrong]
    problems.extend(sorted(set(wrong)))
    # an operation is one distinct scheduled item, counted at its first run
    attempted = len(checked)
    failed = sum(o.failed for o in checked)
    if not args.trace:
        metrics["setup_s"] = metric(statistics.median(setup_scaled), "s")
        metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    record = {
        "workload": wl.name,
        "provenance": {
            "commit": commit_id(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_repeats": SETUP_REPEATS,
        },
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": _failure_summary(checked),
        "problems": problems,
        "input_digest": input_digests[0],
        "setup_times_s": setup_times,
        "setup_times_scaled_s": setup_scaled,
        "metrics": metrics,
    }
    spans = info.pop("spans", None)
    record.update(info)
    if spans is not None:
        spans_path = OUT / f"spans_{wl.name}_seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record_path = OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace} commit {record['provenance']['commit'][:12]}")
    for name, mv in metrics.items():
        print(f"  {name:40s} {mv['value']:.6g} {mv['unit']}")
    print(f"  {'failed_ratio':40s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, value in info.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':40s} {value:.6g}")
    if "tail_percentile" in info:
        print(f"  item_tail_ms is p{info['tail_percentile']:g} of {attempted} distinct items, {info['tail_samples_beyond']} beyond it")
    print(f"  input_digest  {input_digests[0]}")
    print(f"  output_digest {info['output_digest']}")
    print(f"  record {record_path.relative_to(ROOT)}")
    for p in problems:
        print(f"bench: SELF-CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _failure_summary(outcomes):
    """Failed items grouped by what happened, e.g. 'balls -> raised ValueError'."""
    counts = {}
    for o in outcomes:
        if o.failed:
            v = o.verdict
            key = f"{' '.join(v['argv'][:1])} -> {v['exit']}" if "argv" in v else canonical(v)[:120]
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


if __name__ == "__main__":
    sys.exit(main())
