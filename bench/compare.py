"""Compare benchmark records of two commits, workload by workload.

    python3 bench/compare.py PARENT_OUT_DIR CHANGE_OUT_DIR

Each directory holds the `BENCH_<workload>_seed<seed>_trace<t>.json` records
one checkout wrote.  Runs are paired by workload, trace flag and seed.  For
each metric the script prints both sides' median and quartiles, the share of
pairs the change won (ties count for neither), and a verdict by the rule in
bench/README.md, using the bounds in BENCHMARK.json.  Input digests must agree
(the same benchmark made the same inputs); output digests that differ mean a
verdict or an output byte changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        rec = json.loads(path.read_text())
        prov = rec["provenance"]
        runs[(rec["workload"], prov["trace"], prov["seed"])] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    groups = sorted({(w, t) for (w, t, _) in parent} & {(w, t) for (w, t, _) in change})
    for workload, trace in groups:
        seeds = sorted(s for (w, t, s) in parent if (w, t) == (workload, trace) and (w, t, s) in change)
        pairs = [(parent[(workload, trace, s)], change[(workload, trace, s)]) for s in seeds]
        print(f"\n{workload} trace={trace}: {len(pairs)} paired seeds {seeds}")
        for p, c in pairs:
            if p["input_digest"] != c["input_digest"]:
                print(f"  seed {p['provenance']['seed']}: INPUT DIGEST DIFFERS (the benchmark changed)")
                status = 1
            if p.get("output_digest") != c.get("output_digest"):
                print(f"  seed {p['provenance']['seed']}: output digest differs (a verdict or output byte changed)")
            if p.get("tail_percentile") != c.get("tail_percentile"):
                print(f"  seed {p['provenance']['seed']}: item_tail_ms is p{p.get('tail_percentile')} vs p{c.get('tail_percentile')}")
        for name in pairs[0][0]["metrics"]:
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            sign = 1 if better.get(name, "lower") == "lower" else -1
            wins = sum(sign * (b - a) < 0 for a, b in zip(pv, cv))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            verdict = ""
            if name in bound and pm:
                worse = sign * (cm - pm) / abs(pm)
                spread = (p3 - p1) / abs(pm)
                if wins >= 0.9 * len(pairs) and sign * (pm - cm) > (p3 - p1):
                    verdict = "GAIN"
                elif spread > bound[name] and not all(sign * (b - a) < 0 for a in pv for b in cv):
                    verdict = "unresolved (parent spread above bound)"
                elif worse > bound[name]:
                    verdict = f"REGRESSION (worse by {worse:.1%}, bound {bound[name]:.0%})"
                    status = 1
                else:
                    verdict = "within bound"
            unit = pairs[0][0]["metrics"][name]["unit"]
            print(
                f"  {name:38s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}] {unit}"
                f"  won {wins}/{len(pairs)} {verdict}"
            )
        pf = [p["failed"] for p, _ in pairs]
        cf = [c["failed"] for _, c in pairs]
        print(f"  {'failed (sum over seeds)':38s} parent {sum(pf)}  change {sum(cf)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
