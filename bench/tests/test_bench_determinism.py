"""The benchmark's deterministic counters repeat exactly for a fixed seed.

Each case runs a short traced pass twice, each time in a fresh interpreter
(the benchmark re-imports `recat`, which must not disturb this process), and
compares the tnorm call counts, enumeration counts, coweight-family builds
and the input and output digests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import run
print(json.dumps(run.traced_counters({workload!r}, {seed}, {count})))
"""


def traced_counters(workload, seed, count):
    code = SCRIPT.format(bench=str(BENCH), workload=workload, seed=seed, count=count)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload, count",
    [("enum_classify", 3), ("sampled_calculus", 8), ("cli_batch", 27)],
)
def test_counters_repeat_for_a_fixed_seed(workload, count):
    first = traced_counters(workload, 5, count)
    second = traced_counters(workload, 5, count)
    assert first == second
    counters = first["counters"]
    assert counters["scalar_calls"]["conj"] > 0
    assert first["input_digest"] and first["output_digest"]
    if workload == "enum_classify":
        assert counters["enum_candidates"] >= counters["enum_kept"] > 0
        assert counters["calls"]["classify._coweight_family"] > 0

