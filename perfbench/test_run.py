"""Smoke test of the benchmark itself: every workload at its smallest size
(one op, or one untraced/traced pair) reports every registered metric, and
a reference table with one changed cell makes ops fail.

    python3 -m pytest perfbench/test_run.py
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import REFERENCE, load_reference  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_registered_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload):
    lines, res = run(workload, 0)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 1, 0)
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert "  failed_ops_frac = 0 (0 of 1 ops)" in lines

    _, res = run(workload, 1)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 0)
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    eisenstein = sum(v["value"] for k, v in res["metrics"].items() if k.startswith("eisenstein."))
    assert (eisenstein == 0) == (workload == "verify")


def _flipped_cell(workload: str) -> tuple[int, int]:
    if workload == "admissibility":
        # the first cell the seed-0 op samples
        rng = random.Random("admissibility:0")
        return rng.randrange(243), rng.randrange(243)
    return 22, 94


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_wrong_reference_cell_fails_ops(workload, tmp_path):
    circ = load_reference(REFERENCE)
    i, j = _flipped_cell(workload)
    circ[i, j] = (circ[i, j] + 1) % 243
    reference = tmp_path / "flipped.hex"
    reference.write_text("".join(row.astype(np.uint8).tobytes().hex() + "\n" for row in circ))
    lines, res = run(workload, 0, "--reference", str(reference))
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 1, 1)
    assert "  failed_ops_frac = 1 (1 of 1 ops)" in lines
