"""cubicloop benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

Ops run one after another in this single-threaded process (a closed loop
with one client).  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` each op runs twice on the same inputs, untraced and then
traced, and the per-layer metrics come from the traced copy.  The last line
of standard output is one JSON object; the lines before it give every
metric by name with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# numpy must not start worker threads: the benchmark is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import kernel_seconds, nominal_seconds
from tracing import PER_LAYER, Tracer, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5


def _import_program() -> None:
    """Put the checkout's own sources first on the path and make sure they,
    not an installed copy, are what gets imported."""
    if not (SRC / "cubicloop" / "__init__.py").is_file():
        raise SystemExit(f"error: no cubicloop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubicloop

    if Path(cubicloop.__file__).resolve().parent != SRC / "cubicloop":
        raise SystemExit(f"error: imported cubicloop from {cubicloop.__file__}, not {SRC}")


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter until it has done the
    workload's set-up, once per SETUP_RUNS child processes; and each of
    these times over the mean time of the python calibration kernel just
    before and just after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup"]
    cmd += ["--reference", str(args.reference)]
    times, scaled = [], []
    kernel_s = kernel_seconds("python")
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited with {child.returncode}")
        kernel_before, kernel_s = kernel_s, kernel_seconds("python")
        scaled.append(times[-1] / ((kernel_before + kernel_s) / 2))
    return times, scaled


def _run_op(op, check, st, s: int) -> tuple[float, dict | None]:
    """Time one op and gate its outputs; (seconds, extras or None if failed)."""
    t0 = perf_counter()
    try:
        try:
            out = op(st, s)
        finally:
            elapsed = perf_counter() - t0
        return elapsed, check(st, s, out)
    except Exception:
        print(f"op with seed {s} failed:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, None
    finally:
        st.tmp.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference_circ.hex")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        workloads.setup(args.reference, OUT)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    setup_times, setup_scaled = _setup_seconds(args)
    st = workloads.setup(args.reference, OUT)
    op, check, kind = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    op_times: list[float] = []
    # Each untraced op's wall time over the mean time of the calibration
    # kernel just before and just after it.
    scaled: list[float] = []
    kernel_s = kernel_seconds(kind)
    overheads: list[float] = []
    layer: list[dict] = []
    rounds: list[float] = []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    while True:
        start = perf_counter()
        # Untraced ops each get their own seed, so no cache inside the
        # program can serve one op from another; traced ops repeat the
        # workload seed, so their counts describe one fixed input.
        s = args.seed if tracer else args.seed + len(op_times)
        plain_s, extras = _run_op(op, check, st, s)
        attempted += 1
        failed += extras is None
        op_times.append(plain_s)
        if tracer is None:
            kernel_before, kernel_s = kernel_s, kernel_seconds(kind)
            scaled.append(plain_s / ((kernel_before + kernel_s) / 2))
        else:
            tracer.install()
            tracer.begin_op(len(layer))
            traced_s, extras = _run_op(tracer.op_wrapper(op), check, st, s)
            tracer.uninstall()
            attempted += 1
            failed += extras is None
            overheads.append(traced_s - plain_s)
            layer.append({**tracer.op_metrics(len(layer)), **(extras or {})})
        rounds.append(perf_counter() - start)
        # Start no round that would likely end after the deadline.
        if perf_counter() + statistics.median(rounds) > deadline:
            break

    print(f"workload {args.workload}: seed {args.seed}, {attempted} ops attempted, {failed} failed")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_scaled) * nominal_seconds("python"), "s"),
            "op_s": (statistics.median(scaled) * nominal_seconds(kind), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "setup_s": f" (median of {len(setup_times)} set-ups at nominal host speed;"
            f" wall median {statistics.median(setup_times):.6g} s)",
            "op_s": f" (median of {len(op_times)} ops at nominal host speed;"
            f" wall median {statistics.median(op_times):.6g} s)",
        }
    else:
        spans = OUT / f"spans-{args.workload}.tsv"
        tracer.write(spans)
        values = median_metrics(layer)
        values["trace.overhead_s"] = statistics.median(overheads)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        notes = {}
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}{notes.get(name, '')}")
    if tracer is None:
        print(f"  failed_ops_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    else:
        print(f"  (medians over {len(layer)} traced ops; spans in {spans.relative_to(ROOT)})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
