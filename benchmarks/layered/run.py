"""Run the benchmark: ``python3 benchmarks/layered/run.py [options]``.

With ``--workload NAME --trace 0|1`` (how the driver calls it) one workload
runs in one mode and the last line of standard output is its result object.
Without them every workload runs, tracing off and then on over the same
built index, and one result object is printed per workload and mode.  Each
run appends its full record (host block, noise figures) to ``--out``; a
traced run leaves its spans in ``results/spans-<workload>.json``.
"""

from __future__ import annotations

import os

# BLAS / OpenMP pools are sized when NumPy loads: pin them first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))
    import benchmarks.layered  # noqa: F401

    __package__ = "benchmarks.layered"

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401

from . import workloads as wl  # noqa: E402
from .protocol import (  # noqa: E402
    REFERENCE_RATE,
    HostSpeed,
    host_block,
    metric,
    resident_mb,
)


def run_workload(name: str, args, profile: wl.Profile, seconds: float) -> list[dict]:
    """Set up, measure and/or trace one workload; one record per mode."""
    modes = [args.trace] if args.trace is not None else [0, 1]
    workload = wl.make(name, args.seed, profile, seconds * len(modes))
    if (os.cpu_count() or 1) < workload.generator_threads:
        sys.exit(
            f"{name}: the load generator needs {workload.generator_threads} "
            f"threads but this host has {os.cpu_count()} core(s); refusing to "
            "measure a generator that competes with itself"
        )
    records = []
    try:
        # Set-up runs several times when its time is a reported metric, and
        # a short one more often: its median must be as steady as a long one's.
        repeats, budget = (
            (profile.setup_repeats, profile.setup_seconds) if 0 in modes else (1, 0.0)
        )
        setups: list[float] = []
        speed = HostSpeed()  # of the host while setting up
        while len(setups) < repeats or (sum(setups) < budget and len(setups) < 9):
            gc.collect()  # the previous set-up's index, before the clock starts
            speed.sample()
            begun = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begun)
            if len(setups) == 1:
                # What one set-up leaves resident; later ones add their
                # predecessor's fragments.
                resident = resident_mb()
        speed.sample()
        results: dict[int, dict] = {}
        if 0 in modes:
            results[0] = workload.measure(seconds)
            scaled = [took * factor for took, factor in zip(setups, speed.paired())]
            results[0]["setup_s"] = metric(
                statistics.median(scaled), "s",
                raw=statistics.median(setups), samples=len(setups),
            )
            results[0]["resident_mb"] = metric(resident, "MiB")
        if 1 in modes:
            results[1] = workload.trace(seconds)
        final = workload.finish()
        host = host_block(args.seed, workload.generator_threads)
        host["speed"] = {
            "reference_rate": REFERENCE_RATE,
            "rates": workload.speed.rates,  # of the timed phase
            "setup_rates": speed.rates,
        }
        if 1 in modes:
            values = {**results[1], **final}
            values["host.calib_evals_per_s"] = host["host.calib_evals_per_s"]
            unknown = set(values) - set(wl.PER_LAYER)
            if unknown:
                raise KeyError(f"per-layer names not in the catalogue: {unknown}")
            results[1] = {
                key: metric(values.get(key, 0.0), unit)
                for key, unit in wl.PER_LAYER.items()
            }
            workload.tracer.dump(HERE / "results" / f"spans-{name}.json")
    finally:
        workload.close()
    failed = workload.failed + workload.wrong
    for mode, metrics in results.items():
        records.append({
            "workload": name,
            "trace": mode,
            "seconds": seconds,
            "smoke": args.smoke,
            "host": host,
            "correct": failed == 0,
            "attempted": workload.attempted,
            "failed": failed,
            "checked": workload.checked,
            "wrong": workload.wrong,
            "notes": workload.notes,
            "metrics": metrics,
        })
    return records


def show(record: dict) -> None:
    """The human-readable table, then the result object on its own line."""
    print(f"== {record['workload']}  trace={record['trace']}  "
          f"seed={record['host']['seed']}  {record['seconds']:g} s ==")
    for name, entry in record["metrics"].items():
        noise = "".join(
            f"  {key}={entry[key]:.4g}" for key in ("raw", "cv", "samples", "beyond")
            if key in entry
        )
        print(f"  {name:32s} {entry['value']:14.4f} {entry['unit']}{noise}")
    for note in record["notes"]:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, 2 s phases: proves it runs, measures nothing")
    parser.add_argument("--out", type=Path,
                        help="append one JSON record per workload and mode")
    args = parser.parse_args(argv)
    profile = wl.SMOKE if args.smoke else wl.FULL
    seconds = args.seconds if args.seconds is not None else profile.seconds
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    correct = True
    try:
        for name in names:
            for record in run_workload(name, args, profile, seconds):
                if args.out is not None:
                    args.out.parent.mkdir(parents=True, exist_ok=True)
                    with open(args.out, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps(record) + "\n")
                show(record)
                correct = correct and record["correct"]
    finally:
        if wl.WORK.is_dir() and not any(wl.WORK.iterdir()):
            wl.WORK.rmdir()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
