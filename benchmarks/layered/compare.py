"""Compare two sets of runs: ``python -m benchmarks.layered.compare OLD NEW``.

``OLD`` and ``NEW`` are files written by ``run.py --out`` (one JSON record
per line; a file may hold many runs) or directories of such files.  For each
workload and metric the medians and quartiles of both sides are printed with
the change relative to ``OLD``, and end-to-end metrics get a verdict against
the bound ``BENCHMARK.json`` fixes:

* ``worse``       the median moved the wrong way by more than the bound and
                  by more than the run-to-run spread;
* ``better``      it moved the right way by more than ``OLD``'s own spread;
* ``unresolved``  neither, and the spread is wider than the bound, so
                  "no change" cannot be told from a change of bound size;
* ``unchanged``   neither, and the spread is within the bound.

The spread of a side is its interquartile range over its median.  A side with
a single run has no spread of its own: it gets the bound, or what the
across-segment CV recorded in that run predicts (``SINGLE_RUN`` below) if
that is larger, so one run per side resolves only changes beyond the bound.

The failed share of a workload is operations failed over operations sent,
plus sampled answers the oracle rejected over answers sampled (one answer in
twenty is sampled, so the two are shares of different totals).

Exits 1 on any ``worse``, on a higher failed share, or when ``NEW`` lacks a
workload or metric that ``OLD`` has.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# A metric is the median of six segments.  If segments scatter with
# coefficient of variation c, that median scatters with about 1.25 c / sqrt(6)
# and the interquartile range of repeated runs is 1.35 times that: 0.7 c.
SINGLE_RUN = 0.7


def load(path: Path) -> list[dict]:
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    records = []
    for file in files:
        if file.is_file():
            with open(file, encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
    return records


def summarise(values: list[float], fallback: float) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` of one side of one metric."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, fallback
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def verdict(change: float, old_spread: float, new_spread: float,
            better: str, bound: float) -> str:
    """``change`` is (new - old) / |old| of the medians."""
    worse_by = change if better == "lower" else -change
    spread = max(old_spread, new_spread)
    if worse_by > bound and worse_by > spread:
        return "worse"
    if -worse_by > old_spread and worse_by < 0:
        return "better"
    return "unresolved" if spread > bound else "unchanged"


def failed_share(tally: list[int]) -> float:
    """``tally`` sums ``failed, attempted, wrong, checked`` over a side's runs."""
    failed, attempted, wrong, checked = tally
    return (failed - wrong) / max(1, attempted) + wrong / max(1, checked)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(Path(arg)) for arg in argv]
    # (workload, metric) -> per side: values, CVs; workload -> failed, attempted
    values = [defaultdict(list) for _ in sides]
    noise = [defaultdict(list) for _ in sides]
    failures = [defaultdict(lambda: [0, 0, 0, 0]) for _ in sides]
    for side, records in enumerate(sides):
        for record in records:
            tally = failures[side][record["workload"]]
            for slot, key in enumerate(("failed", "attempted", "wrong", "checked")):
                tally[slot] += record[key]
            for name, entry in record["metrics"].items():
                key = (record["workload"], name)
                values[side][key].append(entry["value"])
                noise[side][key].append(entry.get("cv", 0.0))
    bad = False
    print(f"{'workload':16s} {'metric':30s} {'old median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>9s}  verdict")
    for key in sorted(values[0]):
        workload, name = key
        if key not in values[1]:
            # A metric that vanished cannot be shown not to have regressed.
            print(f"{workload:16s} {name:30s} {'':>34s} {'absent':>34s} {'':9s}  missing")
            bad = True
            continue
        bound = end_to_end[name]["bound"] if name in end_to_end else 0.0
        summary = [
            summarise(values[side][key], max(bound, SINGLE_RUN * max(noise[side][key])))
            for side in (0, 1)
        ]
        cells = [f"{m:.4g} [{a:.4g}, {b:.4g}]" for m, a, b, _ in summary]
        old = summary[0][0]
        change = (summary[1][0] - old) / abs(old) if old else 0.0
        word = "-"  # per-layer: no bound, so no verdict
        if name in end_to_end:
            word = verdict(change, summary[0][3], summary[1][3],
                           end_to_end[name]["better"], bound)
            bad = bad or word == "worse"
        print(f"{workload:16s} {name:30s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{change:+8.1%}  {word}")
    for workload in sorted(failures[0]):
        if workload not in failures[1]:
            continue  # reported above, metric by metric
        shares = [failed_share(failures[side][workload]) for side in (0, 1)]
        higher = shares[1] > shares[0]
        bad = bad or higher
        print(f"{workload:16s} {'failed / attempted':30s} {shares[0]:>34.6f} "
              f"{shares[1]:>34.6f} {'':9s}  {'worse' if higher else 'unchanged'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
