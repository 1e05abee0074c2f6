"""Summarise and compare sets of result records.

    python3 perfbench/compare.py perfbench/results/*-trace0.json
    python3 perfbench/compare.py --base OLD_DIR --head NEW_DIR

With plain files it prints, per workload and metric, the median and the
quartile spread (Q3 - Q1 over the median) of the runs given.  With
``--base``/``--head`` it compares the medians of two sets of records and
flags any pair whose environment fingerprints differ (core count, Python,
platform or workload parameters) as not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import comparable


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """workload -> records (a directory stands for its ``*.json``)."""
    out: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            record = json.loads(file.read_text())
            if not record.get("trace"):
                out[record["fingerprint"]["workload"]].append(record)
    return out


def summary(records: list[dict]) -> dict[str, tuple[float, float, str]]:
    """metric -> (median, quartile spread, unit) over the records."""
    values: dict[str, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    for record in records:
        shown = {**record.get("detail", {}), **record["metrics"]}
        for name, entry in shown.items():
            values[name].append(entry["value"])
            units[name] = entry["unit"]
    out = {}
    for name, series in values.items():
        mid = statistics.median(series)
        spread = 0.0
        if len(series) >= 2 and mid:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid
        out[name] = (mid, spread, units[name])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--base", type=Path)
    parser.add_argument("--head", type=Path)
    args = parser.parse_args(argv)
    if args.base and args.head:
        base, head = load([args.base]), load([args.head])
        for workload in sorted(set(base) | set(head)):
            if not base.get(workload) or not head.get(workload):
                print(f"{workload}: missing on one side")
                continue
            diffs = comparable(
                base[workload][0]["fingerprint"], head[workload][0]["fingerprint"]
            )
            flag = f"  NOT COMPARABLE ({', '.join(diffs)})" if diffs else ""
            print(f"# {workload}{flag}")
            old, new = summary(base[workload]), summary(head[workload])
            for name in sorted(set(old) & set(new)):
                (a, sa, unit), (b, sb, _) = old[name], new[name]
                change = (b - a) / a if a else 0.0
                print(
                    f"{name:24s} {a:>12.5g} -> {b:>12.5g} {unit:6s} "
                    f"{change:+8.2%}  (spread {sa:.2%} / {sb:.2%})"
                )
        return 0
    for workload, records in sorted(load(args.records).items()):
        diffs = sorted(
            {key for r in records for key in comparable(records[0]["fingerprint"], r["fingerprint"])}
        )
        flag = f"  NOT COMPARABLE ({', '.join(diffs)})" if diffs else ""
        print(f"# {workload}: {len(records)} runs{flag}")
        for name, (mid, spread, unit) in sorted(summary(records).items()):
            print(f"{name:24s} median {mid:>12.5g} {unit:6s} spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
