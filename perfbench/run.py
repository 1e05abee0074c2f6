"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload moderation-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced run that splits the time by layer.
``--workload all`` runs every workload in turn, each in a process of its
own so that none inherits another's heap or peak RSS (its last line names
each metric ``<workload>/<metric>``).  Each run prints its
metrics one per line (name, value, unit), writes its full record (with
the environment fingerprint, and the spans of a traced run) under
``perfbench/results/``, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import served
import sims
from common import SourceMissing, fingerprint, use_source, write_record

#: name -> (workload, module with its run / run_traced)
WORKLOADS = {
    "moderation-dense": (sims.MODERATION_DENSE, sims),
    "multilingual-churn": (sims.MULTILINGUAL_CHURN, sims),
    "served-sqlite": (served.SERVED_SQLITE, served),
}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, module = WORKLOADS[name]
    started = time.perf_counter()
    if trace:
        outcome = module.run_traced(workload, seed, seconds)
        metrics = outcome.pop("layers")
    else:
        outcome = module.run(workload, seed, seconds)
        metrics = outcome.pop("contract")
    record = {
        "fingerprint": fingerprint(name, seed, workload.params()),
        "trace": trace,
        "run_wall_s": time.perf_counter() - started,
        "correct": outcome["failed"] == 0,
        "metrics": metrics,
        **outcome,
    }
    write_record(record, f"{name}-seed{seed}-trace{int(trace)}")
    return record


def _print(record: dict) -> None:
    print(f"# {record['fingerprint']['workload']} seed={record['fingerprint']['seed']}")
    shown = dict(record.get("detail", {}))
    shown.update(record["metrics"])
    for name, entry in shown.items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in record.get("notes", {}).items():
        print(f"{name:36s} {value}")
    for failure in record["failures"]:
        print(f"FAILED CHECK: {failure}")


def run_apart(name: str, args: argparse.Namespace) -> dict:
    """One workload in a fresh interpreter: its output is passed through
    and its last line (the result object) returned."""
    command = [
        sys.executable, __file__,
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True).stdout
    *shown, last = out.rstrip("\n").split("\n")
    print("\n".join(shown), flush=True)
    return json.loads(last)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        _print(record)
        result = {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    else:
        results = {name: run_apart(name, args) for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
