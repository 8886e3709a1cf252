"""Compare two run sets: ``compare.py OLD.json NEW.json``.

Each file is a trajectory that ``run.py --all --runs N --out FILE``
appends run sets to; ``--old-set`` / ``--new-set`` pick one by index
(default: the last).  For each (metric, workload) pair the
verdict follows the rule the benchmark fixed in ``BENCHMARK.json``:

* ``worse`` — NEW's median is worse than OLD's by more than the bound;
* ``better`` — NEW's median is better by more than OLD's own
  run-to-run spread (the distance between its quartiles);
* ``same`` — neither;
* ``unresolved`` — OLD's spread is wider than the bound, so a
  regression of the size the bound forbids could hide in it — unless
  every NEW run reads better than every OLD run, which is ``better``.

``failed_share`` (operations failed ÷ attempted over the set's runs,
crashed runs included) has the bound *any rise*: it is ``worse`` when
NEW's is above OLD's.  A workload or metric that OLD has and NEW lacks
is ``worse`` too: failed operations carry no latency, so a set must not
read well by losing them.

Exit status 1 if any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(
    old: Sequence[float], new: Sequence[float], *, better: str, bound: float
) -> Tuple[str, float, float]:
    """(verdict, change, spread): change is NEW's median against OLD's,
    as a share of OLD's, positive when worse; spread is OLD's quartile
    distance as a share of its median."""
    sign = 1.0 if better == "lower" else -1.0
    old_median = statistics.median(old)
    change = sign * (statistics.median(new) - old_median) / old_median
    if len(old) >= 2:
        q1, _, q3 = statistics.quantiles(old, n=4)
        spread = (q3 - q1) / old_median
    else:
        spread = 0.0
    if spread > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in old)
        return ("better" if all_better else "unresolved"), change, spread
    if change > bound:
        return "worse", change, spread
    if change < -spread:
        return "better", change, spread
    return "same", change, spread


def load_set(path: str, index: int) -> Dict[str, List[dict]]:
    """workload -> the result of each of its runs."""
    with open(path) as fh:
        return json.load(fh)["sets"][index]["workloads"]


def readings(runs: Sequence[dict], metric: str) -> List[float]:
    """The metric's value in each run that has one."""
    found = (run["metrics"].get(metric, {}).get("value") for run in runs)
    return [value for value in found if value is not None]


def failed_share(runs: Sequence[dict]) -> Optional[float]:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else None


def _failed_share_row(workload: str, old: Sequence[dict], new: Sequence[dict]) -> dict:
    before, after = failed_share(old), failed_share(new)
    if after is None or after > before:
        word = "worse"
    else:
        word = "better" if after < before else "same"
    return {"workload": workload, "metric": "failed_share", "verdict": word,
            "old_median": before, "new_median": after, "change": None,
            "old_spread": None, "bound": 0.0}


def compare(
    old: Dict[str, List[dict]], new: Dict[str, List[dict]], metrics: Sequence[dict]
) -> List[dict]:
    rows = []
    for workload, old_runs in old.items():
        new_runs = new.get(workload, [])
        rows.append(_failed_share_row(workload, old_runs, new_runs))
        for metric in metrics:
            name = metric["name"]
            old_values = readings(old_runs, name)
            if not old_values:
                continue
            new_values = readings(new_runs, name)
            row = {"workload": workload, "metric": name, "verdict": "worse",
                   "old_median": statistics.median(old_values), "new_median": None,
                   "change": None, "old_spread": None, "bound": metric["bound"]}
            if new_values:
                row["new_median"] = statistics.median(new_values)
                row["verdict"], row["change"], row["old_spread"] = verdict(
                    old_values, new_values,
                    better=metric["better"], bound=metric["bound"],
                )
            rows.append(row)
    return rows


def _share(value: Optional[float], form: str) -> str:
    return "-" if value is None else format(100 * value, form) + "%"


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--old-set", type=int, default=-1)
    parser.add_argument("--new-set", type=int, default=-1)
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    rows = compare(
        load_set(args.old, args.old_set), load_set(args.new, args.new_set), metrics
    )
    print(f"{'workload':16s} {'metric':18s} {'old':>11s} {'new':>11s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        new = "-" if r["new_median"] is None else f"{r['new_median']:.4g}"
        print(f"{r['workload']:16s} {r['metric']:18s} {r['old_median']:11.4g} "
              f"{new:>11s} {_share(r['change'], '+.1f'):>8s} "
              f"{_share(r['old_spread'], '.1f'):>7s} {_share(r['bound'], '.0f'):>6s}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
