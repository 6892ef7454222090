"""Compare two sets of stored benchmark results.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or single files) of the records
``run.py`` stores under ``.perfbench/results/``: for example, copy that
directory aside after running the parent commit, then run the change.
For each workload and end-to-end metric the table gives each side's
median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``regression``: the new median is worse by more than the bound;
* ``unresolved``: the base runs spread wider than the bound, and not
  every new run beats every base run;
* ``better``: the new median is better by more than the base runs'
  spread, or every new run beats every base run;
* ``same``: otherwise.

Results are comparable only when measured in the same environment; a
workload whose fingerprints differ between (or within) the two sets is
flagged ``FINGERPRINT`` and its verdicts do not count.  Traced records
are listed per layer, without verdicts.  Exits 1 on any regression,
fingerprint difference or increase in failed operations.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List

from common import SPEC_PATH
from fingerprint import differences


def load_records(location: str) -> List[dict]:
    paths = [location] if os.path.isfile(location) else glob.glob(os.path.join(location, "*.json"))
    records = []
    for path in sorted(paths):
        if path.endswith("-spans.json"):
            continue
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if "fingerprint" in record and "result" in record:
            records.append(record)
    return records


def _group(records: List[dict]) -> Dict[tuple, List[dict]]:
    groups: Dict[tuple, List[dict]] = {}
    for record in records:
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fingerprint_problems(base: List[dict], new: List[dict]) -> Dict[str, tuple]:
    reference = base[0]["fingerprint"]
    found: Dict[str, tuple] = {}
    for record in base[1:] + new:
        found.update(differences(reference, record["fingerprint"]))
    return found


def verdict(metric: dict, base: List[float], new: List[float]) -> str:
    lower = metric["better"] == "lower"
    base_median, new_median = statistics.median(base), statistics.median(new)
    change = (new_median - base_median) / base_median if base_median else 0.0
    worse = change if lower else -change
    if worse > metric["bound"]:
        return "regression"
    q1, median, q3 = _quartiles(base)
    spread = (q3 - q1) / median if median else 0.0
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    # A gain counts only beyond the base runs' own spread.
    return "better" if worse < 0 and (all_better or -worse > spread) else "same"


def compare(base_records: List[dict], new_records: List[dict], spec: dict) -> int:
    base_groups, new_groups = _group(base_records), _group(new_records)
    status = 0
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        base, new = base_groups[key], new_groups[key]
        print(f"{workload} (trace={trace}): {len(base)} base runs, {len(new)} new runs")
        mismatch = _fingerprint_problems(base, new)
        for field, (left, right) in mismatch.items():
            print(f"  FINGERPRINT {field}: {left!r} != {right!r}")
        if mismatch:
            status = 1
        base_failed = sum(r["result"]["failed"] for r in base)
        new_failed = sum(r["result"]["failed"] for r in new)
        if new_failed > base_failed:
            status = 1
        print(f"  failed operations: base {base_failed}, new {new_failed}")
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in declared:
            name = metric["name"]
            base_values = [r["result"]["metrics"][name]["value"] for r in base if name in r["result"]["metrics"]]
            new_values = [r["result"]["metrics"][name]["value"] for r in new if name in r["result"]["metrics"]]
            if not base_values or not new_values:
                continue
            b1, b2, b3 = _quartiles(base_values)
            n1, n2, n3 = _quartiles(new_values)
            line = (
                f"  {name:<34} base {b2:12.5g} [{b1:.5g}, {b3:.5g}]  "
                f"new {n2:12.5g} [{n1:.5g}, {n3:.5g}] {metric['unit']}"
            )
            if not trace:
                outcome = verdict(metric, base_values, new_values)
                if mismatch:
                    outcome += " (incomparable)"
                elif outcome == "regression":
                    status = 1
                line += f"  {outcome} (bound {metric['bound']})"
            print(line)
    for key in sorted(set(base_groups) ^ set(new_groups)):
        print(f"{key[0]} (trace={key[1]}): only in one set, not compared")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    return compare(load_records(args.base), load_records(args.new), spec)


if __name__ == "__main__":
    sys.exit(main())
