"""Exact work counts of the perfbench workloads against a committed baseline.

Runs the units perfbench's traced pass runs (seed 1, units
``range(trace_units)`` of each workload) and compares every unit's
exact-repeat record with ``benchmarks/baseline.json``.  A record is
``Unit.repeat_key()`` from ``perfbench/workloads.py`` (programs,
accepted, work counters, histogram sums, edges, findings, divergences,
repairs), plus the rejection taxonomy (``reject_reasons``) of the two
fuzz workloads.  All of it is seed-determined, so any difference is a
behaviour change, never host noise.

    python benchmarks/check_baseline.py            # compare
    python benchmarks/check_baseline.py --update   # rewrite the baseline

The comparison prints every changed value as
``workload/seed/unit key: old -> new`` and exits non-zero if there is
one.  A change that moves counts on purpose runs ``--update`` and says
in its description why each named value moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().with_name("baseline.json")
SEED = 1


def records() -> dict[str, dict]:
    """``workload/seed/unit`` -> exact-repeat record, from this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, ProgramLog

    log = ProgramLog()
    out = {}
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(SEED)
        workload.setup()
        workload.log = log
        for index in range(workload.trace_units):
            unit = workload.run_unit(index)
            record = unit.repeat_key()
            if unit.result is not None:
                record["reject_reasons"] = dict(
                    sorted(unit.result.reject_reasons.items()))
            # as the file reads back: tuples become lists
            out[f"{name}/{SEED}/{index}"] = json.loads(json.dumps(record))
    return out


def _leaves(record: dict, prefix: str = ""):
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def differences(old: dict, new: dict) -> list[str]:
    """Every value that differs between two sets of records, named
    ``workload/seed/unit key: old -> new``."""
    lines = []
    for unit in sorted(old.keys() | new.keys()):
        if unit not in new:
            lines.append(f"{unit}: in the baseline, not run")
            continue
        if unit not in old:
            lines.append(f"{unit}: run, not in the baseline")
            continue
        a, b = dict(_leaves(old[unit])), dict(_leaves(new[unit]))
        for key in sorted(a.keys() | b.keys()):
            before, after = a.get(key, "absent"), b.get(key, "absent")
            if before != after:
                lines.append(f"{unit} {key}: {before} -> {after}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this checkout's "
                             "counts")
    args = parser.parse_args(argv)
    current = records()
    if args.update:
        BASELINE.write_text(json.dumps(current, indent=1, sort_keys=True)
                            + "\n")
        print(f"wrote {len(current)} unit records to {BASELINE.name}")
        return 0
    changed = differences(json.loads(BASELINE.read_text()), current)
    for line in changed:
        print(line)
    print(f"{len(current)} units, {len(changed)} changed values against "
          f"{BASELINE.name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
