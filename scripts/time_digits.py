#!/usr/bin/env python3
"""Check that every time in ninja's JSON reports is whole nanoseconds.

Report times are integer nanoseconds printed as seconds, so no
time-valued number may carry more than 9 digits after the decimal
point; more digits are float noise. Time-valued keys are those ending
in `_at` or `_s`, the phase keys, `total` and `hotplug`.

Usage: scripts/time_digits.py REPORT.json...
"""

import json
import sys
from decimal import Decimal

TIME_KEYS = {
    "coordination", "detach", "migration", "attach", "linkup",
    "save", "restore", "hotplug", "total",
}


def is_time(key):
    return key.endswith(("_at", "_s")) or key in TIME_KEYS


def walk(value, key, path, out):
    """Appends (path, number) for every time-valued number under `value`;
    `key` is the object key the value (or its enclosing array) sits at."""
    if isinstance(value, dict):
        for k, v in value.items():
            walk(v, k, f"{path}.{k}", out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            walk(v, key, f"{path}[{i}]", out)
    elif isinstance(value, (int, Decimal)) and not isinstance(value, bool):
        if key is not None and is_time(key):
            out.append((path, value))


def main():
    failed = False
    for name in sys.argv[1:]:
        with open(name) as fh:
            doc = json.load(fh, parse_float=Decimal)
        times = []
        walk(doc, None, "$", times)
        bad = [
            (p, v) for p, v in times
            if isinstance(v, Decimal) and -v.as_tuple().exponent > 9
        ]
        print(f"{name}: {len(times)} time values, {len(bad)} with more than 9 fractional digits")
        for p, v in bad[:5]:
            print(f"  {p} = {v}")
        failed |= bool(bad) or not times
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
