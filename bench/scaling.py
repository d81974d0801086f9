"""Fitted scaling exponents from the details file of an end-to-end run.

    python3 bench/scaling.py bench/out/random-long-seed1-trace0.json ...

For every operation family with a size in its label (``normalize k=64``,
``certify n=7``) it fits log(best time) = a + b log(size) by least
squares and prints b, the exponent of the size.
"""

from __future__ import annotations

import json
import math
import re
import sys

LABEL = re.compile(r"^(\S+) ([kn])=(\d+)$")


def exponents(operations):
    families = {}
    for op in operations:
        match = LABEL.match(op["op"])
        if match and "best_ms" in op:
            family = f"{match[1]} in {match[2]}"
            families.setdefault(family, []).append((int(match[3]), op["best_ms"]))
    fits = {}
    for family, points in families.items():
        if len(points) < 3:
            continue
        xs = [math.log(size) for size, _ in points]
        ys = [math.log(ms) for _, ms in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        fits[family] = (slope, min(s for s, _ in points), max(s for s, _ in points))
    return fits


def main(paths):
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            details = json.load(handle)
        for family, (slope, low, high) in sorted(exponents(details["operations"]).items()):
            print(f"{details['workload']}: {family} from {low} to {high}: exponent {slope:.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
