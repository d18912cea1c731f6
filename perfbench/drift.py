"""Measure how much the machine's speed drifts while nothing changes.

Run: ``python3 perfbench/drift.py``. A fixed pure-Python loop is timed in
pieces of about 30 ms for 20 s; the output gives each piece's time relative to the median
piece, overall and for one-second windows. A spread that no benchmark
setting can remove shows here first.
"""

from __future__ import annotations

import statistics
import time

SECONDS = 20.0
PIECE_S = 0.030


def _work(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def main() -> int:
    n = 1000
    while True:
        started = time.perf_counter()
        _work(n)
        if time.perf_counter() - started > PIECE_S / 4:
            break
        n *= 2
    n = int(n * PIECE_S / (time.perf_counter() - started))
    pieces, stamps = [], []
    end = time.perf_counter() + SECONDS
    while time.perf_counter() < end:
        started = time.perf_counter()
        _work(n)
        pieces.append(time.perf_counter() - started)
        stamps.append(started)
    median = statistics.median(pieces)
    ratios = [p / median for p in pieces]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(f"{len(pieces)} pieces of {median * 1000:.1f} ms: "
          f"min {min(ratios):.2f}x, q1 {q1:.2f}x, q3 {q3:.2f}x, "
          f"max {max(ratios):.2f}x of the median")
    windows: dict = {}
    for stamp, piece in zip(stamps, pieces):
        windows.setdefault(int(stamp - stamps[0]), []).append(piece)
    means = [statistics.fmean(w) / median for w in windows.values()]
    print(f"{len(means)} one-second windows: mean piece from "
          f"{min(means):.2f}x to {max(means):.2f}x of the median")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
