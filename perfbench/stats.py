"""Arithmetic the benchmark reports with: percentiles and failure shares."""

from __future__ import annotations

import math

# Tail levels considered for a timing, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between the two nearest ranks (p in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(n: int) -> float | None:
    """Highest tail percentile with at least ten samples beyond it.

    None when there are too few samples for any of TAIL_LEVELS.
    """
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= MIN_BEYOND - 1e-9:
            return level
    return None


def timing_summary(values) -> dict:
    """Median, mean, the tail percentile that has support, and the count."""
    level = tail_level(len(values))
    summary = {"n": len(values), "median": percentile(values, 50.0),
               "mean": sum(values) / len(values)}
    if level is not None:
        summary[f"p{level:g}"] = percentile(values, level)
    return summary


def campaign_outcome(requested: int, rows: int, clean_rows: int,
                     exit_code: int, manifest_ok: bool) -> tuple[int, int, bool]:
    """(attempted, failed, wrong) samples of one campaign command.

    Every requested sample is attempted and fails unless its dataset row is
    clean.  A crash therefore counts each sample it prevented as failed,
    while clean rows written before it still count.  A command that exits
    0 must write one row per sample into a dataset its manifest checksums;
    otherwise its output is wrong and no sample counts as clean.
    """
    wrong = exit_code == 0 and (not manifest_ok or rows != requested)
    clean = 0 if wrong else min(clean_rows, requested)
    return requested, requested - clean, wrong


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted
