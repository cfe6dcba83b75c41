"""What the asymptotics scripts share: their --bmax, a timed count and the
slope of N/B against log B."""

import argparse
import math
import sys
import time
from fractions import Fraction

from orbicount import enumeration
from orbicount.errors import BudgetExceededError


def bmax_argument(least: int) -> int:
    """The --bmax of the command line (default 1e6) as an integer; a value
    that is no number or below ``least`` exits 2 with one error line."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--bmax", default="1e6")
    text = ap.parse_args().bmax
    try:
        bmax = int(Fraction(text))
    except (ValueError, ZeroDivisionError):
        ap.error(f"--bmax must be a number, got {text!r}")
    if bmax < least:
        ap.error(f"--bmax must be at least {least}, got {text}")
    return bmax


def timed_count(model, S, B, mode, budget=enumeration.DEFAULT_BUDGET):
    """(count_points(model, S, B, mode, budget), its wall time in seconds);
    a count the package refuses exits 3 with one error line."""
    start = time.perf_counter()
    try:
        n = enumeration.count_points(model, S, B, mode, budget)
    except (BudgetExceededError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    return n, time.perf_counter() - start


def slope(lower, upper):
    """The slope of N/B against log B between two points (B, N)."""
    (b1, n1), (b2, n2) = lower, upper
    return (n2 / b2 - n1 / b1) / math.log(b2 / b1)
