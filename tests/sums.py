"""Float sums as sum() adds them on each Python. This module imports none of
the package, so that a process can replace builtins.sum before the package
binds it."""
import math
import operator
from functools import reduce


def left_to_right_sum(values, start=0):
    """sum() as Python 3.11 adds: left to right from start."""
    return reduce(operator.add, values, start)


def neumaier_sum(values, start=0):
    """sum() as Python 3.12 and later add floats: with Neumaier's
    compensation, added once at the end. Values without a float are added
    left to right, as sum() adds ints."""
    items = list(values)
    if not any(isinstance(x, float) for x in items):
        return left_to_right_sum(items, start)
    total, compensation = float(start), 0.0
    for x in map(float, items):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        return total + compensation
    return total
