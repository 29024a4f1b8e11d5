"""Output checks made apart from the program, and their self-test.

Each check compares one value the program returned (the observed value)
against a literal, a property, or the benchmark's own arithmetic (see
reference.py); none of them calls the program's oracle module or reads a
stored copy of earlier output.  A check belongs to one operation, and a
failed check counts that operation as failed.

The self-test hands every check that passed one deliberately wrong copy of
its observed value -- an integer or one array count off by one, a float or
the largest array entry with its sign flipped, a digest with one character
changed, a truth value negated -- and requires the check to reject it.  A
check that accepts its perturbed value could never fail; it is reported as
broken, and the run is then not correct.
"""

from __future__ import annotations

import numbers

import numpy as np


def perturb(value):
    """One deliberately wrong copy of value."""
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, numbers.Integral):
        return value + 1
    if isinstance(value, numbers.Number):
        return -value if value != 0 else -1.0
    if isinstance(value, str):
        return value[:-1] + ("1" if value[-1:] == "0" else "0")
    if isinstance(value, np.ndarray):
        bad = value.copy()
        flat = bad.reshape(-1)
        i = int(np.argmax(np.abs(flat)))
        if np.issubdtype(bad.dtype, np.integer):
            flat[i] += 1
        else:
            flat[i] = -flat[i] if flat[i] != 0 else -1.0
        return bad
    raise TypeError(f"no perturbation for {type(value).__name__}")


def _close(value, expected, rel):
    """|value - expected| <= rel * |expected|; arrays against their largest entry."""
    value = np.asarray(value)
    expected = np.asarray(expected)
    if value.shape != expected.shape:
        return False
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    return bool(np.all(np.abs(value - expected) <= rel * scale))


class Checks:
    """The checks of one round, grouped by the operation they judge."""

    def __init__(self):
        self._records = []  # (op, label, observed, predicate)

    def that(self, op, label, observed, predicate):
        self._records.append((op, label, observed, predicate))

    def equal(self, op, label, observed, expected):
        if isinstance(expected, np.ndarray):
            self.that(op, label, observed,
                      lambda v: np.shape(v) == expected.shape
                      and bool(np.array_equal(v, expected)))
        else:
            self.that(op, label, observed, lambda v: v == expected)

    def close(self, op, label, observed, expected, rel):
        self.that(op, label, observed, lambda v: _close(v, expected, rel))

    def within(self, op, label, observed, lo, hi, open_lo=False):
        def inside(v):
            v = np.asarray(v, dtype=np.float64)
            above = v > lo if open_lo else v >= lo
            return bool(np.all(above & (v <= hi)) and np.all(np.isfinite(v)))
        self.that(op, label, observed, inside)

    def evaluate(self):
        """Run every check and its self-test, in the order they were added.

        Returns one record per check: its operation and label, whether the
        observed value passed, and whether the perturbed value was rejected
        (None when the check already failed on the observed value).
        """
        records = []
        for op, label, observed, predicate in self._records:
            passed = _holds(predicate, observed)
            rejected = not _holds(predicate, perturb(observed)) if passed else None
            records.append({"op": op, "check": label, "passed": passed,
                            "perturbed_rejected": rejected})
        return records


def _holds(predicate, value) -> bool:
    try:
        return bool(predicate(value))
    except (TypeError, ValueError, KeyError, IndexError, ArithmeticError):
        return False
