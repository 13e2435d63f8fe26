"""Calibration of timings to a fixed reference speed.

On a shared host the same pure-Python work can take twice as long from
one minute to the next.  A fixed pure-Python reference routine is timed
right before and right after every operation and, through a SIGALRM
interval timer, every `SPACING_S` inside it.  An operation's scaled time
is its raw time multiplied by

    REF_NOMINAL_S / (median of the reference times sampled around it)

Time spent in the reference routine inside an operation, and any other
time the benchmark declares excluded (node counting in traced runs), is
taken off every clock reading through `Clock`.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import checks

# Nominal duration of one reference() call: a unit constant, close to what
# the routine takes on a quiet 2-core x86-64 host under CPython 3.11.
REF_NOMINAL_S = 0.0015

SPACING_S = 0.1  # between samples inside an operation
BRACKET = 2  # samples right before and right after each operation

_KEYS = [(i, str(i)) for i in range(15000)]
_K3 = ("a", "b", "c")
_MODEL_TEXT = json.dumps(
    {
        "agents": 2,
        "outcomes": list(_K3),
        "map": [
            {"profile": [list(r) for r in p], "outcome": _K3[i * 7 % 3]}
            for i, p in enumerate(checks.profiles(2, _K3))
        ],
        "true_preferences": [["a", "b", "c"], ["c", "b", "a"]],
    }
)
_FORMULA = (
    "imp",
    ("box", frozenset({1}), ("imp", ("and", ("out", "a"), ("dia", frozenset({2}), ("rep", 1, "a", "b"))),
                             ("pref", 2, ("or", ("out", "b"), ("rep", 2, "c", "a"))))),
    ("pref", 1, ("out", "c")),
)


def reference() -> int:
    """Fixed pure-Python work with the program's kind of instruction mix:
    parse a (2,3) model from JSON, evaluate a small formula in two models
    with the benchmark's own relational evaluator, then build and probe a
    dict over a working set of about a MB."""
    values, _ = checks.model_from_json(json.loads(_MODEL_TEXT))
    ev = checks.Evaluator(checks.Frame(2, _K3), _FORMULA)
    acc = sum(ev.mask(values, truth) for truth in range(2))
    table = {}
    for key in _KEYS[::3]:
        table[key] = len(table)
    for j in range(0, len(_KEYS), 7):
        acc += table.get(_KEYS[j], 0)
    return acc


class Clock:
    """perf_counter minus every interval declared excluded."""

    def __init__(self) -> None:
        self.excluded = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    def exclude(self, seconds: float) -> None:
        self.excluded += seconds


class Calibrator:
    def __init__(self, clock: Clock):
        self.clock = clock
        self.samples: list[float] = []  # every reference time measured
        self._inside: list[float] | None = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self) -> float:
        """Time one reference() call; returns its duration."""
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        return duration

    def _on_alarm(self, signum, frame) -> None:
        if self._inside is not None:
            duration = self.sample()
            self._inside.append(duration)
            self.clock.exclude(duration)

    def timed(self, fn):
        """Run fn() between BRACKET reference samples on each side, with
        sampling every SPACING_S inside it.  Returns (result, error, raw
        seconds, factor): `error` is the exception fn raised, if any, and
        the scaled time is raw seconds x factor."""
        around = [self.sample() for _ in range(BRACKET)]
        result = error = None
        self._inside = []
        start = self.clock.now()
        signal.setitimer(signal.ITIMER_REAL, SPACING_S, SPACING_S)
        try:
            result = fn()
        except Exception as exc:  # an operation's failure is counted, not fatal
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = self.clock.now()
            around += self._inside
            self._inside = None
        around += [self.sample() for _ in range(BRACKET)]
        return result, error, end - start, REF_NOMINAL_S / statistics.median(around)
