"""Fixed reference tasks that track the machine's current speed.

On a shared virtual machine identical work can run up to ~1.6x slower for
seconds at a time, even in CPU time.  The benchmark runs a reference task
next to everything it times and scales the measured time by ``nominal /
reference time``, so a slow spell that stretches both cancels out.  All times
are CPU time of the process (``time.process_time_ns``), which leaves out the
time the process waits while other processes hold the CPU.  The tasks use
only the standard library and never import ``curvejac``, so no change to the
program can change them.

Kinds of work slow down by different amounts in the same spell, and a
reference must slow down like the work it corrects, so there are two:

* ``ARITHMETIC``: ``Fraction`` and big-integer arithmetic, for workloads
  whose time goes to the intersection engine;
* ``INTERPRETER``: compiling and running a fixed module body, for workloads
  whose time goes to argument parsing and object creation, and for imports.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, NamedTuple

_MODULUS = 3**6001
_BASE = 7**3000

_MODULE_SOURCE = "\n".join(f"""
class C{i}:
    a = {i}
    def f(self, x):
        return [x * k for k in range({i % 7 + 2})]
    def g(self, y, z=None):
        if y > {i}:
            return {{"k": y, "z": z}}
        return (y, z, self.a)
def h{i}(p, q, *r, **s):
    t = p + q
    for u in r:
        t += u
    return t, s
""" for i in range(4))


def arithmetic_ns() -> int:
    """CPU time of 39 Fraction additions and six big-integer multiply and
    reduce steps, in ns."""
    start = time.process_time_ns()
    x = Fraction(0)
    for k in range(1, 40):
        x += Fraction(k, 2 * k + 1)
    n = _BASE
    for _ in range(6):
        n = (n * 12345678901) % _MODULUS
    return time.process_time_ns() - start


def interpreter_ns() -> int:
    """CPU time to compile and run a fixed four-class module body, in ns."""
    start = time.process_time_ns()
    exec(compile(_MODULE_SOURCE, "<reference>", "exec"), {})
    return time.process_time_ns() - start


class Reference(NamedTuple):
    name: str
    run_ns: Callable[[], int]
    # Typical time of the task on the machine the benchmark was tuned on
    # (Python 3.11, 2 vCPUs).  It only sets the scale of corrected times,
    # which read in ms or s "at nominal speed"; it must stay fixed so that
    # runs stay comparable.
    nominal_ns: int

    def correction(self, ref_ns: float) -> float:
        """Factor that maps a time measured next to ``ref_ns`` to nominal
        speed."""
        return self.nominal_ns / ref_ns


ARITHMETIC = Reference("arithmetic", arithmetic_ns, 150_000)
INTERPRETER = Reference("interpreter", interpreter_ns, 700_000)
