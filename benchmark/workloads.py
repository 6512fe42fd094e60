"""Operation lists for the three workloads, generated from a seed.

Each operation is one ``curvejac`` command line plus the exact parameters it
was built from; ``checks.py`` computes the expected output from those
parameters.  A run repeats the same list in whole rounds.

Genus values are stratified: a list of n operations takes one genus from each
of n equal slices of the genus range, so every seed covers the range the same
way and only the position inside each slice, the class coefficients and the
order are random.  That keeps the work per round nearly the same from seed to
seed.

Negative values are passed in the forms argparse accepts today: ``--c=-1/2``
for options and a ``--`` separator before positional class literals (see the
README for the argparse limitation this avoids).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

Triple = tuple[Fraction, Fraction, Fraction]

# Highest genus at which CLI output is exact today: from about genus 1600
# rationals exceed CPython's 4300-digit int/str conversion limit.
AUDIT_MAX_GENUS = 1500
DENSE_MAX_GENUS = 160
SMALL_MAX_GENUS = 24


@dataclass(frozen=True)
class Op:
    command: str
    fmt: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)


def _rat(rng: random.Random, top: int = 9) -> Fraction:
    """Nonzero rational p/q with |p|, q in 1..top and a random sign."""
    num = rng.randint(1, top)
    return Fraction(-num if rng.random() < 0.5 else num, rng.randint(1, top))


def _pos(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def _nef(rng: random.Random, g: int, boundary: bool) -> Triple:
    """Nef class with a, b > 0: on the wall ab = g c^2, or inside it."""
    b, c = _pos(rng), _rat(rng)
    a = g * c * c / b
    return (a if boundary else a + _pos(rng), b, c)


def _outside(rng: random.Random) -> Triple:
    """Class outside the nef cone: ab < g c^2."""
    a, b = _pos(rng), _pos(rng)
    if rng.random() < 0.5:
        a = -a
    c = abs(a * b) + 1
    return (a, b, c if rng.random() < 0.5 else -c)


def _lit(cls: Triple) -> str:
    return ",".join(str(x) for x in cls)


def _opt(flag: str, value: Fraction) -> list[str]:
    # argparse reads only '-<digits>' as a negative number; '--flag=value'
    # keeps every other negative literal from being taken for an option.
    return [f"--{flag}={value}"] if value < 0 else [f"-{flag}", str(value)]


def _genera(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n genera in lo..hi, one from each of n equal slices, shuffled."""
    width = (hi - lo + 1) / n
    out = [lo + int((i + rng.random()) * width) for i in range(n)]
    rng.shuffle(out)
    return out


def _fmt_args(fmt: str) -> list[str]:
    return [] if fmt == "text" else ["--format", fmt]


def _op(command: str, fmt: str, head: list[str], tail: list[str], **params) -> Op:
    """Command line 'command head [--format F] [-- tail]'."""
    argv = [command, *head, *_fmt_args(fmt)]
    if tail:
        argv += ["--", *tail]
    return Op(command, fmt, tuple(argv), params)


def _standard(g: int) -> Triple:
    return (Fraction(g), Fraction(1), Fraction(1))


def _audit(g: int, fmt: str, L: Triple | None) -> Op:
    head = ["-g", str(g)]
    if L is None:
        L = _standard(g)
    else:
        head += ["-L", _lit(L)]
    return _op("audit", fmt, head, [], g=g, L=L)


def audit_sweep(rng: random.Random) -> list[Op]:
    """64 standard-polarization audits, 64 with a random nef -L class and
    48 tables of 3 consecutive genera; genus 2..1500.

    Tables above genus ~650 cost more than any audit and make up the top 15%
    of a round, so p90 falls among them rather than at the step between
    audits and tables, where it would jump with the seed."""
    ops = []
    for i, g in enumerate(_genera(rng, 64, 2, AUDIT_MAX_GENUS)):
        ops.append(_audit(g, ("text", "json")[i % 2], None))
    for i, g in enumerate(_genera(rng, 64, 2, AUDIT_MAX_GENUS)):
        ops.append(_audit(g, ("text", "json")[i % 2], _nef(rng, g, i % 4 == 0)))
    for i, g in enumerate(_genera(rng, 48, 2, AUDIT_MAX_GENUS - 2)):
        fmt = ("text", "json", "csv")[i % 3]
        ops.append(_op("table", fmt, [str(g), str(g + 2)], [], g_min=g, g_max=g + 2))
    rng.shuffle(ops)
    return ops


def engine_dense(rng: random.Random) -> list[Op]:
    """100 top intersections of g+1 classes, every coordinate a nonzero
    rational of random sign, genus 2..160; plus two audits at genus <= 24.

    The two audits take under 0.2% of a round.  They keep the trace figures
    of the layers that intersect never reaches (pairing, heights, minima,
    cones) measured rather than zero by construction."""
    ops = []
    for i, g in enumerate(_genera(rng, 100, 2, DENSE_MAX_GENUS)):
        classes = [(_rat(rng), _rat(rng), _rat(rng)) for _ in range(g + 1)]
        ops.append(_op("intersect", ("text", "json")[i % 2], ["-g", str(g)],
                       [_lit(c) for c in classes], g=g, classes=classes))
    g1, g2 = _genera(rng, 2, 2, SMALL_MAX_GENUS)
    ops += [_audit(g1, "text", None), _audit(g2, "json", _nef(rng, g2, False))]
    rng.shuffle(ops)
    return ops


def _small(command: str, rng: random.Random, g: int, fmt: str, i: int) -> Op:
    head = ["-g", str(g)]
    if command == "classify":
        if i % 3 == 0:
            cls = _nef(rng, g, False)
        elif i % 3 == 1:
            cls = _nef(rng, g, True)
        else:
            cls = _outside(rng)
        for flag, value in zip("abc", cls):
            head += _opt(flag, value)
        return _op(command, fmt, head, [], g=g, cls=cls)
    if command == "decompose":
        if i % 4 == 3:
            cls = (_pos(rng), Fraction(0), Fraction(0))
        else:
            cls = _nef(rng, g, i % 4 == 1)
        for flag, value in zip("abc", cls):
            head += _opt(flag, value)
        return _op(command, fmt, head, [], g=g, cls=cls)
    if command == "pair":
        x, y = (_rat(rng), _rat(rng), _rat(rng)), (_rat(rng), _rat(rng), _rat(rng))
        return _op(command, fmt, head, [_lit(x), _lit(y)], g=g, x=x, y=y)
    if command == "intersect":
        classes = [(_rat(rng), _rat(rng), _rat(rng)) for _ in range(g + 1)]
        return _op(command, fmt, head, [_lit(c) for c in classes], g=g,
                   classes=classes)
    if command == "pullback":
        m, n = _rat(rng), _rat(rng)
        return _op(command, fmt, head + _opt("m", m) + _opt("n", n), [],
                   g=g, m=m, n=n)
    if command == "witness":
        n = rng.randint(1, 99)
        return _op(command, fmt, head + ["-n", str(n)], [], g=g, n=n)
    # Commands that take an optional -L bundle: half use the default.
    if i % 2 == 0:
        L = _standard(g)
    else:
        L = _nef(rng, g, i % 4 == 1)
        head += ["-L", _lit(L)]
    if command == "height":
        point = _nef(rng, g, i % 3 == 0)
        return _op(command, fmt, head, [_lit(point)], g=g, L=L, point=point)
    return _op(command, fmt, head, [], g=g, L=L)


SMALL_COMMANDS = (
    "classify", "pair", "intersect", "pullback", "decompose",
    "height", "curve-height", "minima", "witness", "audit",
)


def small_calls(rng: random.Random) -> list[Op]:
    """24 calls of each command other than table, half text and half JSON;
    genus 2..24."""
    ops = []
    for command in SMALL_COMMANDS:
        for i, g in enumerate(_genera(rng, 24, 2, SMALL_MAX_GENUS)):
            ops.append(_small(command, rng, g, ("text", "json")[i % 2], i))
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "audit_sweep": audit_sweep,
    "engine_dense": engine_dense,
    "small_calls": small_calls,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
