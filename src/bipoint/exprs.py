"""Outer-enclosure interval arithmetic, and small expression trees that
evaluate exactly at a point and as intervals over a box.

Interval evaluation returns a sound outer enclosure; division by an interval
containing zero widens to the full line (which clamp01 then clips to [0,1]),
and division of a nonzero numerator by the degenerate interval [0,0] yields
the "empty set" marker used to model parameters of empty facility sets.  The
trees (const, var, +, -, *, /, min, max, clamp01) are the per-parameter
reference the batched chain enclosures of ``nlp`` are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

INF = math.inf


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    def contains(self, v, slack=0.0) -> bool:
        if self.empty:
            return False
        return self.lo - slack <= v <= self.hi + slack


EMPTY = Interval(0.0, 0.0, empty=True)


def _mul(a, b):
    # 0 * inf -> 0: the zero factor always comes from an exact endpoint
    if a == 0 or b == 0:
        return 0.0
    return a * b


def iv(lo, hi=None) -> Interval:
    if hi is None:
        hi = lo
    return Interval(float(lo), float(hi))


def iadd(x: Interval, y: Interval) -> Interval:
    if x.empty or y.empty:
        return EMPTY
    return Interval(x.lo + y.lo, x.hi + y.hi)


def isub(x: Interval, y: Interval) -> Interval:
    if x.empty or y.empty:
        return EMPTY
    return Interval(x.lo - y.hi, x.hi - y.lo)


def imul(x: Interval, y: Interval) -> Interval:
    if x.empty or y.empty:
        return EMPTY
    ps = [_mul(x.lo, y.lo), _mul(x.lo, y.hi), _mul(x.hi, y.lo), _mul(x.hi, y.hi)]
    return Interval(min(ps), max(ps))


def idiv(x: Interval, y: Interval) -> Interval:
    if x.empty or y.empty:
        return EMPTY
    if y.lo <= 0 <= y.hi:
        if y.lo == 0 == y.hi:
            if x.lo <= 0 <= x.hi:
                return Interval(-INF, INF)  # 0/0 somewhere in the box
            return EMPTY  # 1/0 on the whole box: the set is empty
        if y.lo == 0:  # denominator touches 0 from above only
            if x.lo > 0:
                return Interval(x.lo / y.hi, INF)
            if x.hi < 0:
                return Interval(-INF, x.hi / y.hi)
        elif y.hi == 0:  # touches 0 from below only
            if x.lo > 0:
                return Interval(-INF, x.lo / y.lo)
            if x.hi < 0:
                return Interval(x.hi / y.lo, INF)
        return Interval(-INF, INF)
    inv = Interval(1.0 / y.hi if y.hi != INF else 0.0,
                   1.0 / y.lo if y.lo != -INF else 0.0)
    return imul(x, inv)


def imin(x: Interval, y: Interval) -> Interval:
    if x.empty or y.empty:
        return EMPTY
    return Interval(min(x.lo, y.lo), min(x.hi, y.hi))


def imax(x: Interval, y: Interval) -> Interval:
    if x.empty or y.empty:
        return EMPTY
    return Interval(max(x.lo, y.lo), max(x.hi, y.hi))


def iclamp01(x: Interval) -> Interval:
    if x.empty:
        return EMPTY
    c = lambda v: min(max(v, 0.0), 1.0)
    return Interval(c(x.lo), c(x.hi))


# --- expression nodes -------------------------------------------------------


class Expr:
    __slots__ = ()

    def ev(self, env):
        raise NotImplementedError

    def box(self, env) -> Interval:
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def ev(self, env):
        return self.value

    def box(self, env):
        return iv(self.value)

    def __repr__(self):
        return f"{self.value}"


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def ev(self, env):
        return env[self.name]

    def box(self, env):
        v = env[self.name]
        return v if isinstance(v, Interval) else iv(v)

    def __repr__(self):
        return self.name


class Op(Expr):
    __slots__ = ("op", "args")

    _IV = {"+": iadd, "-": isub, "*": imul, "/": idiv, "min": imin, "max": imax}

    def __init__(self, op, *args):
        self.op = op
        self.args = args

    def ev(self, env):
        vals = [a.ev(env) for a in self.args]
        op = self.op
        if op == "+":
            return vals[0] + vals[1]
        if op == "-":
            return vals[0] - vals[1]
        if op == "*":
            # a zero factor makes the exact product 0, also against a factor
            # that overflowed to inf, as in ``_mul``
            if vals[0] == 0 or vals[1] == 0:
                return vals[0] if vals[0] == 0 else vals[1]
            return vals[0] * vals[1]
        if op == "/":
            if vals[1] == 0:
                raise ZeroDivisionError(f"{self!r} at {env}")
            if isinstance(vals[0], Fraction) or isinstance(vals[1], Fraction):
                return Fraction(vals[0]) / Fraction(vals[1])
            return vals[0] / vals[1]
        if op == "min":
            return min(vals)
        if op == "max":
            return max(vals)
        if op == "clamp01":
            return min(max(vals[0], 0 * vals[0]), 1)
        raise ValueError(self.op)

    def box(self, env):
        if self.op == "clamp01":
            return iclamp01(self.args[0].box(env))
        f = self._IV[self.op]
        return f(self.args[0].box(env), self.args[1].box(env))

    def __repr__(self):
        if self.op in self._IV and self.op not in ("min", "max"):
            return f"({self.args[0]!r} {self.op} {self.args[1]!r})"
        return f"{self.op}({', '.join(map(repr, self.args))})"
