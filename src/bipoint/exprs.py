"""Tiny expression DAG with exact point evaluation and outer-enclosure intervals.

The grammar (const, var, +, -, *, /, min, max, clamp01) is just rich enough to
carry the chain parameter formulas and cost expressions.  Interval evaluation
returns a sound outer enclosure; division by an interval containing zero
widens to the full line (which clamp01 then clips to [0,1]), and division of a
nonzero numerator by the degenerate interval [0,0] yields the "empty set"
marker used to model parameters of empty facility sets.
"""

from __future__ import annotations

import ast as _pyast
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

    def __add__(self, o):
        return Op("+", self, _lift(o))

    def __sub__(self, o):
        return Op("-", self, _lift(o))

    def __mul__(self, o):
        return Op("*", self, _lift(o))

    def __truediv__(self, o):
        return Op("/", self, _lift(o))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, o):
        return Op("-", _lift(o), self)


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


def _lift(v):
    return v if isinstance(v, Expr) else Const(v)


def clamp01(e) -> Expr:
    return Op("clamp01", _lift(e))


def variables(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Op):
        out = set()
        for a in e.args:
            out |= variables(a)
        return out
    return set()


def linear_coeffs(e: Expr, names) -> tuple:
    """(constant, {var: coeff}) if ``e`` is affine in ``names``, else None.

    Coefficients are probed by exact evaluation at unit points and the affine
    hypothesis is cross-checked at two generic rational points, which any
    multilinear or rational term fails with probability 1.
    """
    zero = {v: Fraction(0) for v in names}
    try:
        c0 = Fraction(e.ev(zero))
        coeffs = {}
        for v in names:
            env = dict(zero)
            env[v] = Fraction(1)
            coeffs[v] = Fraction(e.ev(env)) - c0
        for salt in (7, 11):
            env = {v: Fraction(2 * i + 3, salt) for i, v in enumerate(names)}
            want = c0 + sum(coeffs[v] * env[v] for v in names)
            if Fraction(e.ev(env)) != want:
                return None
    except (ZeroDivisionError, TypeError):
        return None
    return c0, coeffs


def _affine_expr(c0: Fraction, coeffs: dict) -> Expr:
    terms = [(v, c) for v, c in sorted(coeffs.items()) if c != 0]
    e = None
    for v, c in terms:
        t = Var(v) if c == 1 else Op("*", Const(c), Var(v))
        e = t if e is None else Op("+", e, t)
    if e is None:
        return Const(c0)
    if c0 != 0:
        e = Op("+", Const(c0), e)
    return e


def reduce_ratio(e: Expr) -> Expr:
    """Rewrite an affine-over-affine ratio to minimize shared variables.

    Interval arithmetic treats each occurrence of a variable independently, so
    (b + g - 1)/g encloses far more than its true range; the equivalent
    1 + (b - 1)/g is interval-exact.  Subtracting the best multiple of the
    denominator from the numerator removes as many shared variables as
    possible without changing the exact value anywhere the ratio is defined.
    """
    if not (isinstance(e, Op) and e.op == "/"):
        return e
    num, den = e.args
    names = sorted(variables(e))
    nc = linear_coeffs(num, names)
    dc = linear_coeffs(den, names)
    if nc is None or dc is None:
        return e
    n0, ncf = nc
    d0, dcf = dc
    shared = [v for v in names if ncf.get(v, 0) != 0 and dcf.get(v, 0) != 0]
    alpha = Fraction(0)
    best = 0
    for cand in {ncf[v] / dcf[v] for v in shared}:
        killed = sum(1 for v in shared if ncf[v] - cand * dcf[v] == 0)
        if killed > best:
            best, alpha = killed, cand
    new_num = _affine_expr(n0 - alpha * d0,
                           {v: ncf.get(v, 0) - alpha * dcf.get(v, 0)
                            for v in names})
    new_den = _affine_expr(d0, dcf)
    ratio = Op("/", new_num, new_den)
    if alpha == 0:
        return ratio
    return Op("+", Const(alpha), ratio)


def parse(text: str) -> Expr:
    """Parse an arithmetic formula with min/max/clamp01 calls into an Expr."""

    def conv(node):
        if isinstance(node, _pyast.Expression):
            return conv(node.body)
        if isinstance(node, _pyast.BinOp):
            ops = {_pyast.Add: "+", _pyast.Sub: "-", _pyast.Mult: "*", _pyast.Div: "/"}
            return Op(ops[type(node.op)], conv(node.left), conv(node.right))
        if isinstance(node, _pyast.UnaryOp) and isinstance(node.op, _pyast.USub):
            return Op("-", Const(0), conv(node.operand))
        if isinstance(node, _pyast.Constant):
            v = node.value
            return Const(Fraction(v) if isinstance(v, int) else v)
        if isinstance(node, _pyast.Name):
            return Var(node.id)
        if isinstance(node, _pyast.Call):
            name = node.func.id
            args = [conv(a) for a in node.args]
            if name in ("min", "max"):
                return Op(name, *args)
            if name == "clamp01":
                return Op("clamp01", *args)
            raise ValueError(f"unknown function {name}")
        raise ValueError(f"unsupported syntax: {_pyast.dump(node)}")

    return conv(_pyast.parse(text, mode="eval"))
