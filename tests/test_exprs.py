"""Interval arithmetic and expression-tree unit tests.

The load-bearing property is outer enclosure: for any expression and any box,
the exact value at any point inside the box lies inside the interval returned
by box().  Division is the delicate case, in particular denominators that
touch zero on one side.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipoint.exprs import (
    EMPTY,
    Const,
    Interval,
    Op,
    Var,
    iadd,
    iclamp01,
    idiv,
    imul,
    isub,
    iv,
)
from bipoint.tables import read_param

INF = math.inf


def test_interval_ordering_enforced():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_basic_ops():
    x, y = iv(1, 2), iv(3, 5)
    assert iadd(x, y) == iv(4, 7)
    assert isub(x, y) == iv(-4, -1)
    assert imul(x, y) == iv(3, 10)
    assert idiv(y, x) == iv(1.5, 5)


def test_mul_zero_times_infinity_is_zero():
    assert imul(iv(0, 0), Interval(0.0, INF)) == iv(0, 0)
    got = imul(iv(0, 1), Interval(2.0, INF))
    assert got.lo == 0 and got.hi == INF


def test_div_by_degenerate_zero():
    # 1/[0,0] marks an empty facility set
    assert idiv(iv(1, 2), iv(0, 0)) is EMPTY or idiv(iv(1, 2), iv(0, 0)).empty
    # 0/[0,0] could be anything
    got = idiv(iv(-1, 1), iv(0, 0))
    assert got.lo == -INF and got.hi == INF


def test_div_one_sided_zero_denominator():
    # positive numerator over [0, d]: values range over [lo/d, infinity)
    got = idiv(iv(2, 3), iv(0, 4))
    assert got.lo == pytest.approx(0.5) and got.hi == INF
    got = idiv(iv(-3, -2), iv(0, 4))
    assert got.lo == -INF and got.hi == pytest.approx(-0.5)
    got = idiv(iv(2, 3), iv(-4, 0))
    assert got.lo == -INF and got.hi == pytest.approx(-0.5)
    # numerator spanning zero stays unbounded on both sides
    got = idiv(iv(-1, 1), iv(0, 4))
    assert got.lo == -INF and got.hi == INF


def test_div_denominator_strictly_spanning_zero():
    got = idiv(iv(1, 1), iv(-1, 1))
    assert got.lo == -INF and got.hi == INF


def test_clamp():
    assert iclamp01(iv(-3, 0.5)) == iv(0, 0.5)
    assert iclamp01(Interval(2.0, INF)) == iv(1, 1)
    assert iclamp01(EMPTY).empty


def test_ev_zero_division_raises():
    p = read_param("b / gA1")
    with pytest.raises(ZeroDivisionError):
        p.ev({"b": Fraction(1), "gA1": Fraction(0)})


# --- containment property ---------------------------------------------------

finite = st.floats(min_value=-4, max_value=4, allow_nan=False)


@st.composite
def boxed_env(draw, names=("b", "gA1", "gA2")):
    env_box = {}
    env_pt = {}
    for name in names:
        lo = draw(finite)
        hi = draw(finite)
        lo, hi = min(lo, hi), max(lo, hi)
        frac = draw(st.floats(min_value=0, max_value=1, allow_nan=False))
        env_box[name] = Interval(lo, hi)
        env_pt[name] = lo + frac * (hi - lo)
    return env_box, env_pt


@st.composite
def rand_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Var(draw(st.sampled_from(["b", "gA1", "gA2"])))
        return Const(draw(st.integers(min_value=-3, max_value=3)))
    op = draw(st.sampled_from(["+", "-", "*", "/", "min", "max"]))
    a = draw(rand_expr(depth=depth + 1))
    b = draw(rand_expr(depth=depth + 1))
    e = Op(op, a, b)
    if draw(st.booleans()):
        e = Op("clamp01", e)
    return e


@settings(max_examples=400, deadline=None)
@given(rand_expr(), boxed_env())
# 1/b overflows to inf at a subnormal b, and the exact product with gA1 = 0
# is 0, inside the enclosure [0, 0]
@example(Op("*", Op("+", Op("/", Const(1), Var("b")), Const(0)), Var("gA1")),
         ({"b": Interval(0.0, 1.0), "gA1": Interval(0.0, 0.0),
           "gA2": Interval(0.0, 0.0)},
          {"b": 5e-324, "gA1": 0.0, "gA2": 0.0}))
def test_box_contains_point_value(e, envs):
    env_box, env_pt = envs
    enclosure = e.box(env_box)
    try:
        value = e.ev(env_pt)
    except ZeroDivisionError:
        return
    if enclosure.empty:
        # the empty marker asserts the denominator is zero on the whole box,
        # so a finite point value must come from a different branch; the only
        # way to get here is 0/0 inside ev, which raises instead.
        return
    assert enclosure.contains(float(value), slack=1e-9 + 1e-9 * abs(value))
