"""Chain parameters as ``exprs`` trees: the per-parameter reference that the
batched enclosures of ``nlp.chain_bounds`` are checked against."""

from bipoint import nlp
from bipoint.exprs import Const, Interval, Op, Var


def interval_env(box, m):
    """``nlp.gamma_intervals`` of one box as the ``Interval``s ``Expr.box``
    reads."""
    return {k: Interval(float(lo), float(hi))
            for k, (lo, hi) in nlp.gamma_intervals(box, m).items()}


def _affine(c0, terms):
    # terms in sorted order, then the constant, as nlp.chain_bounds adds them
    e = None
    for v, c in terms:
        t = Var(v) if c == 1 else Op("*", Const(c), Var(v))
        e = t if e is None else Op("+", e, t)
    if e is None:
        return Const(c0)
    return e if c0 == 0 else Op("+", Const(c0), e)


def as_tree(p):
    """clamp01([alpha +] N [/ D]) for the ``tables.LinFrac`` ``p``."""
    body = _affine(p.n0, p.n)
    if p.d or p.d0 != 1:
        body = Op("/", body, _affine(p.d0, p.d))
    if p.alpha != 0:
        body = Op("+", Const(p.alpha), body)
    return Op("clamp01", body)
