"""Factor-revealing NLP: per-box LP relaxation, branch-and-bound certification,
and exact point evaluation.

The NLP maximizes the worst-case ratio X subject to X <= cost(A) for every
chain A, the star-rounding bound, and the normalization of the fractional
cost to 1.  Over a box of (b, gamma) values the chain parameters are enclosed
by interval arithmetic, all chains of a model in one vectorized pass over the
linear-fractional form every parameter compiles to, and each occurrence of
p_W (resp. 1 - p_W) in a cost expression is replaced by its upper bound p_W^1
(resp. 1 - p_W^0); since all these terms carry nonnegative coefficients the
resulting LP upper-bounds the NLP on the box.  Boxes whose LP value falls
below the target are certified; the rest are halved per bounded variable
until the worklist empties.  The initial boxes' LPs are solved cold, and each
child's LP starts from the basis its parent's LP ended on; a replay solves
every leaf cold.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algfamily import instantiate, is_valid, set_size
from .partition import check_thresholds
from .rounding import sr_bound
from .tables import builtin_tables, distinct_params, set_names

X_CAP = 100.0  # safe ceiling on the LP objective; far above any real factor
DELTA = 1e-7  # safety margin over the LP solver tolerance
TAIL_N = 2.0  # gamma tails split as [0, N] and [N, inf); tails never divided
CHECKPOINT_EVERY = 10_000
REPLAY_BLOCK = 256  # leaves a replay encloses and solves per pass


@dataclass
class NlpModel:
    m: int
    g_bounds: list  # thresholds g_0 = 0 < g_1 < ... < g_m
    chains: list  # list of {set name: tables.LinFrac}
    name: str = ""

    def box_vars(self) -> list:
        if self.m == 1:
            return ["b", "gA1"]
        return ["b"] + [f"gA{t}" for t in range(2, self.m + 1)]

    @cached_property
    def chain_table(self) -> "ChainTable":
        """``compile_chains(self)``, computed on first use."""
        return compile_chains(self)

    @cached_property
    def cost_rows(self) -> tuple:
        """The rows of the relaxed costs, computed on first use.

        Per class (Z, x, y), in ``class_keys(m)`` order: the
        ``set_names(m)`` columns of Z_y and of A_x (x - 1, which also picks
        the minimum of p_B^0 over B_1..B_x), and the constants (g, h, div)
        of the relaxed cross term k = q * (g + h * (1 - min p_B^0)) / div.
        They are (g_x, 1 - g_x, 1) in zone C, (1, 0, 1) at B level 1,
        (1, 0, g_{x-1}) at B, y <= x and (1, 1/g_{x-1} - 1, 1) at B, y > x.
        A factor 1 + 0 or a divisor 1 changes no bit, so k is the same as in
        a per-zone form.  Each threshold constant is evaluated exactly as
        written and rounded once, which is what mixing an exact ``Fraction``
        threshold into float arithmetic does, so the coefficients match the
        mixed arithmetic bit for bit.
        """
        m, g = self.m, self.g_bounds
        cols, consts = [], []
        for z, x, y in class_keys(m):
            if z == "C":
                k = (float(g[x]), float(1 - g[x]), 1.0)
            elif x == 1:
                k = (1.0, 0.0, 1.0)
            elif y <= x:
                k = (1.0, 0.0, float(g[x - 1]))
            else:
                k = (1.0, float(1 / g[x - 1] - 1), 1.0)
            cols.append(((m if z == "B" else 2 * m) + y - 1, x - 1))
            consts.append(k)
        z_col, a_col = np.array(cols).T
        g, h, div = np.array(consts).T
        return z_col, a_col, g, h, div

    @cached_property
    def lp_template(self) -> "LpProblem":
        """``build_lp_template(self)``, computed on first use."""
        return build_lp_template(self)


def class_keys(m: int) -> list:
    """The client classes (zone, x, y), in the order of the cost columns."""
    return [(z, x, y) for z in "BC"
            for x in range(1, m + 1) for y in range(1, m + 1)]


def model_for_table(table: str, g_inner) -> NlpModel:
    """Model over a built-in chain table with inner thresholds g_1..g_{m-1},
    which must be strictly increasing in (0,1) as for ``build_partition``."""
    m, chains = builtin_tables()[table]
    g_bounds = [0] + check_thresholds(g_inner) + [1]
    if len(g_bounds) != m + 1:
        raise ValueError(f"table {table} needs {m - 1} inner thresholds")
    return NlpModel(m=m, g_bounds=g_bounds, chains=chains, name=table)


def _clamp01(x):
    return np.minimum(np.maximum(x, 0.0), 1.0)


def gamma_intervals(box: dict, m: int) -> dict:
    """Enclosures (lo, hi) of every gA/gC over a batch of boxes, via the size
    recurrence gC_t = min(gA_t, 1 - sum_{s>t} gC_s) from t = m down to 2,
    the tail starting at 0, and gC_1 = 1 - sum_{s>1} gC_s (1 at m = 1).

    ``box`` maps each box variable to its (lo, hi) bounds as float arrays with
    a leading box axis (or as floats, for one box).  Element by element the
    steps are those of the ``exprs.Interval`` recurrence (min, max, add and
    subtract, in the same order; min(gA_m, 1 - 0) is min(1, gA_m)), so the
    enclosures are the same bit for bit.
    """
    env = dict(box)
    tail_lo = tail_hi = np.zeros_like(box["b"][0], dtype=float)
    for t in range(m, 1, -1):
        lo, hi = env[f"gA{t}"]
        lo = _clamp01(np.minimum(lo, 1.0 - tail_hi))
        hi = _clamp01(np.minimum(hi, 1.0 - tail_lo))
        env[f"gC{t}"] = (lo, hi)
        tail_lo, tail_hi = tail_lo + lo, tail_hi + hi
    env["gC1"] = (_clamp01(1.0 - tail_hi), _clamp01(1.0 - tail_lo))
    return env


@dataclass(frozen=True)
class ChainTable:
    """Every chain parameter of a model as clamp01(alpha + N/D), N and D
    affine in the variables ``names`` (sorted), laid out for
    ``chain_bounds``.

    Chains share many parameters, so only the distinct ones
    (``tables.distinct_params``) are enclosed: parameter (chain, set), in
    row-major order over ``shape``, the sets in ``set_names(m)`` order, is
    distinct parameter ``inverse[chain * sets + set]``.  Their sums are
    accumulated in a flat array over (end, side, distinct parameter): end 0
    is the low end and 1 the high end, side 0 is N and 1 is D.  Only the
    nonzero terms are kept, each twice, once per end, and ``dest`` is the
    sum a term goes to.  The values of the box variables are read from one
    array over (end, variable), so a term's ``source`` picks the end its
    coefficient's sign calls for: the low end of c * v is c * lo where
    c > 0 and c * hi where c < 0.  Each sum meets its terms in ``names``
    order.
    """

    names: tuple
    shape: tuple  # (chains, sets)
    source: np.ndarray  # (terms,) index into the (end, variable) values
    coef: np.ndarray  # (terms,)
    dest: np.ndarray  # (terms,) index into the sums
    const: np.ndarray  # (2 * 2 * distinct,) the constant of each sum
    alpha: np.ndarray  # (distinct,)
    inverse: np.ndarray  # (chains * sets,) the distinct parameter of each


def compile_chains(model: NlpModel) -> ChainTable:
    """The model's chain parameters as a ``ChainTable``, built from their
    exact ``LinFrac``s.

    Raises ValueError, naming the chain, the set and the formula, for a
    parameter using a variable the branch-and-bound box does not bound.
    """
    m = model.m
    sets = set_names(m)
    params, rows = distinct_params(model.chains, m)
    bound = set(model.box_vars()) | {f"gC{t}" for t in range(1, m + 1)}
    # distinct parameters come in order of first use, so the first one
    # refused is also the first in the table
    for j, e in enumerate(params):
        unbound = sorted({v for v, _ in e.n + e.d} - bound)
        if unbound:
            i = next(i for i, row in enumerate(rows) if j in row)
            raise ValueError(
                f"chain {i}, set {sets[rows[i].index(j)]}: {e!r} uses "
                f"{', '.join(unbound)}, which the m={m} box does not bound "
                f"(it bounds {', '.join(sorted(bound))})")
    names = tuple(sorted({v for e in params for v, _ in e.n + e.d}))
    nd, nv = len(params), len(names)
    # (variable, sum, coefficient) of every term of N, then of D, of each
    # distinct parameter
    terms = np.array([(names.index(v), side * nd + j, float(c))
                      for j, e in enumerate(params)
                      for side, affine in enumerate((e.n, e.d))
                      for v, c in sorted(affine)]).reshape(-1, 3)
    var, dest = terms[:, :2].T.astype(np.intp)
    coef = terms[:, 2]
    up = coef > 0
    const = [float(e.n0) for e in params] + [float(e.d0) for e in params]
    # the low-end copy of every term, then its high-end one
    return ChainTable(
        names=names, shape=(len(model.chains), len(sets)),
        source=np.concatenate([np.where(up, var, var + nv),
                               np.where(up, var + nv, var)]),
        coef=np.concatenate([coef, coef]),
        dest=np.concatenate([dest, dest + 2 * nd]),
        const=np.array(const * 2),
        alpha=np.array([float(e.alpha) for e in params]),
        inverse=np.array(rows, dtype=np.intp).reshape(-1))


def chain_bounds(table: ChainTable, env: dict) -> tuple:
    """(p0, p1): lower and upper bounds of every chain parameter over the
    boxes whose ``gamma_intervals`` are ``env``, as (..., chains, sets)
    arrays, the leading axes those of the boxes.

    Element by element this repeats the float operations of ``Expr.box`` on
    the parameter written as an expression tree, so the bounds are the same
    bit for bit: the affine terms are added in ``names`` order and then the
    constant (a zero term adds nothing, so only the nonzero ones are
    added), the quotient follows ``exprs.idiv``, and then come + alpha and
    the clamp to [0, 1].  A parameter whose denominator is 0 on the whole
    box and whose numerator is not (the parameter of an empty set) gets
    (1, 0), which zeroes every occurrence of p and of 1 - p.
    """
    ends = np.array([env[v][0] for v in table.names]
                    + [env[v][1] for v in table.names], dtype=float)
    boxes = ends.shape[1:]
    values = ends.reshape(len(ends), -1).T  # (box, end and variable)
    n, size = len(values), len(table.const)
    terms = values[:, table.source] * table.coef
    # bincount adds each box's terms into their sums one by one, in order,
    # starting from 0
    at = table.dest + size * np.arange(n)[:, np.newaxis]
    sums = np.bincount(at.ravel(), terms.ravel(), n * size).reshape(n, size)
    sums += table.const
    sums = sums.reshape(n, 2, 2, -1)  # (box, end, side, parameter)
    x, y = sums[:, :, 0], sums[:, :, 1]
    q = np.empty((2, n, x.shape[-1]))  # (end, box, parameter)
    with np.errstate(divide="ignore", invalid="ignore"):
        # y away from 0: x * [1/yh, 1/yl].  exprs._mul takes 0 * inf as 0;
        # here that product is nan, which fmin and fmax skip, with the same
        # bounds: a nan needs an infinite end of x and of y, and the other
        # end of x is either finite, giving the 0 with that end of y, or
        # infinite too, so the other end of y gives -inf and inf.  (A 0 of
        # either sign is the same once alpha is added.)
        ps = x[:, :, np.newaxis] * (1.0 / y[:, np.newaxis, ::-1])
        np.fmin.reduce(ps, axis=(1, 2), out=q[0])
        np.fmax.reduce(ps, axis=(1, 2), out=q[1])
        yl, yh = y[:, 0], y[:, 1]
        touch = (yl <= 0) & (yh >= 0)
        touching = touch.any()
        if touching:
            empty = _touching_zero(x[:, 0], x[:, 1], yl, yh, touch, q)
    q += table.alpha
    np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)
    if touching:
        q[0][empty] = 1.0
        q[1][empty] = 0.0
    p = q.take(table.inverse, axis=-1)
    shape = boxes + table.shape
    return p[0].reshape(shape), p[1].reshape(shape)


def _touching_zero(xl, xh, yl, yh, touch, q) -> np.ndarray:
    """``exprs.idiv`` where the denominator [yl, yh] holds 0, written into
    the quotient bounds ``q``: one end stays finite where y touches 0 on one
    side only.  Returns the mask of the empty-set marker: y = 0 and x not
    holding 0."""
    lo, hi = q
    lo[touch] = -math.inf
    hi[touch] = math.inf
    above = (yl == 0) & (yh > 0)
    below = (yh == 0) & (yl < 0)
    x_pos, x_neg = xl > 0, xh < 0
    np.copyto(lo, xl / yh, where=above & x_pos)
    np.copyto(hi, xh / yh, where=above & x_neg)
    np.copyto(hi, xl / yl, where=below & x_pos)
    np.copyto(lo, xh / yl, where=below & x_neg)
    return (yl == 0) & (yh == 0) & (x_pos | x_neg)


def relaxed_cost_coeffs(p0, p1, rows, m: int) -> tuple:
    """Upper-bound coefficients (c1, c2) of (D_{Z,1}, D_{Z,2}), each of shape
    (..., chains, classes) with the classes in ``class_keys(m)`` order,
    with each p / (1-p) occurrence relaxed independently.

    ``p0``, ``p1`` are ``chain_bounds`` arrays (columns in ``set_names(m)``
    order, any leading box axes); ``rows`` is the model's ``cost_rows``.
    """
    z_col, a_col, g, h, div = rows
    not_p0 = 1 - p0
    # 1 - min over B_1..B_x of p_B^0
    not_b0 = 1 - np.minimum.accumulate(p0[..., m:2 * m], axis=-1)
    # take, unlike fancy indexing, leaves the gathers C-ordered, so c1 and
    # c2 are too, and a matrix product with them sums in the same order
    not_pz0 = not_p0.take(z_col, axis=-1)
    k = not_pz0 * not_p0.take(a_col, axis=-1) * \
        (g + h * not_b0.take(a_col, axis=-1)) / div
    return not_pz0 + k, p1.take(z_col, axis=-1) + k


@dataclass(eq=False)
class LpLayout:
    """The pattern of a column-wise matrix and the bounds of the LPs stored
    in it.  Entry e sits at (``row[e]``, ``col[e]``), the entries ordered by
    column and by row within a column, as HiGHS reads them."""

    shape: tuple  # (rows, columns)
    row: np.ndarray
    col: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_upper: np.ndarray

    @classmethod
    def of(cls, mask, row_lower, row_upper, col_upper) -> "LpLayout":
        """The layout with an entry wherever ``mask`` is true."""
        col, row = np.nonzero(mask.T)
        return cls(mask.shape, row, col, row_lower, row_upper, col_upper)

    @cached_property
    def entry(self) -> np.ndarray:
        """The number of the entry at each (row, column); -1 for none."""
        out = np.full(self.shape, -1)
        out[self.row, self.col] = np.arange(len(self.row))
        return out

    @cached_property
    def highs_pattern(self) -> tuple:
        """HiGHS's ``start_`` and ``index_`` of the pattern, as lists, which
        convert to the bindings' vectors faster than arrays do."""
        start = np.searchsorted(self.col, np.arange(self.shape[1] + 1))
        return start.tolist(), self.row.tolist()


@dataclass(eq=False, slots=True)
class LpProblem:
    """A box LP in the form HiGHS reads: maximize X, the first column,
    subject to row_lower <= A x <= row_upper and 0 <= x <= col_upper, the
    columns in ``lp_columns(m)`` order.

    ``A`` is stored column-wise: ``values`` holds its entries in the order
    of ``layout``, which holds the bounds too.  An entry may be an explicit
    0, which HiGHS drops.  The LPs of one model share the layout of its
    ``lp_template``.  ``basis``, a ``HighsBasis``, is the basis the solve
    starts from; with none it starts cold.
    """

    layout: LpLayout
    values: np.ndarray
    basis: object = None

    @property
    def A(self) -> np.ndarray:
        out = np.zeros(self.layout.shape)
        out[self.layout.row, self.layout.col] = self.values
        return out

    @property
    def row_lower(self) -> np.ndarray:
        return self.layout.row_lower

    @property
    def row_upper(self) -> np.ndarray:
        return self.layout.row_upper

    @property
    def col_upper(self) -> np.ndarray:
        return self.layout.col_upper


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | failed
    value: float = -math.inf
    basis: object = None  # the HighsBasis an optimal solve ended on
    simplex_iterations: int = 0


def lp_columns(m: int) -> list:
    """The names of the box LP's columns: X, D1, D2, then D_{Z,1} and
    D_{Z,2} of each class in ``class_keys(m)`` order."""
    names = ["X", "D1", "D2"]
    for z, x, y in class_keys(m):
        names += [f"D_{z}1_{x}{y}", f"D_{z}2_{x}{y}"]
    return names


def build_lp_template(model: NlpModel) -> LpProblem:
    """What every box LP of a model shares: its layout and the entries that
    no box changes.  The layout holds the nonzeros of the fixed rows, the
    whole chain block and the three entries that depend on b, all of them
    whatever their value on a box; the chain block and the b entries are 0
    in the template.  The arrays are never written once built: the LPs
    share the layout, and ``_HighsSolver`` recognises it by identity."""
    n_chain = len(model.chains)
    nv = len(lp_columns(model.m))
    # rows: X <= cost of each chain, then the SR bound, the relaxed
    # normalization (1 - b) D1 + b D2 <= 1, D2 <= D1, and the two
    # equalities D_i = sum over classes of D_{Z,i}
    eq = n_chain + 3
    A = np.zeros((eq + 2, nv))
    A[:n_chain + 1, 0] = 1.0
    A[eq - 1, 2] = 1.0
    A[eq - 1, 1] = -1.0
    A[eq, 1] = A[eq + 1, 2] = 1.0
    A[eq, 3::2] = A[eq + 1, 4::2] = -1.0
    row_lower = np.full(eq + 2, -math.inf)
    row_lower[eq:] = 0.0
    row_upper = np.zeros(eq + 2)
    row_upper[n_chain:eq - 1] = 1.0
    col_upper = np.full(nv, math.inf)
    col_upper[0] = X_CAP
    pattern = A != 0
    pattern[:n_chain, 3:] = True
    pattern[n_chain, 2] = pattern[n_chain + 1, 1:3] = True
    layout = LpLayout.of(pattern, row_lower, row_upper, col_upper)
    return LpProblem(layout, A[layout.row, layout.col])


def relax_to_lp(model: NlpModel, boxes: list) -> list:
    """The relaxed LP of each box key, all boxes enclosed in one pass.

    Each LP copies the values of ``model.lp_template`` and writes its chain
    block and its b entries; the layout is the template's own.
    """
    m, n_chain, t = model.m, len(model.chains), model.lp_template
    bounds = np.array(boxes, dtype=float)  # (box, variable, end)
    env = gamma_intervals({v: (bounds[:, i, 0], bounds[:, i, 1])
                           for i, v in enumerate(model.box_vars())}, m)
    p0, p1 = chain_bounds(model.chain_table, env)
    c1, c2 = relaxed_cost_coeffs(p0, p1, model.cost_rows, m)

    at = t.layout.entry
    values = np.repeat(t.values[np.newaxis], len(boxes), axis=0)
    # X <= cost of each chain; the D_{Z,1} and D_{Z,2} columns alternate.
    # 0 - c, not -c, which would write a -0 where c is 0
    values[:, at[:n_chain, 3::2]] = 0.0 - c1
    values[:, at[:n_chain, 4::2]] = 0.0 - c2
    b0, b1 = bounds[:, 0, 0], bounds[:, 0, 1]
    values[:, at[n_chain, 2]] = -2.0 * b1 * (1 - b0)
    # relaxed normalization (the exact constraint holds at some b in the box)
    values[:, at[n_chain + 1, 1]] = 1 - b1
    values[:, at[n_chain + 1, 2]] = b1
    return [LpProblem(t.layout, v) for v in values]


class _HighsSolver:
    """One HiGHS instance from scipy's bundled bindings, configured once and
    reused for every LP.

    One ``HighsLp`` is kept.  Its sizes, costs, bounds and matrix pattern
    are written again only when an LP does not share its layout with the
    one before (the LPs of one model share the layout of its
    ``lp_template``), and each call hands over the matrix values alone.
    ``passModel`` discards the previous model and its basis, so a solve
    starts cold, or from the LP's own ``basis`` if it has one, and its
    answer does not depend on the LPs solved before it.  A basis HiGHS
    refuses (one of another model's size, say) leaves the solve cold.
    Not safe to call from several threads at once.
    """

    def __init__(self):
        # imported here, on the first LP, so that commands which solve none
        # do not load scipy.optimize
        import scipy.optimize._highspy._core as core

        self._core = core
        self._highs = core._Highs()
        options = {"output_flag": False, "presolve": "off",
                   "primal_feasibility_tolerance": 1e-9,
                   "dual_feasibility_tolerance": 1e-9}
        for name, value in options.items():
            if self._highs.setOptionValue(name, value) != core.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejects option {name}={value!r}")
        status = core.HighsModelStatus
        self._status = {status.kOptimal: "optimal",
                        status.kInfeasible: "infeasible",
                        status.kUnbounded: "unbounded"}
        self._lp = core.HighsLp()
        self._matrix = self._lp.a_matrix_
        self._matrix.format_ = core.MatrixFormat.kColwise
        self._layout = None  # the layout self._lp holds

    def _share(self, layout: LpLayout) -> None:
        lp, mat = self._lp, self._matrix
        n_row, n_col = layout.shape
        lp.num_col_ = mat.num_col_ = n_col
        lp.num_row_ = mat.num_row_ = n_row
        cost = np.zeros(n_col)
        cost[0] = -1.0  # maximize X
        lp.col_cost_ = cost
        lp.col_lower_ = np.zeros(n_col)
        lp.col_upper_ = layout.col_upper
        lp.row_lower_ = layout.row_lower
        lp.row_upper_ = layout.row_upper
        mat.start_, mat.index_ = layout.highs_pattern
        self._layout = layout

    def __call__(self, p: LpProblem) -> LpSolution:
        core, highs = self._core, self._highs
        if p.layout is not self._layout:
            self._share(p.layout)
        self._matrix.value_ = p.values.tolist()
        if highs.passModel(self._lp) == core.HighsStatus.kError:
            return LpSolution(status="failed")
        if p.basis is not None:
            # a refused basis changes nothing: the solve starts cold
            highs.setBasis(p.basis)
        if highs.run() == core.HighsStatus.kError:
            return LpSolution(status="failed")
        # getInfo() would copy every info value, 20 times as slow
        _, iterations = highs.getInfoValue("simplex_iteration_count")
        status = self._status.get(highs.getModelStatus(), "failed")
        if status == "optimal":
            return LpSolution(status, -highs.getObjectiveValue(),
                              highs.getBasis(), iterations)
        return LpSolution(status, math.inf if status == "unbounded"
                          else -math.inf, simplex_iterations=iterations)


_solver = None  # made on the first solve_lp call


def solve_lp(p: LpProblem) -> LpSolution:
    """Solve ``p`` with HiGHS, through scipy's bundled bindings."""
    global _solver
    if _solver is None:
        _solver = _HighsSolver()
    return _solver(p)


@dataclass
class BoundCertificate:
    target: float
    status: str  # certified | exhausted-budget | counterexample-box
    boxes_processed: int
    n_leaves: int
    worst_box: dict = None
    worst_value: float = None
    certificate_path: str = None
    # where this run's time went (a resumed run counts only its own part):
    # the LPs solved, the seconds spent enclosing boxes into LPs
    # (relax_to_lp) and the seconds spent solving them (solve_lp), and the
    # simplex iterations of those solves
    lp_solves: int = 0
    enclose_s: float = 0.0
    solve_s: float = 0.0
    simplex_iterations: int = 0


def _box_solutions(model, boxes, tally: Counter = None,
                   basis=None) -> list:
    """The LP solution of each box, the boxes enclosed in one pass and every
    LP solved from ``basis`` (cold if None).  ``tally``, if given, adds up
    ``lp_solves``, ``enclose_s``, ``solve_s`` and ``simplex_iterations``."""
    clock = time.perf_counter
    start = clock()
    lps = relax_to_lp(model, boxes)
    enclosed = clock()
    solutions = []
    for lp in lps:
        lp.basis = basis
        solutions.append(solve_lp(lp))
    if tally is not None:
        tally["lp_solves"] += len(lps)
        tally["enclose_s"] += enclosed - start
        tally["solve_s"] += clock() - enclosed
        tally["simplex_iterations"] += sum(
            sol.simplex_iterations for sol in solutions)
    return solutions


def _value(sol: LpSolution) -> float:
    # the box LP is feasible (zero satisfies every row) and bounded
    # (X <= X_CAP), so any other status is a solver failure: never
    # trusted, it forces a split
    return sol.value if sol.status == "optimal" else math.inf


def _box_values(model, boxes) -> list:
    """The LP value of each box, each LP solved cold."""
    return [_value(sol) for sol in _box_solutions(model, boxes)]


def _basis_codes(basis):
    """A HiGHS basis as a checkpoint stores it: the status code of each
    column and of each row, one digit each; None for no basis."""
    if basis is None:
        return None
    return {"col": "".join(str(int(s)) for s in basis.col_status),
            "row": "".join(str(int(s)) for s in basis.row_status)}


def _basis_from_codes(codes):
    """The HiGHS basis ``_basis_codes`` wrote, or None."""
    if codes is None:
        return None
    import scipy.optimize._highspy._core as core

    status = core.HighsBasisStatus
    basis = core.HighsBasis()
    basis.col_status = [status(int(c)) for c in codes["col"]]
    basis.row_status = [status(int(c)) for c in codes["row"]]
    # marked as getBasis marks the basis it hands over, so that a solve
    # starts from it as it would from that one
    basis.valid, basis.alien = True, False
    return basis


def _split(box: tuple) -> list:
    """The children of a box key, in ``itertools.product`` order: every
    bounded variable wider than 1e-9 halved, tails whole; [] if none is."""
    axes = []
    for pair in box:
        lo, hi = pair
        if math.isinf(hi) or hi - lo <= 1e-9:
            axes.append([pair])
        else:
            mid = (lo + hi) / 2
            axes.append([(lo, mid), (mid, hi)])
    children = list(itertools.product(*axes))
    return children if len(children) > 1 else []


def initial_boxes(model: NlpModel) -> list:
    """The full domain as box keys: b in [0,1], each gamma split into [0,N]
    and the tail."""
    return list(itertools.product(*(
        [(0.0, 1.0)] if var == "b" else [(0.0, TAIL_N), (TAIL_N, math.inf)]
        for var in model.box_vars())))


def _run_key(model: NlpModel, target: float) -> dict:
    """What a checkpoint must match to be resumed: the target, the margin
    ``DELTA`` and the model, its thresholds as exact fractions."""
    return {"target": target, "delta": DELTA, "m": model.m,
            "model": model.name,
            "g_bounds": [str(Fraction(g)) for g in model.g_bounds]}


def branch_and_bound(model: NlpModel, target: float, budget: int = None,
                     checkpoint: str = None, resume: bool = False,
                     certificate: str = None, log=None) -> BoundCertificate:
    """Certify that the NLP optimum over the full domain is at most target.

    Best-first worklist (largest LP value first).  A box is a leaf once its
    LP value + DELTA <= target; an unsplittable box above target is a
    counterexample.  The initial boxes' LPs are solved cold and each child's
    LP from the basis its parent's LP ended on, which the worklist keeps with
    the parent.  That basis depends on the split tree alone, not on the
    order of the solves, so neither does any box's value.  The worklist is
    checkpointed periodically and the leaves streamed to an audit file, one
    JSON record per line.  A checkpoint holds every box not yet settled,
    including the one a stopped run ended on (so it counts the boxes before
    that one), with its basis, and the length of the audit file it
    matches, so a resumed run extends the file to a certificate of the
    whole domain.  ``budget`` counts the boxes of this run alone, popped up
    to its last split: it is checked only on a box about to be split, and
    best first pops every such box before any leaf, so leaves never stop a
    run.  ``boxes_processed`` counts the boxes of every run before it too.
    The checkpoint also records the target, the margin and the model it
    was written for; resuming it with any other raises ValueError, before
    the audit file is touched, as does a worklist box ``_box_key`` refuses,
    or resuming onto an audit file that is missing or shorter than the
    checkpoint records, or onto any audit file from a checkpoint that
    records none.  A budget below one box, or a resume without a
    checkpoint, raises ValueError too.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"the box budget must be at least 1, not {budget}")
    if resume and not checkpoint:
        raise ValueError("a resumed run needs a checkpoint")
    processed = start = 0  # start: the boxes of the runs before this one
    n_leaves = 0
    heap = []  # (-value, push number, box key, basis)
    pushes = itertools.count()
    key = _run_key(model, target)
    names = model.box_vars()
    tally = Counter()

    def push(box, value, basis):
        # a leaf is never split, so no child starts from its basis; most
        # boxes are leaves, and theirs would take 250 bytes each
        if value + DELTA <= target:
            basis = None
        heapq.heappush(heap, (-value, next(pushes), box, basis))

    state = None
    if resume and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            state = json.load(fh)
        wrong = [f"{k} {state.get(k)!r} (this run: {v!r})"
                 for k, v in key.items() if state.get(k) != v]
        if wrong:
            raise ValueError(f"checkpoint {checkpoint} was written for "
                             f"another run: {', '.join(wrong)}")
        worklist = [(_box_key(rec["box"], names), rec["value"],
                     rec.get("basis")) for rec in state["worklist"]]
        if certificate:
            need = state.get("certificate_bytes")
            have = os.path.getsize(certificate) \
                if os.path.exists(certificate) else None
            if need is None or have is None or have < need:
                recorded = "no audit file" if need is None else \
                    f"{need} bytes of its audit file"
                found = "missing" if have is None else f"{have} bytes long"
                raise ValueError(f"checkpoint {checkpoint} records {recorded}"
                                 f", and {certificate} is {found}")

    # a run that starts afresh, also one asked to resume from a checkpoint
    # that does not exist, writes its audit file from the start
    cert_fh = open(certificate, "w" if state is None else "a") \
        if certificate else None

    def save_checkpoint(settled):
        if not checkpoint:
            return
        state = {
            **key,
            "processed": settled,
            "n_leaves": n_leaves,
            "worklist": [{"box": _box_record(b, names), "value": -nv,
                          "basis": _basis_codes(s)} for nv, _, b, s in heap],
        }
        if cert_fh:
            cert_fh.flush()
            state["certificate_bytes"] = os.fstat(cert_fh.fileno()).st_size
        tmp = checkpoint + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh)
        os.replace(tmp, checkpoint)

    def stop(status, box, value, basis):
        # unsettled: a resumed run takes it up again, from the same basis
        push(box, value, basis)
        save_checkpoint(processed - 1)
        return BoundCertificate(
            target=target, status=status, boxes_processed=processed,
            n_leaves=n_leaves, worst_box=_box_record(box, names),
            worst_value=value, certificate_path=certificate, **tally)

    try:
        if state is not None:
            processed = start = state["processed"]
            n_leaves = state["n_leaves"]
            if cert_fh:
                # drop leaves written after the checkpoint: they are re-derived
                cert_fh.truncate(state["certificate_bytes"])
            for box, value, codes in worklist:
                push(box, value, _basis_from_codes(codes))
        else:
            boxes = initial_boxes(model)
            for box, sol in zip(boxes, _box_solutions(model, boxes, tally)):
                push(box, _value(sol), sol.basis)

        while heap:
            neg, _, box, basis = heapq.heappop(heap)
            value = -neg
            processed += 1
            if value + DELTA <= target:
                n_leaves += 1
                if cert_fh:
                    cert_fh.write(json.dumps({"box": _box_record(box, names),
                                              "lp_value": value}) + "\n")
            else:
                if budget is not None and processed - start >= budget:
                    return stop("exhausted-budget", box, value, basis)
                children = _split(box)
                if not children:
                    return stop("counterexample-box", box, value, basis)
                for child, sol in zip(children, _box_solutions(
                        model, children, tally, basis)):
                    push(child, _value(sol), sol.basis)
            if processed % CHECKPOINT_EVERY == 0:
                save_checkpoint(processed)
                if log:
                    log(f"boxes={processed} worklist={len(heap)} "
                        f"worst={value:.6f}")
        save_checkpoint(processed)
        return BoundCertificate(target=target, status="certified",
                                boxes_processed=processed, n_leaves=n_leaves,
                                certificate_path=certificate, **tally)
    finally:
        if cert_fh:
            cert_fh.close()


def _box_record(box: tuple, names) -> dict:
    """The record of a box key that files and ``worst_box`` hold."""
    return dict(zip(names, box))


def _box_key(box, names) -> tuple:
    """A box record as its key, the (lo, hi) float pairs of ``names``.

    Raises ValueError, naming the record, for one that bounds other
    variables than ``names`` or has a bound that is not a (lo, hi) pair.
    """
    if not isinstance(box, dict) or set(box) != set(names):
        raise ValueError(f"box record {box!r} does not bound exactly "
                         f"{', '.join(names)}")
    try:
        return tuple((float(lo), float(hi)) for lo, hi in
                     (box[v] for v in names))
    except (TypeError, ValueError):
        raise ValueError(f"box record {box!r} has a bound that is not a "
                         f"(lo, hi) pair of numbers") from None


def _leaves_tile_domain(model: NlpModel, leaves: list) -> bool:
    """Whether ``leaves`` (box keys) are exactly the leaves of a split tree
    grown from ``initial_boxes(model)`` by ``_split``: every branch of the
    tree ends at a leaf, and every leaf ends one branch.

    Splits halve intervals, so a leaf equals its tree node exactly, also
    after a JSON round trip.  The tree is regrown once, depth first: a leaf
    ends its branch and every other node is split.  A node that cannot be
    split is a region no leaf covers, which the walk reaches within about 31
    halvings of entering it.  A leaf the walk never meets is no tree node,
    or lies inside another leaf, or repeats one.
    """
    keys = set(leaves)
    met = 0
    work = initial_boxes(model)
    while work:
        box = work.pop()
        if box in keys:
            met += 1
            continue
        children = _split(box)
        if not children:
            return False
        work.extend(children)
    return met == len(leaves)


def replay_certificate(model: NlpModel, path: str, target: float) -> bool:
    """``replay_lines`` on the lines of the audit file ``path``."""
    with open(path) as fh:
        return replay_lines(model, fh, target)


def replay_lines(model: NlpModel, lines, target: float) -> bool:
    """Check the leaf records ``lines`` of an audit file, blank lines
    skipped: their leaves tile the model's domain exactly, and re-solving
    every leaf LP still clears the target by the margin ``DELTA``.  The
    leaves are enclosed in blocks of ``REPLAY_BLOCK``; the first block with
    a leaf that fails ends the replay."""
    names = model.box_vars()
    try:
        keys = [_box_key(json.loads(line)["box"], names)
                for line in lines if line.strip()]
    except (ValueError, KeyError, TypeError):
        return False  # a malformed or truncated record
    if not _leaves_tile_domain(model, keys):
        return False
    return all(value + DELTA <= target
               for i in range(0, len(keys), REPLAY_BLOCK)
               for value in _box_values(model, keys[i:i + REPLAY_BLOCK]))


# --- point evaluation -------------------------------------------------------


@dataclass
class PointReport:
    feasible: bool
    objective: float
    sr_value: float
    costs: dict  # label -> cost bound at the point (valid chains only)
    tight: list  # labels within 1e-3 of the objective
    violations: list = field(default_factory=list)


def point_costs(vectors, env: dict, rows, m: int, profile: dict):
    """The cost bound of each parameter vector at the point ``env``: the box
    LP's cost rows ``rows`` (a model's ``cost_rows``) on the degenerate box
    at the point, summed against ``profile``, which maps (zone, x, y) to the
    class's (D_1, D_2).

    A set that is empty at the point reads 1, which drops it from the backup
    minimum; a class on an empty set must hold no mass.
    """
    sets = set_names(m)
    p = np.array([[1.0 if set_size(W, env) == 0 else float(v[W])
                   for W in sets] for v in vectors]).reshape(-1, len(sets))
    c1, c2 = relaxed_cost_coeffs(p, p, rows, m)
    d = np.array([profile.get(key, (0, 0)) for key in class_keys(m)],
                 dtype=float)
    return c1 @ d[:, 0] + c2 @ d[:, 1]


def evaluate_point(model: NlpModel, env: dict, profile: dict,
                   X: float = None, tol: float = 1e-6) -> PointReport:
    """Evaluate every chain's cost bound and the SR bound at a full variable
    assignment; the minimum over valid chains and SR is the certified value.

    ``env`` assigns b and all gA/gC; ``profile`` maps (zone, x, y) to the
    per-class (D_1, D_2) sums.
    """
    violations = []
    m = model.m
    classes = set(class_keys(m))
    # a class with an empty facility set, or one the model does not have,
    # holds no clients; any mass placed there is inadmissible and excluded
    # from the chain costs
    kept = {}
    for (z, x, y), d in profile.items():
        if (z, x, y) not in classes or set_size(f"A{x}", env) == 0 or \
                set_size(f"{z}{y}", env) == 0:
            if d[0] or d[1]:
                violations.append(f"mass on empty class {(z, x, y)}")
            continue
        kept[(z, x, y)] = d
    profile = kept
    D1 = sum(v[0] for v in profile.values())
    D2 = sum(v[1] for v in profile.values())
    b = env["b"]
    if any(v[0] < 0 or v[1] < 0 for v in profile.values()):
        violations.append("negative class sum")
    if D2 > D1 + tol:
        violations.append(f"D2={D2} > D1={D1}")
    norm = (1 - b) * D1 + b * D2
    if abs(norm - 1) > tol:
        violations.append(f"normalization {norm} != 1")
    if not (0 <= b <= 1):
        violations.append(f"b={b} outside [0,1]")

    valid = {}
    for i, params in enumerate(model.chains):
        values = instantiate(params, env)
        if is_valid(values, env, m, tol=1e-9 if tol < 1e-9 else tol).ok:
            valid[f"chain{i}"] = values
    costs = dict(zip(valid, map(float, point_costs(
        list(valid.values()), env, model.cost_rows, m, profile))))
    sr_value = float(sr_bound(b, D1, D2))
    pool = {**costs, "SR": sr_value}
    objective = min(pool.values())
    tight = [k for k, v in pool.items() if v <= objective + 1e-3]
    if X is not None and X > objective + tol:
        violations.append(f"X={X} exceeds the best bound {objective}")
    return PointReport(feasible=not violations, objective=objective,
                       sr_value=sr_value, costs=costs, tight=tight,
                       violations=violations)


# --- published reference points --------------------------------------------


def preset_hard_point_s3() -> tuple:
    """The two-level uniform-ratio worst case: model, env, profile.

    All first-level sets are empty; the secondary/primary distance ratio is
    pinned at 1 (thresholds 1 and 1 + 1e-6, only their ordering matters).
    """
    model = NlpModel(m=2, g_bounds=[0, 1.0, 1.0 + 1e-6],
                     chains=builtin_tables()["uniform"][1], name="uniform")
    gC2 = 0.3291
    env = {"b": 0.68, "gA1": 0.0, "gA2": 0.7478,
           "gC1": 1 - gC2, "gC2": gC2}
    rounded = {
        ("B", 2, 2): (0.722175, 0.289375),
        ("C", 2, 1): (0.647832, 0.259589),
        ("C", 2, 2): (0.317901, 0.127384),
    }
    # the six-digit profile misses the normalization (1-b)D1 + bD2 = 1 by
    # 4.7e-5; every cost is linear in the profile, so scaling it onto the
    # constraint keeps the ratio the point stands for and makes it feasible
    b = env["b"]
    norm = sum((1 - b) * d1 + b * d2 for d1, d2 in rounded.values())
    profile = {key: (d1 / norm, d2 / norm)
               for key, (d1, d2) in rounded.items()}
    return model, env, profile


def preset_m1_feasible() -> tuple:
    """Single-level feasible point with objective (1+sqrt(3))/2.

    The gamma -> infinity limit is stood in for by 10^12; exact rationals
    keep the mass identity bit-exact despite the huge magnitude, and the
    finite-gamma deviation of the two gamma-dependent chains is O(1e-12),
    below the 1e-9 tolerance of interest.
    """
    s3 = math.sqrt(3)
    model = NlpModel(m=1, g_bounds=[0, 1],
                     chains=builtin_tables()["alg1"][1], name="alg1")
    env = {"b": Fraction((3 - s3) / 2), "gA1": Fraction(10 ** 12),
           "gC1": Fraction(1)}
    profile = {
        ("B", 1, 1): (Fraction(1 / s3), Fraction(0)),
        ("C", 1, 1): (Fraction((3 + s3) / 6), Fraction((3 + s3) / 6)),
    }
    return model, env, profile


PRESETS = {
    "hard-point-s3": preset_hard_point_s3,
    "m1-feasible": preset_m1_feasible,
}
