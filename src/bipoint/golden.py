"""The golden-ratio integrality-gap family and its sqrt(phi) lower bound.

The family places |A| = round(r_B k) first-stage facilities, a twin set B at
distance 2l from each, and |C| = round(r_C k) second-stage facilities, with
one unit-mass client spread over every (i1, i2) in A x C and extra mass a on
the twins; all remaining distances come from the graph metric closure.  The
fractional solution has cost 1 up to O(1/k) while every integral solution
costs at least sqrt(phi) - o(1), witnessed by the vertices of a tiny polytope
over the opening fractions (x_A, x_C, x_B).  Every constant is exact in the
number field Q(sqrt(phi)), and one vertex enumerator serves both that field
and an instance's own rational constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instances import (
    BiPointSolution,
    MetricInstance,
    OpenSet,
    connection_cost,
)


@dataclass
class GoldenConstants:
    """The rational stand-ins of the construction at k: the set sizes
    t_B ~ r_B k and t_C ~ r_C k, l_q for l, and the exact b and a derived
    from them.  The exact limits in Q(sqrt(phi)) are the ``F_*`` constants."""

    k: int
    t_B: int
    t_C: int
    ell_q: Fraction
    b_q: Fraction
    a_q: Fraction


def golden_constants(k: int) -> GoldenConstants:
    t_B = math.floor(F_RB * k + Fraction(1, 2))
    t_C = math.floor(F_RC * k + Fraction(1, 2))
    if t_B < 1 or t_C < 1:
        raise ValueError(f"k={k} too small for the construction")
    b_q = Fraction(k - t_B, t_C)  # (1 - t_B/k) / (t_C/k)
    return GoldenConstants(k=k, t_B=t_B, t_C=t_C, ell_q=ELL_Q, b_q=b_q,
                           a_q=1 - b_q)


def analytic_costs(c: GoldenConstants) -> tuple:
    """Exact (D1, D2) of the rational construction, from the layout alone:
    unit client mass at 2-l from A, twin mass a at 2l, everything at l or 0
    from the second-stage set."""
    ell, a = c.ell_q, c.a_q
    D1 = (2 - ell) + 2 * a * ell
    D2 = ell
    return D1, D2


def gap_summary(k: int) -> dict:
    """Validity and unit-cost report computed from counts and the analytic
    cost formulas; exact rationals throughout."""
    c = golden_constants(k)
    D1, D2 = analytic_costs(c)
    n_f1, n_f2 = c.t_B, c.t_B + c.t_C
    mass = c.a_q * n_f1 + c.b_q * n_f2
    cost = c.a_q * D1 + c.b_q * D2
    return {
        "k": k,
        "t_B": c.t_B,
        "t_C": c.t_C,
        "a": str(c.a_q),
        "b": str(c.b_q),
        "checks": {
            "a_plus_b_equals_1": c.a_q + c.b_q == 1,
            "F1_at_most_k": n_f1 <= k,
            "F2_at_least_k": n_f2 >= k,
            "mass_equals_k": mass == k,
        },
        "D1": float(D1),
        "D2": float(D2),
        "cost": float(cost),
        "cost_exact": str(cost),
        "cost_dev": float(abs(cost - 1)),
    }


MAX_POINTS = 600  # build_golden's size cap


def build_golden(k: int) -> BiPointSolution:
    """Explicit instance with exact rational distances via metric closure.

    Only sensible at desk scale: the client count grows like 0.37 k^2, so
    large k should use the analytic summary instead.
    """
    c = golden_constants(k)
    t_B, t_C, ell = c.t_B, c.t_C, c.ell_q
    n = 3 * t_B + t_C + t_B * t_C
    if n > MAX_POINTS:
        raise ValueError(
            f"k={k} needs {n} points (> {MAX_POINTS}); use gap_summary")

    A = list(range(t_B))
    C = list(range(t_B, t_B + t_C))
    beta = {i: t_B + t_C + i for i in A}  # twin of each first-stage facility
    B = [beta[i] for i in A]
    next_id = 2 * t_B + t_C
    clients = []
    demands = {}
    edges = []

    u_pair = Fraction(1, t_B * t_C)
    for i1, i2 in itertools.product(A, C):
        j = next_id
        next_id += 1
        clients.append(j)
        demands[j] = u_pair
        edges.append((j, i1, 2 - ell))
        edges.append((j, i2, ell))
    for i in A:
        edges.append((i, beta[i], 2 * ell))
        j = next_id
        next_id += 1
        clients.append(j)
        demands[j] = c.a_q / t_B
        edges.append((j, beta[i], Fraction(0)))

    assert next_id == n
    # every edge length is a multiple of 1/q, so the closure runs exactly on
    # integers scaled by q; 2 * INFTY still fits in int64
    q = ELL_Q.denominator
    INFTY = 10 ** 9 * q
    dist = np.full((n, n), INFTY, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v, w in edges:
        w = w * q
        assert w.denominator == 1, "edge length off the 1/q grid"
        dist[u, v] = dist[v, u] = min(dist[u, v], int(w))
    for mid in range(n):
        np.minimum(dist, dist[:, mid, None] + dist[mid], out=dist)
    dist = [[Fraction(x, q) for x in row] for row in dist.tolist()]

    inst = MetricInstance(n_points=n, dist=dist, clients=clients,
                          facilities=A + B + C, k=k, demands=demands)
    return BiPointSolution(instance=inst, F1=A, F2=B + C,
                           a=c.a_q, b=c.b_q)


# --- the opening-fraction polytope ------------------------------------------


@dataclass
class ProfileVertex:
    x_A: object
    x_B: object
    x_C: object
    value: object  # f at the vertex


def _vertices(r_B, r_C, ell, a, rhs) -> list:
    """Vertices of {x in [0,1]^3 : r_B x_A + r_B x_B + r_C x_C = rhs}, each
    with the objective f, sorted stably by f.  A vertex fixes two coordinates
    at 0 or 1 and solves the equality for the third.  Exact in whichever
    ordered field the constants live in: FieldElt for the limit, Fraction
    for an instance's t_B/k and t_C/k."""
    coeff = (r_B, r_B, r_C)
    verts = []
    for free in (2, 1, 0):  # solve for x_C, then x_B, then x_A
        rest = coeff[:free] + coeff[free + 1:]
        for u, v in itertools.product((0, 1), repeat=2):
            t = (rhs - rest[0] * u - rest[1] * v) / coeff[free]
            if not 0 <= t <= 1:
                continue
            x = [u, v]
            x.insert(free, t)
            if any(x == [p.x_A, p.x_B, p.x_C] for p in verts):
                continue
            x_A, x_B, x_C = x
            value = ell + 2 * (1 - x_C) * (1 - ell * x_A) \
                + 2 * a * ell * (1 - x_B) + 2 * a * max(1 - x_B - x_A, 0)
            verts.append(ProfileVertex(x_A=x_A, x_B=x_B, x_C=x_C,
                                       value=value))
    verts.sort(key=lambda p: p.value)
    return verts


def extreme_points(surplus=0) -> list:
    """Vertices of {x in [0,1]^3 : x_A r_B + x_B r_B + x_C r_C = 1 + surplus}
    with the objective f evaluated at each; exact in Q(sqrt(phi)) for a
    rational surplus."""
    return _vertices(F_RB, F_RC, F_ELL, F_A, 1 + Fraction(surplus))


def gap_lower_bound(surplus=0):
    """Minimum of f over the (possibly relaxed) polytope: the cost any
    solution opening k + surplus-many extra facilities must still pay."""
    verts = extreme_points(surplus=surplus)
    return verts[0].value if verts else None


# Exact arithmetic in Q[s] / (s^4 - s^2 - 1), s = sqrt(phi): every constant
# of the construction lives in this field (phi = s^2, l = s^2 - 1, 1/s =
# s^3 - s), so the vertex identities reduce to coefficient comparisons.
# Signs, comparisons, floors and floats are settled on rational enclosures
# of s, which are exact for a rational element and exclude every other value
# once narrow enough; inverses come from the rational norm.


class FieldElt(tuple):
    """Element a0 + a1 s + a2 s^2 + a3 s^3 with rational coefficients."""

    def __new__(cls, coeffs):
        return super().__new__(cls, [Fraction(x) for x in coeffs])

    def __add__(self, o):
        o = _lift_field(o)
        return FieldElt([a + b for a, b in zip(self, o)])

    __radd__ = __add__

    def __sub__(self, o):
        o = _lift_field(o)
        return FieldElt([a - b for a, b in zip(self, o)])

    def __rsub__(self, o):
        return _lift_field(o) - self

    def __neg__(self):
        return FieldElt([-a for a in self])

    def __mul__(self, o):
        o = _lift_field(o)
        raw = [Fraction(0)] * 7
        for i, a in enumerate(self):
            for j, b in enumerate(o):
                raw[i + j] += a * b
        # reduce with s^4 = s^2 + 1
        for d in range(6, 3, -1):
            raw[d - 2] += raw[d]
            raw[d - 4] += raw[d]
            raw[d] = Fraction(0)
        return FieldElt(raw[:4])

    __rmul__ = __mul__

    def inv(self):
        """1 / self, through two conjugations: s -> -s takes self = P + s Q
        (P, Q in Q(phi)) to P - s Q, and the product N = P^2 - phi Q^2 =
        u + v phi goes by phi -> 1 - phi to u + v - v phi, which leaves the
        rational norm u^2 + uv - v^2.  Zero has norm 0 and raises
        ZeroDivisionError."""
        a0, a1, a2, a3 = self
        conj = FieldElt((a0, -a1, a2, -a3))
        u, _, v, _ = self * conj
        norm = u * u + u * v - v * v
        return FieldElt([c / norm for c in conj * FieldElt((u + v, 0, -v, 0))])

    def __truediv__(self, o):
        return self * _lift_field(o).inv()

    def __rtruediv__(self, o):
        return _lift_field(o) * self.inv()

    def is_zero(self) -> bool:
        return not any(self)

    def sign(self) -> int:
        """Exact sign, settled on the enclosure."""
        if self.is_zero():
            return 0
        return self._settle(lambda x: (x > 0) - (x < 0))

    def __eq__(self, o):
        if not isinstance(o, (FieldElt, int, Fraction)):
            return NotImplemented
        return (self - o).is_zero()

    def __ne__(self, o):
        eq = self.__eq__(o)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        # a rational element hashes like the Fraction it equals
        return hash(self[0]) if not any(self[1:]) else tuple.__hash__(self)

    def __lt__(self, o):
        return (self - o).sign() < 0

    def __le__(self, o):
        return (self - o).sign() <= 0

    def __gt__(self, o):
        return (self - o).sign() > 0

    def __ge__(self, o):
        return (self - o).sign() >= 0

    def _enclosure(self, bits: int) -> tuple:
        """Rationals lo <= self <= hi, from s bracketed between consecutive
        multiples of 2**-bits with integer square roots."""
        m = (4 ** bits + math.isqrt(5 * 16 ** bits)) // 2  # floor(phi 4^bits)
        r = math.isqrt(m)
        s_lo, s_hi = Fraction(r, 2 ** bits), Fraction(r + 1, 2 ** bits)
        lo = hi = 0
        for i, a in enumerate(self):
            lo += a * (s_lo if a > 0 else s_hi) ** i
            hi += a * (s_hi if a > 0 else s_lo) ** i
        return lo, hi

    def _settle(self, f):
        """f(self) for a non-decreasing step function f of the reals, by
        narrowing the enclosure until f agrees on both ends.  This ends for
        every element: a rational one is enclosed exactly, and an irrational
        one is neither a float, an integer nor zero."""
        bits = 64
        while True:
            lo, hi = self._enclosure(bits)
            if f(lo) == f(hi):
                return f(lo)
            bits *= 2

    def __float__(self) -> float:
        """The nearest float, correctly rounded."""
        return self._settle(float)

    def __floor__(self) -> int:
        return self._settle(math.floor)


def _lift_field(v):
    if isinstance(v, FieldElt):
        return v
    return FieldElt([Fraction(v), 0, 0, 0])


F_S = FieldElt([0, 1, 0, 0])  # sqrt(phi)
F_PHI = F_S * F_S
F_ELL = F_PHI - 1  # 1/phi = phi - 1
F_OMEGA = F_PHI - F_S
F_RB = F_OMEGA * F_S
F_RC = (1 - F_OMEGA) * F_S
F_B = (1 - F_RB) / F_RC
F_A = 1 - F_B
F_INV_S = F_S * F_S * F_S - F_S  # 1/s since s(s^3 - s) = s^4 - s^2 = 1
# l's rational stand-in: the closest fraction to 1/phi with a denominator of
# at most 10**9, read off 30 exact digits
ELL_Q = Fraction(math.floor(F_ELL * 10 ** 30), 10 ** 30) \
    .limit_denominator(10 ** 9)


def rational_vertex_bound(c: GoldenConstants, surplus=0) -> Fraction:
    """Vertex minimum of the opening polytope built from the instance's own
    rational constants r_B = t_B/k, r_C = t_C/k; exact, and a valid lower
    bound on the cost of any solution opening k + surplus*k facilities."""
    verts = _vertices(Fraction(c.t_B, c.k), Fraction(c.t_C, c.k), c.ell_q,
                      c.a_q, 1 + Fraction(surplus))
    return verts[0].value if verts else None


def _digits_50(x: FieldElt) -> str:
    """x in [1, 10) to 50 significant digits, rounded to nearest."""
    n = math.floor(x * 10 ** 49 + Fraction(1, 2))
    return f"{n // 10 ** 49}.{n % 10 ** 49:049d}"


def verify_gap_identities() -> dict:
    """Exact checks in Q(sqrt(phi)): the defining quadratic of phi, the
    four-way tie of the minimizing vertices at sqrt(phi), the odd vertex
    out, and the facility / cost ratio identities."""
    values = [v.value for v in extreme_points()]
    ties = [v for v in values if v == F_S]
    odd = [v for v in values if v != F_S]
    v5_target = 3 * F_ELL + 2 * F_INV_S - 2  # 3/phi + 2/sqrt(phi) - 2
    D1 = (2 - F_ELL) + 2 * F_A * F_ELL
    sqrt_phi_50, min50 = _digits_50(F_S), _digits_50(values[0])
    return {
        "phi_quadratic": (F_PHI * F_PHI - F_PHI - 1).is_zero(),
        "n_vertices": len(values),
        "n_at_sqrt_phi": len(ties),
        "odd_vertex_value_ok": len(odd) == 1 and odd[0] == v5_target,
        "min_is_sqrt_phi": values[0] == F_S,
        "facility_ratio_is_omega": F_RB / (F_RB + F_RC) == F_OMEGA,
        "cost_ratio_is_omega": F_ELL / D1 == F_OMEGA,
        "sqrt_phi_50_digits": sqrt_phi_50,
        "min_value_50_digits": min50,
        "min_matches_50_digits": min50 == sqrt_phi_50,
    }


# --- brute force ------------------------------------------------------------


SCAN_CHUNK = 512  # subsets costed per vectorized block
GROUP = 8  # facilities per nearest-distance table
MAX_FACILITIES = 63  # a subset's bit mask is one int64


def _nearest_tables(rows) -> list:
    """One table per group of GROUP consecutive columns of ``rows``: row s
    of a group's table holds each client's distance to the nearest facility
    of the subset s (a bit mask) of that group, and row 0 is inf."""
    tables = []
    for lo in range(0, rows.shape[1], GROUP):
        group = rows[:, lo:lo + GROUP].T
        t = np.empty((2 ** len(group), rows.shape[0]))
        t[0] = np.inf
        for b, col in enumerate(group):
            np.minimum(t[:2 ** b], col, out=t[2 ** b:2 ** (b + 1)])
        tables.append(t)
    return tables


def _block_costs(block, tables, u):
    """Float cost of each facility index tuple of ``block``: its bit mask
    picks one row of each group's table, and the minimum of those rows is
    its per-client distance, weighted by the demands ``u``."""
    # at most MAX_FACILITIES columns, so every index fits in a byte
    cols = np.frombuffer(b"".join(map(bytes, block)), np.uint8)
    mask = (1 << cols.astype(np.int64)).reshape(len(block), -1).sum(axis=1)
    low = 2 ** GROUP - 1
    near = tables[0][mask & low]
    for g, t in enumerate(tables[1:], 1):
        np.minimum(near, t[(mask >> (GROUP * g)) & low], out=near)
    # near is (block, clients) in C order, the memory order a column-by-
    # column scan of rows builds, so the float costs match it bit for bit
    return u @ near.T


def _scan_combos(combos, rows, u):
    """Cheapest of an iterable of facility index tuples (columns of
    ``rows``), as (float cost, tuple), with the first strict minimum winning
    ties.  The tables are built per call and the subsets costed in blocks of
    SCAN_CHUNK."""
    if rows.shape[1] > MAX_FACILITIES:
        raise ValueError(f"{rows.shape[1]} facilities: the scan takes at "
                         f"most {MAX_FACILITIES}")
    tables = _nearest_tables(rows)
    best_cost = math.inf
    best_subset = None
    combos = iter(combos)
    while block := list(itertools.islice(combos, SCAN_CHUNK)):
        costs = _block_costs(block, tables, u)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost, best_subset = float(costs[i]), block[i]
    return best_cost, best_subset


def brute_force_opt(inst: MetricInstance, budget: int = None,
                    jobs: int = 1) -> tuple:
    """Exact optimum over all k-subsets of the facilities.

    The float scan finds the argmin; the winner is re-costed in exact
    arithmetic.  The scan takes at most MAX_FACILITIES facilities and runs
    on one thread: ``jobs`` is accepted for old callers and must be 1.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: the scan runs on one thread")
    k = inst.k
    fac = sorted(inst.facilities)
    total = math.comb(len(fac), k)
    if budget is not None and total > budget:
        raise ValueError(f"{total} subsets exceed the budget {budget}")
    if total == 0:
        raise ValueError(f"no {k}-subset of {len(fac)} facilities")
    rows, u = inst.client_arrays()
    _, best_subset = _scan_combos(itertools.combinations(range(len(fac)), k),
                                  rows[:, fac], u)
    chosen = frozenset(fac[i] for i in best_subset)
    exact = connection_cost(inst, OpenSet(chosen))
    return OpenSet(chosen), exact
