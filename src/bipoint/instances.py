"""Finite-metric k-median instances and bi-point solutions.

Distances and demands may be exact :class:`fractions.Fraction` values (used for
symbolically constructed instances) or floats (Monte Carlo instances).  The
bi-point identities ``a + b = 1`` and ``a|F1| + b|F2| = k`` are always checked
in exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

Number = object  # Fraction | float | int


class EmptyOpenSetError(ValueError):
    """Raised when a connection cost is requested against no open facility."""


@dataclass
class MetricInstance:
    """A finite metric with weighted clients and a facility budget ``k``.

    ``dist`` is a dense symmetric matrix indexed by point id (ints 0..n-1),
    stored as a list of lists so entries may be exact Fractions.
    """

    n_points: int
    dist: list  # dist[i][j]
    clients: list  # point ids
    facilities: list  # point ids
    k: int
    demands: dict = field(default_factory=dict)  # client id -> weight, default 1

    def d(self, i, j):
        return self.dist[i][j]

    def demand(self, j):
        return self.demands.get(j, 1)

    def dist_array(self) -> np.ndarray:
        """Float view of the distance matrix (cached, with ``client_arrays``)."""
        arr = getattr(self, "_dist_array", None)
        if arr is None:
            arr = np.array([[float(v) for v in row] for row in self.dist])
            self._client_rows = arr[np.asarray(self.clients, dtype=np.intp)]
            self._demand_vector = np.array(
                [float(self.demand(j)) for j in self.clients])
            self._dist_array = arr
        return arr

    def client_arrays(self) -> tuple:
        """The clients' rows of ``dist_array()`` and their float demands,
        cached with it."""
        self.dist_array()
        return self._client_rows, self._demand_vector

    def check_metric(self) -> list:
        """Audit symmetry, zero diagonal, nonnegativity and triangle inequality.

        Returns a list of human-readable violation strings (empty = clean).
        Intended for desk-scale instances; the triangle scan is O(n^3).
        """
        bad = []
        n = self.n_points
        for i in range(n):
            if self.dist[i][i] != 0:
                bad.append(f"d({i},{i}) != 0")
            for j in range(i + 1, n):
                if self.dist[i][j] != self.dist[j][i]:
                    bad.append(f"d({i},{j}) asymmetric")
                if self.dist[i][j] < 0:
                    bad.append(f"d({i},{j}) negative")
        for i in range(n):
            di = self.dist[i]
            for j in range(n):
                dij = di[j]
                dj = self.dist[j]
                for l in range(n):
                    if dij > di[l] + dj[l]:
                        bad.append(f"triangle violated on ({i},{j},{l})")
                        if len(bad) > 20:
                            return bad
        return bad


@dataclass
class OpenSet:
    """A concrete set of opened facilities, with the seed that produced it."""

    facilities: frozenset
    seed: Optional[int] = None

    def __len__(self):
        return len(self.facilities)


@dataclass
class BiPointSolution:
    """A convex combination ``a*F1 + b*F2`` of two facility sets."""

    instance: MetricInstance
    F1: list
    F2: list
    a: Fraction
    b: Fraction
    D1: Number = None
    D2: Number = None

    def __post_init__(self):
        if self.D1 is None:
            self.D1 = connection_cost(self.instance, OpenSet(frozenset(self.F1)))
        if self.D2 is None:
            self.D2 = connection_cost(self.instance, OpenSet(frozenset(self.F2)))

    @property
    def cost(self):
        """Fractional bi-point cost a*D1 + b*D2."""
        return self.a * self.D1 + self.b * self.D2


@dataclass
class ValidationReport:
    """Pass/fail record for the four bi-point validity conditions."""

    convex: bool  # a + b = 1
    lower: bool  # |F1| <= k
    upper: bool  # k <= |F2|
    mass: bool  # a|F1| + b|F2| = k

    @property
    def ok(self) -> bool:
        return self.convex and self.lower and self.upper and self.mass

    def as_dict(self):
        return {
            "a_plus_b_equals_1": self.convex,
            "F1_at_most_k": self.lower,
            "F2_at_least_k": self.upper,
            "mass_equals_k": self.mass,
            "valid": self.ok,
        }


def validate_bipoint(sol: BiPointSolution) -> ValidationReport:
    """Check the four bi-point conditions in exact rational arithmetic."""
    a = Fraction(sol.a)
    b = Fraction(sol.b)
    k = sol.instance.k
    return ValidationReport(
        convex=(a + b == 1),
        lower=(len(sol.F1) <= k),
        upper=(k <= len(sol.F2)),
        mass=(a * len(sol.F1) + b * len(sol.F2) == k),
    )


def nearest(inst: MetricInstance, X: Sequence, p) -> object:
    """Closest member of ``X`` to point ``p``; ties broken by smallest id."""
    if not X:
        raise EmptyOpenSetError("nearest: empty candidate set")
    best = None
    best_d = None
    for x in sorted(X):
        dx = inst.d(p, x)
        if best_d is None or dx < best_d:
            best, best_d = x, dx
    return best


def connection_cost(inst: MetricInstance, S: OpenSet):
    """Demand-weighted total distance of every client to its closest open facility."""
    fac = S.facilities if isinstance(S, OpenSet) else frozenset(S)
    if not fac:
        raise EmptyOpenSetError("connection_cost: no open facility")
    fac = sorted(fac)
    total = 0
    for j in inst.clients:
        row = inst.dist[j]
        total += inst.demand(j) * min(row[i] for i in fac)
    return total


def connection_cost_float(inst: MetricInstance, facilities) -> float:
    """Fast float connection cost via the cached numpy distance matrix."""
    fac = sorted(facilities)
    if not fac:
        raise EmptyOpenSetError("connection_cost: no open facility")
    rows, u = inst.client_arrays()
    return float((u * rows[:, fac].min(axis=1)).sum())


def synthesize_random_bipoint(
    n_clients: int, n_f1: int, n_f2: int, k: int, seed: int
) -> BiPointSolution:
    """Random Euclidean instance in the unit square with an exact mass split.

    ``b`` is set to ``(k - |F1|) / (|F2| - |F1|)`` as an exact rational so
    ``a|F1| + b|F2| = k`` holds identically.
    """
    if not (n_f1 <= k <= n_f2):
        raise ValueError(f"need n_f1 <= k <= n_f2, got {n_f1}, {k}, {n_f2}")
    rng = random.Random(seed)
    n = n_clients + n_f1 + n_f2
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    dist = [
        [math.hypot(p[0] - q[0], p[1] - q[1]) for q in pts] for p in pts
    ]
    clients = list(range(n_clients))
    f1 = list(range(n_clients, n_clients + n_f1))
    f2 = list(range(n_clients + n_f1, n))
    inst = MetricInstance(
        n_points=n, dist=dist, clients=clients, facilities=f1 + f2, k=k
    )
    if n_f2 == n_f1:
        b = Fraction(0)
    else:
        b = Fraction(k - n_f1, n_f2 - n_f1)
    return BiPointSolution(instance=inst, F1=f1, F2=f2, a=1 - b, b=b)


# ---------------------------------------------------------------------------
# line-oriented instance file format:
#   header line:  k a b            (a, b as p/q rationals)
#   facility <id> <F1|F2>
#   client <id> <demand>
#   dist <id> <id> <value>
# ---------------------------------------------------------------------------


def _fmt_num(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def _parse_num(s: str):
    if "/" in s:
        return Fraction(s)
    if s.lstrip("-").isdigit():
        return Fraction(int(s))
    return float(s)


def write_instance(sol: BiPointSolution, path: str) -> None:
    inst = sol.instance
    with open(path, "w") as fh:
        fh.write(f"{inst.k} {_fmt_num(Fraction(sol.a))} {_fmt_num(Fraction(sol.b))}\n")
        for i in sol.F1:
            fh.write(f"facility {i} F1\n")
        for i in sol.F2:
            fh.write(f"facility {i} F2\n")
        for j in inst.clients:
            fh.write(f"client {j} {_fmt_num(inst.demand(j))}\n")
        for i in range(inst.n_points):
            for j in range(i + 1, inst.n_points):
                fh.write(f"dist {i} {j} {_fmt_num(inst.dist[i][j])}\n")


def read_instance(path: str) -> BiPointSolution:
    k = a = b = None
    f1, f2, clients, demands = [], [], [], {}
    entries = {}
    n = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            parts = line.split()
            if not parts:
                continue
            if lineno == 0:
                k = int(parts[0])
                a = Fraction(parts[1])
                b = Fraction(parts[2])
                continue
            kind = parts[0]
            if kind == "facility":
                i = int(parts[1])
                (f1 if parts[2] == "F1" else f2).append(i)
                n = max(n, i + 1)
            elif kind == "client":
                j = int(parts[1])
                clients.append(j)
                demands[j] = _parse_num(parts[2])
                n = max(n, j + 1)
            elif kind == "dist":
                i, j = int(parts[1]), int(parts[2])
                entries[(i, j)] = _parse_num(parts[3])
                n = max(n, i + 1, j + 1)
            else:
                raise ValueError(f"unknown record {kind!r} on line {lineno + 1}")
    dist = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        dist[i][j] = v
        dist[j][i] = v
    inst = MetricInstance(
        n_points=n, dist=dist, clients=clients, facilities=f1 + f2, k=k,
        demands=demands,
    )
    return BiPointSolution(instance=inst, F1=f1, F2=f2, a=a, b=b)
