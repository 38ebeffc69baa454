"""Symmetric randomized dependent rounding and the star-rounding algorithm.

The rounding kernel repeatedly perturbs a random pair of fractional
coordinates along the direction that keeps the weighted sum constant, with
sign probabilities chosen so marginals are preserved, until at most ``t``
fractional coordinates remain.  In rational mode the weighted sum is
preserved bit-exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .instances import BiPointSolution, OpenSet, nearest


@dataclass
class SrdrResult:
    X: list
    fractional_count: int


def fractional_budget(eps: float) -> int:
    """t = ceil(log(1 + 1/eps) / log(1 + eps))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return math.ceil(math.log(1 + 1 / eps) / math.log(1 + eps))


def _is_fractional(v) -> bool:
    return 0 < v < 1


def srdr(x, a, t: int, rng: random.Random) -> SrdrResult:
    """Round ``x`` preserving sum(a_i x_i) exactly, leaving <= t fractional entries.

    Coordinates with zero weight cannot affect the weighted sum and are
    rounded independently.  Inputs given as Fractions stay exact throughout.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(x) != len(a):
        raise ValueError("length mismatch")
    X = list(x)
    for i, v in enumerate(X):
        if not (0 <= v <= 1):
            raise ValueError(f"x[{i}] = {v} outside [0,1]")

    # independent coin flips for weightless coordinates
    for i, w in enumerate(a):
        if w == 0 and _is_fractional(X[i]):
            X[i] = type(X[i])(1) if rng.random() < X[i] else type(X[i])(0)

    frac = [i for i in range(len(X)) if _is_fractional(X[i])]
    while len(frac) > t:
        i, j = rng.sample(frac, 2)
        ai, aj = a[i], a[j]
        # move x_i by +e/ai and x_j by -e/aj (direction "+"); caps keep both in [0,1]
        def cap(av, xv, increasing):
            if (av > 0) == increasing:
                return abs(av) * (1 - xv)
            return abs(av) * xv

        e_up = min(cap(ai, X[i], True), cap(aj, X[j], False))
        e_dn = min(cap(ai, X[i], False), cap(aj, X[j], True))
        if e_up + e_dn == 0:
            continue
        p_up = e_dn / (e_up + e_dn)
        if rng.random() < float(p_up):
            X[i] = X[i] + e_up / ai
            X[j] = X[j] - e_up / aj
        else:
            X[i] = X[i] - e_dn / ai
            X[j] = X[j] + e_dn / aj
        # only x_i and x_j moved; dropping them in place keeps frac's order,
        # and with it every later rng.sample draw
        for q in (i, j):
            if not _is_fractional(X[q]):
                frac.remove(q)
    return SrdrResult(X=X, fractional_count=len(frac))


def build_f1_stars(sol: BiPointSolution) -> dict:
    """F1-centric stars: each F2 facility attaches to its nearest F1 facility."""
    inst = sol.instance
    leaves = {i: [] for i in sol.F1}
    for f in sol.F2:
        leaves[nearest(inst, sol.F1, f)].append(f)
    return leaves


def star_round(sol: BiPointSolution, eps: float, rng: random.Random) -> OpenSet:
    """The SR star-rounding algorithm.

    Runs the dependent-rounding kernel on the per-star vector (weights
    |L_i| - 1, uniform value b), then opens ceil(X_i |L_i|) random leaves per
    star and the root itself whenever X_i < 1.  Always opens at most k + 2t
    facilities.
    """
    t = fractional_budget(eps)
    leaves = build_f1_stars(sol)
    roots = sorted(leaves)
    b = Fraction(sol.b)
    x = [b] * len(roots)
    a = [len(leaves[i]) - 1 for i in roots]
    X = srdr(x, a, t, rng).X
    open_fac = set()
    for idx, i in enumerate(roots):
        Li = leaves[i]
        n_open = math.ceil(X[idx] * len(Li))
        if n_open:
            open_fac.update(rng.sample(sorted(Li), n_open))
        if X[idx] < 1:
            open_fac.add(i)
    return OpenSet(facilities=frozenset(open_fac))


def sr_bound(b, D1, D2):
    """(1-b) D1 + b (3-2b) D2, the SR bound without its (1+eps) factor."""
    return (1 - b) * D1 + b * (3 - 2 * b) * D2


def sr_cost_bound(sol: BiPointSolution, eps: float):
    """(1+eps) * ((1-b) D1 + b (3-2b) D2)."""
    return (1 + eps) * sr_bound(sol.b, sol.D1, sol.D2)
