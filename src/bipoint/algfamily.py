"""The partition-hierarchy rounding family: validity, enumeration, chains,
execution, and the end-to-end best-of.

An algorithm is a vector of opening probabilities p_W, one per partition set
W in {A_1..A_m, B_1..B_m, C_1..C_m}; it samples ceil(p_W |W|) facilities
uniformly from each set.  A chain fixes an m-subset of sets to 1 and assigns
the rest in order, each absorbing as much of the remaining facility mass as
fits, so that the instantiation at any feasible (b, gamma) is a valid vector
with at most one fractional entry.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .instances import BiPointSolution, OpenSet, connection_cost_float
from .partition import FacilityPartition, build_partition, build_stars, \
    class_aggregates, classify_clients
from .rounding import star_round
# ChainSpec, G_M2 and G_M3 are re-exported: callers read them as
# algfamily.ChainSpec
from .tables import CATALOGUE, G_M2, G_M3, ChainSpec, _backed_up, _guards, \
    _size_key, _structurally_valid, builtin_tables, set_names

ZERO, ONE = Fraction(0), Fraction(1)


def set_size(name: str, env) -> Fraction:
    return env[_size_key(name)]


def mass_target(env, m: int):
    """Normalized total mass: sum_t gamma_{A_t} + b."""
    return sum(env[f"gA{t}"] for t in range(1, m + 1)) + env["b"]


def derive_gamma_env(b, gAs) -> dict:
    """Environment from b and gamma_{A_1..m}, with the gamma_{C_t} filled in
    by the size recurrence: C_m takes min(1, gA_m), lower levels take what is
    left, C_1 the remainder."""
    m = len(gAs)
    env = {"b": Fraction(b)}
    for t, g in enumerate(gAs, 1):
        env[f"gA{t}"] = Fraction(g)
    if m == 1:
        env["gC1"] = Fraction(1)
        return env
    gC = {m: min(Fraction(1), env[f"gA{m}"])}
    tail = gC[m]
    for t in range(m - 1, 1, -1):
        gC[t] = min(env[f"gA{t}"], 1 - tail)
        tail += gC[t]
    gC[1] = 1 - tail
    for t, v in gC.items():
        env[f"gC{t}"] = v
    return env


@dataclass
class ValidityReport:
    ok: bool
    violations: list = field(default_factory=list)


def is_valid(values: dict, env: dict, m: int, tol=None) -> ValidityReport:
    """Check the four validity conditions of a parameter vector.

    ``values`` maps set names to probabilities (None marks a parameter whose
    defining formula divided by zero, i.e. an empty set).  Empty sets are
    skipped: their probabilities carry no mass and guard no facility.
    """
    violations = []
    names = set_names(m)
    sizes = {W: set_size(W, env) for W in names}
    nonempty = {W for W in names if sizes[W] > 0}

    exact = all(
        isinstance(v, (Fraction, int))
        for v in list(env.values()) + [values.get(W) for W in nonempty]
        if v is not None
    )
    if tol is None:
        tol = 0 if exact else 1e-9

    def is_one(W):
        v = values.get(W)
        return v is not None and abs(v - 1) <= tol

    for W in nonempty:
        v = values.get(W)
        if v is None:
            violations.append(f"{W}: no value for a nonempty set")
        elif not (-tol <= v <= 1 + tol):
            violations.append(f"{W}: p={v} outside [0,1]")
    if violations:
        return ValidityReport(False, violations)

    lhs = sum(values[W] * sizes[W] for W in nonempty)
    rhs = mass_target(env, m)
    if abs(lhs - rhs) > tol:
        violations.append(f"mass {lhs} != {rhs}")

    for t in range(1, m + 1):
        if f"A{t}" not in nonempty:
            continue
        ok_a = is_one(f"A{t}")
        ok_b = all(is_one(f"B{s}") for s in range(1, t + 1)
                   if f"B{s}" in nonempty)
        ok_c = all(is_one(f"C{s}") for s in range(t, m + 1)
                   if f"C{s}" in nonempty)
        if not (ok_a or ok_b or ok_c):
            violations.append(f"backup property fails at level {t}")

    if "A1" in nonempty and not (is_one("A1") or is_one("B1")):
        violations.append("neither A1 nor B1 fully open")

    return ValidityReport(not violations, violations)


def instantiate(params: dict, env: dict) -> dict:
    """Evaluate chain parameter formulas at a point; zero division marks an
    empty set and yields None."""
    out = {}
    for W, e in params.items():
        try:
            out[W] = e.ev(env)
        except ZeroDivisionError:
            out[W] = None
    return out


def canonical(values: dict, env: dict, m: int) -> tuple:
    """Hashable exact form of a parameter vector: its values in
    ``set_names(m)`` order as ``Fraction``s, with None for an empty set and
    the shared ``ZERO`` and ``ONE`` for 0 and 1."""
    return tuple(None if set_size(W, env) <= 0 else _exact(values[W])
                 for W in set_names(m))


def _exact(v) -> Fraction:
    if v == 0:
        return ZERO
    if v == 1:
        return ONE
    return v if isinstance(v, Fraction) else Fraction(v)


def _scaled(env: dict) -> tuple:
    """``(L, {variable: value * L})`` for a point of exact rationals, L the
    least common denominator of its values: all Python integers."""
    L = math.lcm(*(x.denominator for x in env.values()))
    return L, {v: x.numerator * (L // x.denominator) for v, x in env.items()}


def enumerate_algm(m: int, env: dict) -> list:
    """All valid parameter vectors with at most one fractional entry, as
    dicts of ``Fraction``s in ``set_names(m)`` order.

    The 0/1 patterns over the sets are walked in ``itertools.product``
    order.  A pattern is kept when its mass is the target; the fractional
    entry of a variant, on a nonempty set, is solved from the mass equation
    with every other entry fixed.  A vector is kept the first time its
    ``canonical`` form comes up.  The point, of exact rationals with no
    negative set size, is scaled to one common denominator, so sizes and
    masses are Python integers and the guards of ``is_valid`` at tol 0 are
    bit-mask tests.
    """
    names = set_names(m)
    _, e = _scaled(env)
    size = [e[_size_key(W)] for W in names]
    target = e["b"] + sum(size[:m])
    guards = _guards(size, m)
    live = [w for w, s in enumerate(size) if s > 0]
    live_bits = sum(1 << w for w in live)
    # (ones, mass) per 0/1 pattern, names[0] the slowest-changing bit
    patterns = [(0, 0)]
    for w, s in enumerate(size):
        patterns = [(ones | bit << w, mass + bit * s)
                    for ones, mass in patterns for bit in (0, 1)]
    seen = {}  # canonical key -> the vector, or False if it is invalid
    shared = {}  # one Fraction object per fractional value of the call

    def vector(kept, frac):
        values = dict(zip(names, (ONE if kept >> w & 1 else ZERO
                                  for w in range(len(names)))))
        if frac:
            w, num = frac
            x = Fraction(num, size[w])
            values[names[w]] = shared.setdefault(x, x)
        return values

    for ones, mass in patterns:
        # the pattern, then each variant: (fully open sets, fractional
        # entry as (position, entry times size) or None)
        found = [(ones, None)] if mass == target else []
        for w in live:
            s = size[w]
            frac = target - (mass - s if ones >> w & 1 else mass)
            if 0 <= frac <= s:
                kept = ones | 1 << w if frac == s else ones & ~(1 << w)
                found.append((kept, (w, frac) if 0 < frac < s else None))
        for kept, frac in found:
            key = (kept & live_bits, frac)
            if key not in seen:
                seen[key] = _backed_up(kept, guards) and vector(kept, frac)
    return [values for values in seen.values() if values]


# --- chains -----------------------------------------------------------------


def generate_chains(m: int) -> list:
    """All structurally valid chains, deduplicated by their formulas."""
    names = set_names(m)
    out = []
    seen = set()
    for start in itertools.combinations(names, m):
        if not _structurally_valid(start, m):
            continue
        rest = [W for W in names if W not in start]
        for order in itertools.permutations(rest):
            chain = ChainSpec(m=m, start=tuple(start), order=tuple(order))
            key = tuple(chain.params().values())
            if key not in seen:
                seen.add(key)
                out.append(chain)
    return out


def greedy_cover(chains: list, universe: list) -> list:
    """Smallest-first greedy set cover of sampled valid parameter vectors.

    ``universe`` is a list of (env, canonical vector) pairs, each vector
    valid at its env as ``enumerate_algm`` gives them; a chain covers a pair
    when its ``canonical`` form at env is the vector.  The chains are
    compiled into one ``ChainKernel``, evaluated once per env object, and
    only the chains it reports valid there are compared: a chain whose
    values equal a valid vector is itself valid.  Each parameter becomes a
    ``Fraction`` at most once per env.
    """
    m = chains[0].m if chains else 0
    names = set_names(m)
    kernel = ChainKernel(m, [chain.params() for chain in chains])
    by_env = {}  # id(env) -> (env, {vector: bit mask of its pairs})
    for idx, (env, vec) in enumerate(universe):
        pairs = by_env.setdefault(id(env), (env, {}))[1]
        pairs[vec] = pairs.get(vec, 0) | 1 << idx
    covers = [0] * len(chains)  # bit mask of the pairs each chain covers
    for env, pairs in by_env.values():
        values, valid = kernel.evaluate(env)
        live = [set_size(W, env) > 0 for W in names]
        used = {j for ci in valid for j in kernel.rows[ci]}
        exact = {j: _fraction(values[j]) for j in used}
        for ci in valid:
            form = tuple(exact[j] if alive else None
                         for j, alive in zip(kernel.rows[ci], live))
            covers[ci] |= pairs.get(form, 0)
    uncovered = (1 << len(universe)) - 1
    picked = []
    while uncovered:
        best = max(range(len(chains)),
                   key=lambda i: ((covers[i] & uncovered).bit_count(), -i))
        gain = covers[best] & uncovered
        if not gain:
            break
        picked.append(chains[best])
        uncovered &= ~gain
    return picked


def iterative_addition(chains: list, objective, init: list = None) -> list:
    """Grow a chain set by repeatedly adding the chain that most lowers the
    given objective (a callable on chain lists), until no chain improves it."""
    current = list(init or [])
    pool = [c for c in chains if c not in current]
    val = objective(current)
    while pool:
        best_i, best_v = None, val
        for i, c in enumerate(pool):
            v = objective(current + [c])
            if v < best_v - 1e-12:
                best_i, best_v = i, v
        if best_i is None:
            break
        current.append(pool.pop(best_i))
        val = best_v
    return current


# --- execution --------------------------------------------------------------


@dataclass
class ExecutionResult:
    open_set: OpenSet
    counts: dict
    slack: int  # facilities lost to flooring non-integral p_W |W|


def execute(values: dict, part: FacilityPartition, rng) -> ExecutionResult:
    """Sample each partition set according to its probability.

    When p_W |W| is integral (guaranteed for enumerated vectors, since all
    mass but one term is integral) exactly that many facilities open.  A
    non-integral count is floored and reported as slack, keeping the total
    at most k.
    """
    groups = {}
    for t in range(part.m):
        groups[f"A{t+1}"] = part.A[t]
        groups[f"B{t+1}"] = part.B[t]
        groups[f"C{t+1}"] = part.C[t]
    open_fac = set()
    counts = {}
    slack = 0
    for W, members in groups.items():
        if not members:
            counts[W] = 0
            continue
        p = values.get(W)
        if p is None:
            raise ValueError(f"no probability for nonempty set {W}")
        mass = Fraction(p) * len(members)
        n = int(mass)
        if mass != n:
            slack += 1
        counts[W] = n
        if n:
            open_fac.update(rng.sample(sorted(members), n))
    return ExecutionResult(open_set=OpenSet(facilities=frozenset(open_fac)),
                           counts=counts, slack=slack)


# --- end-to-end best-of -----------------------------------------------------


# clamped parameter values as (N, D); every clamped 1 is the one _ONE object
_ZERO, _ONE = (0, 1), (1, 1)


class ChainKernel:
    """A chain table compiled for exact evaluation at a point.

    Each distinct parameter of the table is kept once, as the integer affine
    forms of ``LinFrac.integer_form``; ``rows[ci]`` holds the parameter index
    of each set of chain ``ci``, in ``set_names(m)`` order.  ``evaluate``
    scales a point to one common denominator and works in Python integers
    throughout, so it agrees with ``instantiate`` + ``is_valid`` at tol 0 for
    any exact point, however large its denominators.
    """

    def __init__(self, m: int, chains: list):
        names = set_names(m)
        index = {}  # LinFrac -> position, in order of first use
        self.m = m
        self.rows = [tuple(index.setdefault(chain[W], len(index))
                           for W in names) for chain in chains]
        self.forms = [p.integer_form() for p in index]

    def evaluate(self, env: dict) -> tuple:
        """``(values, valid)`` at a point of exact rationals.

        ``values[j]`` is distinct parameter j as a clamped ``(N, D)`` with
        D > 0, or None where its denominator is 0 (an empty set); ``valid``
        lists, in order, the chains that ``is_valid`` accepts there.
        """
        L, e = _scaled(env)
        values = []
        for p0, p, q0, q in self.forms:
            den = q0 * L
            for v, c in q:
                den += c * e[v]
            if den == 0:
                values.append(None)
                continue
            num = p0 * L
            for v, c in p:
                num += c * e[v]
            if den < 0:
                num, den = -num, -den
            values.append(_ZERO if num <= 0 else _ONE if num >= den
                          else (num, den))

        m = self.m
        size = [e[_size_key(W)] for W in set_names(m)]  # scaled by L
        nonempty = [(w, s) for w, s in enumerate(size) if s > 0]
        target = e["b"] + sum(size[:m])
        guards = _guards(size, m)
        valid = []
        for ci, row in enumerate(self.rows):
            ones, num, den = 0, 0, 1  # mass so far is num / den
            for w, s in nonempty:
                v = values[row[w]]
                if v is None:
                    break
                n, d = v
                if v is _ONE:
                    ones |= 1 << w
                    num += s * den
                elif n:
                    num = num * d + n * s * den
                    den *= d
            else:
                if num == target * den and _backed_up(ones, guards):
                    valid.append(ci)
        return values, valid


def _fraction(v):
    """A clamped ``ChainKernel`` value as a ``Fraction``, 0 and 1 as the
    shared ``ZERO`` and ``ONE``; None stays None."""
    if v is None:
        return None
    return ZERO if v is _ZERO else ONE if v is _ONE else Fraction(*v)


@lru_cache(maxsize=None)
def builtin_kernels() -> dict:
    """Every built-in table compiled once: {name: ChainKernel}."""
    return {name: ChainKernel(m, chains)
            for name, (m, chains) in builtin_tables().items()}


@lru_cache(maxsize=None)
def _record_labels() -> tuple:
    """The label strings ``best_of`` records share, made once: "SR", then
    name[ci] for every built-in chain; and each table's first index."""
    labels, first = ["SR"], {}
    for name, kernel in builtin_kernels().items():
        first[name] = len(labels)
        labels += (f"{name}[{ci}]" for ci in range(len(kernel.rows)))
    return tuple(labels), first


class Records(Sequence):
    """Read-only ``(label, cost, n_open)`` per attempted algorithm.

    Stored as columns: an index into a shared tuple of label strings, the
    costs as float64 and the open-facility counts, so that a suite keeping
    every result holds a few bytes per record.
    """

    __slots__ = ("_labels", "_label", "_cost", "_n_open")

    def __init__(self, labels: tuple, label_index, costs, n_open):
        self._labels = labels
        self._label = array("H", label_index)
        self._cost = array("d", costs)
        self._n_open = array("I", n_open)

    def __len__(self):
        return len(self._cost)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._labels[self._label[i]], self._cost[i], self._n_open[i]

    def __repr__(self):
        return f"Records({list(self)!r})"


@dataclass
class BestOfResult:
    open_set: OpenSet
    cost: float
    label: str
    records: Records  # (label, cost, n_open) per attempted algorithm


def param_env(sol: BiPointSolution, part: FacilityPartition) -> dict:
    env = {"b": Fraction(sol.b)}
    for t in range(part.m):
        env[f"gA{t+1}"] = part.gammaA[t]
        env[f"gC{t+1}"] = part.gammaC[t]
    return env


def run_chains(sol: BiPointSolution, part: FacilityPartition,
               kernel: ChainKernel, rng) -> list:
    """Execute every chain of ``kernel`` that is valid at the solution's
    parameters, as ``execute`` does.

    Returns (chain index, ExecutionResult, connection cost) for each chain
    whose execution opens a facility, in chain order, which is also the
    order ``rng`` is drawn in.
    """
    values, valid = kernel.evaluate(param_env(sol, part))
    m = part.m
    names = set_names(m)
    groups = []  # (position in set_names, sorted members), in execute's order
    for t in range(m):
        for w, level in ((t, part.A), (m + t, part.B), (2 * m + t, part.C)):
            groups.append((w, sorted(level[t])))
    out = []
    for ci in valid:
        row = kernel.rows[ci]
        open_fac = set()
        counts = {}
        slack = 0
        for w, members in groups:
            W = names[w]
            if not members:
                counts[W] = 0
                continue
            n, d = values[row[w]]
            count, rem = divmod(n * len(members), d)
            slack += rem != 0
            counts[W] = count
            if count:
                open_fac.update(rng.sample(members, count))
        if not open_fac:
            continue
        res = ExecutionResult(open_set=OpenSet(facilities=frozenset(open_fac)),
                              counts=counts, slack=slack)
        out.append((ci, res, connection_cost_float(sol.instance,
                                                   res.open_set.facilities)))
    return out


def best_of(sol: BiPointSolution, eps: float, rng) -> BestOfResult:
    """Run the star-rounding algorithm plus every built-in chain, each table
    at its default thresholds, and keep the cheapest open set."""
    inst = sol.instance
    labels, first = _record_labels()

    sr = star_round(sol, eps, rng)
    best = (connection_cost_float(inst, sr.facilities), 0, sr)
    label_index, costs, n_open = [0], [best[0]], [len(sr)]

    forest = build_stars(sol)
    if forest.has_secondary:
        kernels = builtin_kernels()
        for name, table in CATALOGUE.items():
            try:
                part = build_partition(sol, forest, table.g_inner)
            except ValueError:
                continue
            for ci, res, cost in run_chains(sol, part, kernels[name], rng):
                label_index.append(first[name] + ci)
                costs.append(cost)
                n_open.append(len(res.open_set))
                if cost < best[0]:
                    best = (cost, label_index[-1], res.open_set)

    return BestOfResult(open_set=best[2], cost=best[0], label=labels[best[1]],
                        records=Records(labels, label_index, costs, n_open))


def partition_report(sol: BiPointSolution, g_thresholds) -> dict:
    """Partition an instance and summarize levels, gammas and client classes."""
    forest = build_stars(sol)
    part = build_partition(sol, forest, g_thresholds)
    classified = classify_clients(sol, forest, part)
    agg = class_aggregates(sol.instance, classified, part.m)
    return {
        "m": part.m,
        "sizes": part.sizes(),
        "gammaA": [str(g) if g is not None else None for g in part.gammaA],
        "gammaC": [str(g) if g is not None else None for g in part.gammaC],
        "classes": {
            f"{z}{x}{y}": {"D1": float(v[0]), "D2": float(v[1])}
            for (z, x, y), v in agg.items() if v[0] or v[1]
        },
    }
