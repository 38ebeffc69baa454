"""Built-in chain tables for the partition-hierarchy algorithm families, the
``CATALOGUE`` of each table's m and default thresholds, and ``LinFrac``, the
exact form of every chain parameter.

A chain opens a start set fully and lets the sets of its order, in turn,
take up what is left of the mass b + sum_t gA_t, each as much as fits.
Every built-in table is a list of such (start, order) pairs, and
``ChainSpec.params`` is the one place that writes their parameters: each is
(the mass left) / (the set's size), truncated to [0, 1], in the variables
``b``, ``gA1``..``gAm`` (level-set size ratios) and ``gC1``..``gCm``.  A
set the chain does not place takes 0, and a level whose A_t and B_t it does
not place is empty in its setting, so gA_t is no part of the mass.  At
m >= 2 the size of C_1 is written as 1 - sum_{t>=2} gC_t, as the size
recurrence gives it, and a parameter naming gA1 (no variable of the m >= 2
model) becomes the constant 0 where a sign rule shows its numerator is
never positive.  ``ratio`` brings every parameter to the normal form
clamp01(alpha + N/D) that encloses tightly.  ``_guards`` is the exact
backup rule, as bit masks, for chains and vectors alike.  Set keys follow
the partition order A_1..A_m, B_1..B_m, C_1..C_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


@dataclass(frozen=True)
class LinFrac:
    """One chain parameter: clamp01(alpha + (n0 + n.v) / (d0 + d.v)).

    ``n`` and ``d`` are the sorted nonzero (variable, coefficient) terms of
    the numerator and the denominator; all numbers are ``Fraction``s.  A
    parameter without a quotient has d0 = 1 and no ``d`` terms.
    """

    alpha: Fraction
    n0: Fraction
    n: tuple
    d0: Fraction
    d: tuple

    def ev(self, env):
        """The value at the point ``env``.

        Each affine part adds its terms in sorted order and then its
        constant, the order ``nlp.chain_bounds`` encloses them in; a
        ``Fraction`` on either side of the quotient makes it exact, and a
        parameter without variables stays an exact ``Fraction``.  Raises
        ZeroDivisionError where the denominator is 0 (an empty set).
        """
        v = _affine_ev(self.n0, self.n, env)
        if self.d or self.d0 != 1:
            den = _affine_ev(self.d0, self.d, env)
            if den == 0:
                # the formula is formatted only if shown: instantiate
                # catches this for every empty set
                raise ZeroDivisionError(self)
            if isinstance(v, Fraction) or isinstance(den, Fraction):
                v = Fraction(v) / Fraction(den)
            else:
                v = v / den
        if self.alpha != 0:
            v = self.alpha + v
        return min(max(v, 0 * v), 1)

    def integer_form(self) -> tuple:
        """``(p0, p, q0, q)``: integer affine forms, in the layout of
        ``n0, n, d0, d``, with the parameter equal to clamp01(P / Q).

        alpha is folded into the numerator and every coefficient scaled to
        an integer by positive factors, so Q is 0 exactly where ``ev``
        divides by zero.
        """
        coeffs = [Fraction(c) for c in
                  (self.n0, self.d0, *(c for _, c in self.n + self.d))]
        s = math.lcm(*(c.denominator for c in coeffs))
        alpha = Fraction(self.alpha)
        fn = alpha.denominator * s  # P = fn N + fd D, Q = fn D
        fd = alpha.numerator * s
        num = {v: fn * c for v, c in self.n}
        for v, c in self.d:
            num[v] = num.get(v, 0) + fd * c
        den = {v: fn * c for v, c in self.d}

        def ints(terms):
            return tuple((v, int(c)) for v, c in _terms(terms))

        return (int(fn * self.n0 + fd * self.d0), ints(num),
                int(fn * self.d0), ints(den))

    def __repr__(self):
        text = _affine_text(self.n0, self.n)
        if self.d or self.d0 != 1:
            text = f"{_paren(text)} / {_paren(_affine_text(self.d0, self.d))}"
        if self.alpha != 0:
            text = f"{self.alpha} + {text}"
        return f"clamp01({text})"


def _affine_ev(c0, terms, env):
    total = None
    for v, c in terms:
        x = env[v]
        t = x if c == 1 else c * x
        total = t if total is None else total + t
    if total is None:
        return c0
    return total if c0 == 0 else c0 + total


def _affine_text(c0, terms) -> str:
    parts = [("- " if c < 0 else "+ ") + (v if abs(c) == 1 else f"{abs(c)}*{v}")
             for v, c in terms]
    if c0 != 0 or not parts:
        const = ("- " if c0 < 0 else "+ ") + str(abs(c0))
        if c0 > 0 and parts and parts[0][0] == "-":
            parts.insert(0, const)  # 1 - gC2 rather than -gC2 + 1
        else:
            parts.append(const)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _paren(text: str) -> str:
    return f"({text})" if " " in text else text


def _terms(coeffs: dict) -> tuple:
    return tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))


def ratio(num: tuple, den: tuple) -> LinFrac:
    """clamp01(num / den) for affine ``num`` and ``den``, each given as
    (constant, {variable: coefficient}).

    Interval arithmetic treats each occurrence of a variable on its own, so
    (b + g - 1)/g encloses far more than its range while the equal
    1 + (b - 1)/g is exact.  The numerator therefore gives up the multiple
    alpha of the denominator that cancels the most variables the two share;
    the value is unchanged wherever the ratio is defined.
    """
    n0, n = Fraction(num[0]), {v: Fraction(c) for v, c in num[1].items()}
    d0, d = Fraction(den[0]), {v: Fraction(c) for v, c in den[1].items()}
    names = sorted(n.keys() | d.keys())
    shared = [v for v in names if n.get(v, 0) != 0 and d.get(v, 0) != 0]
    alpha, best = Fraction(0), 0
    for cand in {n[v] / d[v] for v in shared}:
        killed = sum(1 for v in shared if n[v] - cand * d[v] == 0)
        if killed > best:
            best, alpha = killed, cand
    rest = {v: n.get(v, 0) - alpha * d.get(v, 0) for v in names}
    return LinFrac(alpha, n0 - alpha * d0, _terms(rest), d0, _terms(d))


@lru_cache(maxsize=None)
def set_names(m: int) -> tuple:
    """The partition set names A_1..A_m, B_1..B_m, C_1..C_m, one tuple of
    strings per m that every caller shares."""
    return tuple(f"{z}{t}" for z in "ABC" for t in range(1, m + 1))


def _size_key(name: str) -> str:
    # |A_t| = |B_t| by padding, both normalized by |C|
    t = name[1:]
    return f"gC{t}" if name[0] == "C" else f"gA{t}"


def _size(name: str, m: int) -> tuple:
    """The size of a set as an affine form (constant, {variable: coefficient}).

    At m >= 2, C_1 is what the size recurrence leaves: 1 - sum_{t>=2} gC_t.
    """
    if name == "C1" and m > 1:
        return 1, {f"gC{t}": -1 for t in range(2, m + 1)}
    return 0, {_size_key(name): 1}


def _never_positive(c0, coeffs: dict, m: int) -> bool:
    """Whether c0 + sum coeffs[v] v <= 0 wherever 0 <= b <= 1, gA1 >= 0 and
    0 <= gC_t <= gA_t (t >= 2), judged from the signs of the coefficients
    alone.  A term in any other variable answers False."""
    c = {v: x for v, x in coeffs.items() if x != 0}
    known = {"b", "gA1"} | {f"g{z}{t}" for z in "AC" for t in range(2, m + 1)}
    return (c.keys() <= known and c0 + max(c.get("b", 0), 0) <= 0
            and c.get("gA1", 0) <= 0
            and all(c.get(f"gA{t}", 0) + max(c.get(f"gC{t}", 0), 0) <= 0
                    for t in range(2, m + 1)))


OPEN = ratio((1, {}), (1, {}))  # a set opened fully
SHUT = ratio((0, {}), (1, {}))  # a set left closed


@dataclass(frozen=True, slots=True)
class ChainSpec:
    """A start set opened fully plus an ordering that absorbs leftover mass."""

    m: int
    start: tuple  # set names fixed to 1
    order: tuple  # set names that take up the rest of the mass, in turn

    def levels(self) -> list:
        """The levels whose A_t or B_t the chain places: the gA_t of the
        mass b + sum_t gA_t.  Any other level is empty in its setting."""
        placed = self.start + self.order
        return [t for t in range(1, self.m + 1)
                if f"A{t}" in placed or f"B{t}" in placed]

    def params(self) -> dict:
        """Per-set parameters, truncated to [0,1]: each set of the order
        takes (b + sum_t gA_t over ``levels`` - sizes already placed) / its
        size, and a set the chain does not place takes 0.

        The m >= 2 model does not bound gA1.  A parameter naming it whose
        numerator ``_never_positive`` shows to be <= 0, so that it is 0
        wherever its set is nonempty, becomes the constant 0; any other
        stays as it is, and ``nlp.compile_chains`` refuses it at m >= 2.
        """
        c0, rest = 0, {"b": 1, **{f"gA{t}": 1 for t in self.levels()}}
        out = {}
        for W in self.start + self.order:
            s0, s = _size(W, self.m)
            if W in self.start:
                out[W] = OPEN
            elif (rest.get("gA1") or "gA1" in s) and \
                    _never_positive(c0, rest, self.m):
                out[W] = SHUT
            else:
                out[W] = ratio((c0, rest), (s0, s))
            c0 -= s0
            for v, c in s.items():
                rest[v] = rest.get(v, 0) - c
        return {W: out.get(W, SHUT) for W in set_names(self.m)}

    def breakpoints_b(self, env: dict) -> list:
        """b-values where some parameter formula hits 0 or 1 (gammas fixed)."""
        gA = sum(env[f"gA{t}"] for t in self.levels())
        pts = []
        cum = sum(env[_size_key(W)] for W in self.start)
        for W in self.order:
            size = env[_size_key(W)]
            if size > 0:
                # (gA + b - cum)/size in {0, 1}
                pts.extend([cum - gA, cum + size - gA])
            cum += size
        return sorted({p for p in pts if 0 < p < 1})

    def label(self) -> str:
        return f"start={{{','.join(self.start)}}} order=({','.join(self.order)})"


def _guards(size: list, m: int) -> list:
    """The backup and A1-or-B1 rules of ``algfamily.is_valid`` at a point
    whose set sizes, in ``set_names(m)`` order, are ``size``: one triple
    (a, b, c) of bit masks over those positions per rule that applies.  A
    vector whose fully open sets have the bits ``ones`` keeps a rule when
    ``ones`` covers a, b or c in full.  Empty sets enter no mask.
    """
    def bits(positions):
        return sum(1 << w for w in positions if size[w] > 0)

    # level t + 1: A_{t+1} open, or every B_s (s <= t + 1), or every C_s
    # (s >= t + 1)
    guards = [(1 << t, bits(range(m, m + t + 1)), bits(range(2 * m + t, 3 * m)))
              for t in range(m) if size[t] > 0]
    if size[0] > 0:  # |B_1| = |A_1|
        guards.append((1, 1 << m, 1 << m))
    return guards


def _backed_up(ones: int, guards: list) -> bool:
    """Whether the fully open sets ``ones`` keep every rule of ``guards``."""
    return all(ones & a == a or ones & b == b or ones & c == c
               for a, b, c in guards)


def _structurally_valid(start, m: int) -> bool:
    """Whether the start sets alone keep the backup rules where every set
    is nonempty.

    Opening more prefix sets along the ordering only helps, so checking the
    start set alone covers every piece of the chain.
    """
    names = set_names(m)
    return _backed_up(sum(1 << names.index(W) for W in start),
                      _guards([1] * 3 * m, m))


def _pairs(*chains) -> list:
    """(start, order) tuples of set names from "start | order" strings."""
    return [tuple(tuple(side.split()) for side in text.split("|"))
            for text in chains]


# m = 1: every structurally valid chain, in the order generate_chains(1)
# finds them; each is valid on the whole domain.
PAIRS_M1 = _pairs("A1 | B1 C1", "A1 | C1 B1", "B1 | A1 C1", "B1 | C1 A1")

# m = 2: the ten-chain family.
PAIRS_M2 = _pairs(
    "A1 A2 | C2 C1 B1 B2", "B1 B2 | C2 C1 A1 A2", "A1 A2 | C1 C2 B1 B2",
    "A2 B1 | C1 C2 A1 B2", "B1 B2 | C1 C2 A1 A2", "A1 A2 | B2 C1 B1 C2",
    "A2 B1 | B2 C1 A1 C2", "B1 B2 | A2 C2 C1 A1", "B1 C2 | C1 B2 A1 A2",
    "B1 C2 | A2 B2 C1 A1",
)

# m = 3: the 29-chain family.
PAIRS_M3 = _pairs(
    "A3 B1 B2 | C3 B3 C1 C2 A1 A2", "B1 C2 C3 | A2 C1 B2 A3 A1 B3",
    "A1 A2 A3 | B3 B2 C3 C2 C1 B1", "A2 A3 B1 | C1 B3 C3 B2 A1 C2",
    "B1 B2 B3 | A3 C3 A2 C2 C1 A1", "B1 B2 C3 | A3 A2 B3 C1 A1 C2",
    "A1 A2 A3 | C1 B2 C2 C3 B1 B3", "A1 A2 A3 | C2 B2 B3 C1 B1 C3",
    "A2 B1 C3 | C1 C2 B3 A1 A3 B2", "A2 A3 B1 | C2 B3 C3 C1 A1 B2",
    "A3 B1 B2 | B3 C1 A2 A1 C2 C3", "A1 A2 A3 | C2 B3 B2 C3 C1 B1",
    "B1 B2 C3 | B3 C1 C2 A1 A2 A3", "A1 A2 A3 | C3 C1 C2 B1 B2 B3",
    "B1 B2 B3 | A3 C2 C3 C1 A1 A2", "A1 A2 A3 | C2 C3 C1 B1 B2 B3",
    "B1 C2 C3 | B2 B3 C1 A1 A2 A3", "A2 A3 B1 | B2 B3 C1 A1 C2 C3",
    "A2 A3 B1 | C3 C1 B2 A1 B3 C2", "A1 A2 A3 | C1 B3 C2 B1 B2 C3",
    "B1 C2 C3 | C1 B2 B3 A1 A2 A3", "A1 A2 A3 | C3 B2 C1 B1 B3 C2",
    "B1 B2 B3 | C1 C3 A3 A2 A1 C2", "A2 A3 B1 | C2 C1 B2 C3 A1 B3",
    "B1 C2 C3 | A3 A2 B2 C1 A1 B3", "B1 B2 B3 | C2 C1 C3 A1 A2 A3",
    "A1 A2 A3 | C2 B3 C1 B1 B2 C3", "A2 A3 B1 | B3 B2 C3 C1 A1 C2",
    "B1 C2 C3 | B3 C1 B2 A1 A2 A3",
)

# Uniform-g setting (all of F1 in A_2, thresholds g_1 = g_hat, g_2 = g_hat + eps):
# every valid algorithm over the nonempty sets {A_2, B_2, C_1, C_2}.  No
# pair places A_1 or B_1: level 1 is empty.
PAIRS_UNIFORM = _pairs(
    "B2 | C1 C2", "C2 | C1 B2", "C2 | B2 C1", "A2 | C1 C2", "A2 | C1 B2",
    "A2 | B2 C1", "A2 | B2 C2 C1", "A2 | C2 B2 C1", "C2 | C1 A2",
    "B2 | C1 A2", "B2 | A2 C1", "C2 | A2 C1", "B2 | C2 A2 C1",
    "C2 | B2 A2 C1",
)

# default g-thresholds for the two- and three-level hierarchies
G_M2 = (Fraction(6586, 10000),)
G_M3 = (Fraction(642, 1000), Fraction(833, 1000))


class Table(NamedTuple):
    m: int  # levels of the hierarchy
    rows: list  # per chain: a (start, order) pair
    g_inner: tuple  # default inner thresholds g_1..g_{m-1}


# every built-in table, in the order best_of runs them
CATALOGUE = {
    "alg1": Table(1, PAIRS_M1, ()),
    "alg2": Table(2, PAIRS_M2, G_M2),
    "alg3": Table(3, PAIRS_M3, G_M3),
    "uniform": Table(2, PAIRS_UNIFORM, G_M2),
}


def table_for_m(m: int) -> str:
    """The first catalogued table with m levels: the table a bare m names."""
    for name, table in CATALOGUE.items():
        if table.m == m:
            return name
    raise ValueError(f"no built-in table has m={m}")


@lru_cache(maxsize=None)
def builtin_tables() -> dict:
    """Published chain families as exact parameters.

    Returns {name: (m, [chain dict set_name -> LinFrac])}.
    """
    return {name: (m, [ChainSpec(m, *pair).params() for pair in rows])
            for name, (m, rows, _) in CATALOGUE.items()}
