"""Built-in chain tables for the partition-hierarchy algorithm families, the
``CATALOGUE`` of each table's m and default thresholds, and ``LinFrac``, the
exact form of every chain parameter.

Each chain is a per-set parameter formula in the variables ``b``, ``gA2``,
``gA3`` (level-set size ratios) and the derived ``gC2``, ``gC3``; every
formula is implicitly truncated to [0, 1].  Set keys follow the partition
order A_1..A_m, B_1..B_m, C_1..C_m.
"""

from __future__ import annotations

import math
import re
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


_ATOM = r"\d+|[A-Za-z_]\w*"
_AFFINE = re.compile(rf"[+-]?\s*(?:{_ATOM})(?:\s*[+-]\s*(?:{_ATOM}))*")
_TERM = re.compile(rf"([+-]?)\s*({_ATOM})")


def _affine_of(side: str, text: str) -> tuple:
    body = side.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if not _AFFINE.fullmatch(body):
        raise ValueError(f"{text!r} is not affine or affine / affine "
                         "(integer constants and +-variables only)")
    const, coeffs = 0, {}
    for sign, atom in _TERM.findall(body):
        c = -1 if sign == "-" else 1
        if atom.isdigit():
            const += c * int(atom)
        else:
            coeffs[atom] = coeffs.get(atom, 0) + c
    return const, coeffs


def read_param(text: str) -> LinFrac:
    """The ``LinFrac`` of a table formula: ``affine`` or ``affine / affine``,
    each side optionally in parentheses.  Raises ValueError naming the text
    for anything else."""
    sides = text.split("/")
    if len(sides) > 2:
        raise ValueError(f"{text!r} has more than one quotient")
    den = _affine_of(sides[1], text) if len(sides) == 2 else (1, {})
    return ratio(_affine_of(sides[0], text), den)


def set_names(m: int) -> list:
    return ([f"A{t}" for t in range(1, m + 1)]
            + [f"B{t}" for t in range(1, m + 1)]
            + [f"C{t}" for t in range(1, m + 1)])


# m = 1: the five conditionally-valid single-level algorithms.
TABLE_M1 = [
    ("0", "1", "b"),
    ("1", "0", "b"),
    ("1", "1", "b - gA1"),
    ("b / gA1", "1", "0"),
    ("1", "b / gA1", "0"),
]

# m = 2: the ten-chain family (parameters pA1, pA2, pB1, pB2, pC1, pC2).
TABLE_M2 = [
    ("1", "1", "0", "0", "(b - gC2) / (1 - gC2)", "b / gC2"),
    ("0", "0", "1", "1", "(b - gC2) / (1 - gC2)", "b / gC2"),
    ("1", "1", "0", "0", "b / (1 - gC2)", "(b + gC2 - 1) / gC2"),
    ("0", "1", "1", "0", "b / (1 - gC2)", "(b + gC2 - 1) / gC2"),
    ("0", "0", "1", "1", "b / (1 - gC2)", "(b + gC2 - 1) / gC2"),
    ("1", "1", "0", "b / gA2", "(b - gA2) / (1 - gC2)", "0"),
    ("0", "1", "1", "b / gA2", "(b - gA2) / (1 - gC2)", "0"),
    ("0", "b / gA2", "1", "1", "(b - gA2 - gC2) / (1 - gC2)", "(b - gA2) / gC2"),
    ("0", "0", "1", "(b + gA2 - 1) / gA2", "(b + gA2 - gC2) / (1 - gC2)",
     "(b + gA2) / gC2"),
    ("0", "(b + gA2 - gC2) / gA2", "1", "(b - gC2) / gA2",
     "(b - gA2 - gC2) / (1 - gC2)", "1"),
]

# m = 3: the 29-chain family (pA1, pA2, pA3, pB1, pB2, pB3, pC1, pC2, pC3).
TABLE_M3 = [
    ("0", "0", "1", "1", "1", "(b - gC3) / gA3",
     "(b - gA3 - gC3) / (1 - gC2 - gC3)", "(b + gC2 - 1 - gA3) / gC2",
     "b / gC3"),
    ("0", "(b + gA2 + gA3 - gC2 - gC3) / gA2", "(b + gA3 - 1 - gA2) / gA3",
     "1", "(b + gA3 - 1) / gA2", "0",
     "(b + gA3 - gC2 - gC3) / (1 - gC2 - gC3)", "1", "1"),
    ("1", "1", "1", "0", "(b - gA3) / gA2", "b / gA3",
     "(b - gA2 - gA3 - gC2 - gC3) / (1 - gC2 - gC3)",
     "(b - gA2 - gA3 - gC3) / gC2", "(b - gA2 - gA3) / gC3"),
    ("0", "1", "1", "1", "(b + gC2 - 1 - gA3) / gA2",
     "(b + gC2 + gC3 - 1) / gA3", "b / (1 - gC2 - gC3)", "0",
     "(b + gC2 + gC3 - 1 - gA3) / gC3"),
    ("0", "(b - gA3 - gC3) / gA2", "b / gA3", "1", "1", "1",
     "(b - gA2 - gA3 - gC2 - gC3) / (1 - gC2 - gC3)",
     "(b - gA2 - gA3 - gC3) / gC2", "(b - gA3) / gC3"),
    ("0", "(b - gC3) / gA2", "(b + gA3 - gC3) / gA3", "1", "1",
     "(b - gA2 - gC3) / gA3",
     "(b - gA2 - gA3 - gC3) / (1 - gC2 - gC3)", "0", "1"),
    ("1", "1", "1", "0", "(b + gC2 + gC3 - 1) / gA2", "0",
     "b / (1 - gC2 - gC3)", "(b + gC2 + gC3 - 1 - gA2) / gC2",
     "(b + gC3 - 1 - gA2) / gC3"),
    ("1", "1", "1", "0", "(b - gC2) / gA2", "(b - gA2 - gC2) / gA3",
     "(b - gA2 - gA3 - gC2) / (1 - gC2 - gC3)", "b / gC2", "0"),
    ("0", "1", "0", "1", "0", "(b + gA3 - 1) / gA3",
     "(b + gA3 - gC3) / (1 - gC2 - gC3)", "(b + gA3 + gC2 - 1) / gC2", "1"),
    ("0", "1", "1", "1", "0", "(b - gC2) / gA3",
     "(b - gA3 - gC2 - gC3) / (1 - gC2 - gC3)", "b / gC2",
     "(b - gA3 - gC2) / gC3"),
    ("0", "(b + gC2 + gC3 - 1 - gA3) / gA2", "1", "1", "1", "b / gA3",
     "(b - gA3) / (1 - gC2 - gC3)", "0", "0"),
    ("1", "1", "1", "0", "(b - gA3 - gC2) / gA2", "(b - gC2) / gA3",
     "(b - gA2 - gA3 - gC2 - gC3) / (1 - gC2 - gC3)", "b / gC2",
     "(b - gA2 - gA3 - gC2) / gC3"),
    ("0", "0", "0", "1", "1", "(b + gA3 - gC3) / gA3",
     "(b - gC3) / (1 - gC2 - gC3)", "(b + gC2 - 1) / gC2", "1"),
    ("1", "1", "1", "0", "0", "0", "(b - gC3) / (1 - gC2 - gC3)",
     "(b + gC2 - 1) / gC2", "b / gC3"),
    ("0", "0", "b / gA3", "1", "1", "1",
     "(b - gA3 - gC2 - gC3) / (1 - gC2 - gC3)", "(b - gA3) / gC2",
     "(b - gA3 - gC2) / gC3"),
    ("1", "1", "1", "0", "0", "0",
     "(b - gC2 - gC3) / (1 - gC2 - gC3)", "b / gC2", "(b - gC2) / gC3"),
    ("0", "0", "0", "1", "(b + gA2 + gA3 - gC2 - gC3) / gA2",
     "(b + gA3 - gC2 - gC3) / gA3",
     "(b - gC2 - gC3) / (1 - gC2 - gC3)", "1", "1"),
    ("0", "1", "1", "1", "b / gA2", "(b - gA2) / gA3",
     "(b - gA2 - gA3) / (1 - gC2 - gC3)", "0", "0"),
    ("0", "1", "1", "1", "(b + gC2 - 1) / gA2", "0",
     "(b - gC3) / (1 - gC2 - gC3)", "0", "b / gC3"),
    ("1", "1", "1", "0", "0", "(b + gC2 + gC3 - 1) / gA3",
     "b / (1 - gC2 - gC3)", "(b + gC2 + gC3 - 1 - gA3) / gC2", "0"),
    ("0", "0", "0", "1", "(b + gA2 + gA3 - 1) / gA2",
     "(b + gA3 - 1) / gA3",
     "(b + gA2 + gA3 - gC2 - gC3) / (1 - gC2 - gC3)", "1", "1"),
    ("1", "1", "1", "0", "(b - gC3) / gA2", "0",
     "(b - gA2 - gC3) / (1 - gC2 - gC3)", "0", "b / gC3"),
    ("0", "(b + gC2 - 1 - gA3) / gA2", "(b + gC2 - 1) / gA3", "1", "1",
     "1", "b / (1 - gC2 - gC3)", "0", "(b + gC2 + gC3 - 1) / gC3"),
    ("0", "1", "1", "1", "(b + gC3 - 1) / gA2", "0",
     "(b - gC2) / (1 - gC2 - gC3)", "b / gC2",
     "(b + gC3 - 1 - gA2) / gC3"),
    ("0", "(b + gA2 - gC2 - gC3) / gA2",
     "(b + gA2 + gA3 - gC2 - gC3) / gA3", "1", "(b - gC2 - gC3) / gA2",
     "0", "(b - gA2 - gC2 - gC3) / (1 - gC2 - gC3)", "1", "1"),
    ("0", "0", "0", "1", "1", "1", "(b - gC2) / (1 - gC2 - gC3)",
     "b / gC2", "(b + gC3 - 1) / gC3"),
    ("1", "1", "1", "0", "0", "(b - gC2) / gA3",
     "(b - gA3 - gC2) / (1 - gC2 - gC3)", "b / gC2", "0"),
    ("0", "1", "1", "1", "(b - gA3) / gA2", "b / gA3",
     "(b - gA2 - gA3 - gC3) / (1 - gC2 - gC3)", "0",
     "(b - gA2 - gA3) / gC3"),
    ("0", "0", "0", "1", "(b + gA2 - 1) / gA2",
     "(b + gA2 + gA3 - gC2 - gC3) / gA3",
     "(b + gA2 - gC2 - gC3) / (1 - gC2 - gC3)", "1", "1"),
]

# Uniform-g setting (all of F1 in A_2, thresholds g_1 = g_hat, g_2 = g_hat + eps):
# every valid algorithm over the nonempty sets {A_2, B_2, C_1, C_2}.
TABLE_UNIFORM = [
    ("0", "0", "0", "1", "b / (1 - gC2)", "(b + gC2 - 1) / gC2"),
    ("0", "0", "0", "(b + gA2 - 1) / gA2", "(b + gA2 - gC2) / (1 - gC2)", "1"),
    ("0", "0", "0", "(b + gA2 - gC2) / gA2", "(b - gC2) / (1 - gC2)", "1"),
    ("0", "1", "0", "0", "b / (1 - gC2)", "(b + gC2 - 1) / gC2"),
    ("0", "1", "0", "(b + gC2 - 1) / gA2", "b / (1 - gC2)", "0"),
    ("0", "1", "0", "b / gA2", "(b - gA2) / (1 - gC2)", "0"),
    ("0", "1", "0", "b / gA2", "(b - gA2 - gC2) / (1 - gC2)", "(b - gA2) / gC2"),
    ("0", "1", "0", "(b - gC2) / gA2", "(b - gA2 - gC2) / (1 - gC2)", "b / gC2"),
    ("0", "(b + gA2 - 1) / gA2", "0", "0", "(b + gA2 - gC2) / (1 - gC2)", "1"),
    ("0", "(b + gC2 - 1) / gA2", "0", "1", "b / (1 - gC2)", "0"),
    ("0", "b / gA2", "0", "1", "(b - gA2) / (1 - gC2)", "0"),
    ("0", "(b + gA2 - gC2) / gA2", "0", "0", "(b - gC2) / (1 - gC2)", "1"),
    ("0", "(b - gC2) / gA2", "0", "1", "(b - gA2 - gC2) / (1 - gC2)", "b / gC2"),
    ("0", "(b - gC2) / gA2", "0", "(b + gA2 - gC2) / gA2",
     "(b - gA2 - gC2) / (1 - gC2)", "1"),
]

# default g-thresholds for the two- and three-level hierarchies
G_M2 = (Fraction(6586, 10000),)
G_M3 = (Fraction(642, 1000), Fraction(833, 1000))


class Table(NamedTuple):
    m: int  # levels of the hierarchy
    rows: list  # one tuple of 3m formulas per chain, in set_names(m) order
    g_inner: tuple  # default inner thresholds g_1..g_{m-1}


# every built-in table, in the order best_of runs them
CATALOGUE = {
    "alg1": Table(1, TABLE_M1, ()),
    "alg2": Table(2, TABLE_M2, G_M2),
    "alg3": Table(3, TABLE_M3, G_M3),
    "uniform": Table(2, TABLE_UNIFORM, G_M2),
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
    out = {}
    for name, (m, rows, _) in CATALOGUE.items():
        names = set_names(m)
        chains = []
        for row in rows:
            assert len(row) == 3 * m
            chains.append({w: read_param(f) for w, f in zip(names, row)})
        out[name] = (m, chains)
    return out
