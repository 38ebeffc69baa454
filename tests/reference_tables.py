"""The chain tables ``tables.CATALOGUE`` held before it listed (start, order)
pairs, typed as formula strings, and ``read_param``, the reader of those
strings: the reference the pairs are checked against."""

import re

from bipoint.tables import LinFrac, ratio

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


# m = 1: the five single-level algorithms as typed.  Chains 2, 3 and 4 are
# valid on one side of b = gA1 only.
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

# Uniform-g setting (all of F1 in A_2): every valid algorithm over the
# nonempty sets {A_2, B_2, C_1, C_2}.
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
