"""Primary/secondary star forests over F1/F2 and the m-level facility partition.

Each F1 facility gets a primary center (its nearest F2 facility) and a
secondary center (its nearest facility in C = F2 \\ B).  The ratio
``g(i) = d(i, primary) / d(i, secondary)`` drives the partition of F1 into
level sets A_1..A_m, with matching B_t and C_t sets on the F2 side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .instances import BiPointSolution, MetricInstance, nearest


class SecondaryStarsUnavailable(ValueError):
    """|F2| == |F1| leaves C empty, so g(.) and secondary stars are undefined."""


@dataclass
class StarForest:
    sigmaB: dict  # F1 facility -> primary center in B
    sigmaC: dict  # F1 facility -> secondary center in C (empty when C empty)
    B: list
    C: list

    @property
    def has_secondary(self) -> bool:
        return bool(self.C)


@dataclass
class FacilityPartition:
    m: int
    g_thresholds: list  # g_0=0 < g_1 < ... < g_m=1 (length m+1)
    A: list  # m lists
    B: list
    C: list
    gammaA: list = field(default_factory=list)
    gammaC: list = field(default_factory=list)

    def sizes(self):
        return {
            **{f"A{t+1}": len(s) for t, s in enumerate(self.A)},
            **{f"B{t+1}": len(s) for t, s in enumerate(self.B)},
            **{f"C{t+1}": len(s) for t, s in enumerate(self.C)},
        }


@dataclass
class ClientClassification:
    client: object
    zone: str  # "B" or "C": membership of i2
    x: int  # level of i1 (1-based)
    y: int  # level of i2 (1-based)
    i1: object
    i2: object
    i3: object  # sigmaB(i1)
    i4: object  # sigmaC(i1), None when C empty
    d1: object
    d2: object


def build_stars(sol: BiPointSolution) -> StarForest:
    """Assign primary and secondary centers; pad B to size |F1| (lowest id first)."""
    inst = sol.instance
    sigmaB = {i: nearest(inst, sol.F2, i) for i in sol.F1}
    centers = set(sigmaB.values())
    B = sorted(centers)
    if len(B) < len(sol.F1):
        pad = [i for i in sorted(sol.F2) if i not in centers]
        B += pad[: len(sol.F1) - len(B)]
        B.sort()
    C = sorted(set(sol.F2) - set(B))
    sigmaC = {i: nearest(inst, C, i) for i in sol.F1} if C else {}
    return StarForest(sigmaB=sigmaB, sigmaC=sigmaC, B=B, C=C)


def g_value(inst: MetricInstance, i, forest: StarForest):
    """g(i) = d(i, sigmaB(i)) / d(i, sigmaC(i)), with 0/0 -> 1 by convention."""
    if not forest.has_secondary:
        raise SecondaryStarsUnavailable("g undefined: C is empty")
    num = inst.d(i, forest.sigmaB[i])
    den = inst.d(i, forest.sigmaC[i])
    if den == 0:
        # sigmaB is the F2-nearest, so num must be 0 too; 1 is the weakest
        # (most conservative) consistent value.
        return 1
    if isinstance(num, Fraction) or isinstance(den, Fraction):
        return Fraction(num) / Fraction(den)
    return num / den


def check_thresholds(g_thresholds) -> list:
    """The inner thresholds of an m-level partition as a list, after checking
    that they are strictly increasing in (0,1): 0 < g_1 < ... < g_{m-1} < 1."""
    inner = list(g_thresholds)
    if any(not (0 < g < 1) for g in inner) or any(
        inner[i] >= inner[i + 1] for i in range(len(inner) - 1)
    ):
        raise ValueError(f"thresholds must be strictly increasing in (0,1): {inner}")
    return inner


def build_partition(sol: BiPointSolution, forest: StarForest, g_thresholds) -> FacilityPartition:
    """Build {A_t, B_t, C_t} for the thresholds 0 < g_1 < ... < g_{m-1} < 1.

    Boundary ties g(x) == g_t go to the lower-index set A_t.  B_t and C_t are
    padded lowest-id-first; C is filled from t = m downward, C_1 takes the
    remainder.
    """
    inner = check_thresholds(g_thresholds)
    m = len(inner) + 1
    bounds = [0] + inner + [1]

    inst = sol.instance
    if not forest.has_secondary:
        if m != 1:
            raise SecondaryStarsUnavailable(
                "C empty: only the single-level partition is supported"
            )
        A = [sorted(sol.F1)]
        B = [list(forest.B)]
        C = [[]]
        return FacilityPartition(m=1, g_thresholds=bounds, A=A, B=B, C=C,
                                 gammaA=[None], gammaC=[None])

    gvals = {i: g_value(inst, i, forest) for i in sol.F1}
    A = [[] for _ in range(m)]
    for i in sorted(sol.F1):
        g = gvals[i]
        for t in range(m):
            if g <= bounds[t + 1]:
                A[t].append(i)
                break

    # B_t = sigmaB(A_t) minus earlier levels, padded to |A_t| in increasing t.
    B = []
    used = set()
    for t in range(m):
        Bt = sorted({forest.sigmaB[i] for i in A[t]} - used)
        B.append(Bt)
        used |= set(Bt)
    leftovers = [i for i in forest.B if i not in used]
    for t in range(m):
        while len(B[t]) < len(A[t]):
            B[t].append(leftovers.pop(0))
        B[t].sort()

    # C_t built from t = m downward; C_1 is the remainder.
    C = [[] for _ in range(m)]
    taken = set()
    pool_all = list(forest.C)
    for t in range(m - 1, 0, -1):
        Ct = sorted({forest.sigmaC[i] for i in A[t]} - taken)
        avail = [i for i in pool_all if i not in taken and i not in Ct]
        Ct = sorted(Ct + avail[:len(A[t]) - len(Ct)])
        C[t] = Ct
        taken |= set(Ct)
    C[0] = sorted(i for i in pool_all if i not in taken)

    nC = len(forest.C)
    gammaA = [Fraction(len(A[t]), nC) for t in range(m)]
    gammaC = [Fraction(len(C[t]), nC) for t in range(m)]
    return FacilityPartition(m=m, g_thresholds=bounds, A=A, B=B, C=C,
                             gammaA=gammaA, gammaC=gammaC)


def classify_clients(sol: BiPointSolution, forest: StarForest,
                     part: FacilityPartition) -> list:
    """Place every client in its (zone, x, y) class with its four reference facilities."""
    inst = sol.instance
    levelA = {}
    for t, At in enumerate(part.A):
        for i in At:
            levelA[i] = t + 1
    levelB = {}
    for t, Bt in enumerate(part.B):
        for i in Bt:
            levelB[i] = t + 1
    levelC = {}
    for t, Ct in enumerate(part.C):
        for i in Ct:
            levelC[i] = t + 1

    out = []
    for j in inst.clients:
        i1 = nearest(inst, sol.F1, j)
        i2 = nearest(inst, sol.F2, j)
        x = levelA[i1]
        if i2 in levelB:
            zone, y = "B", levelB[i2]
        else:
            zone, y = "C", levelC[i2]
        out.append(ClientClassification(
            client=j, zone=zone, x=x, y=y, i1=i1, i2=i2,
            i3=forest.sigmaB[i1], i4=forest.sigmaC.get(i1),
            d1=inst.d(j, i1), d2=inst.d(j, i2),
        ))
    return out


def class_aggregates(inst: MetricInstance, classified: list, m: int) -> dict:
    """Demand-weighted per-class sums D_{Z,1}^{x,y} and D_{Z,2}^{x,y}."""
    agg = {}
    for zone in "BC":
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                agg[(zone, x, y)] = [0, 0]
    for c in classified:
        u = inst.demand(c.client)
        rec = agg[(c.zone, c.x, c.y)]
        rec[0] += u * c.d1
        rec[1] += u * c.d2
    return agg
