"""The golden-ratio integrality-gap family: constants, explicit instances,
vertex enumeration in the number field, and brute-force dominance."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipoint import golden
from bipoint.golden import (
    ELL_Q,
    FieldElt,
    F_B,
    F_ELL,
    F_OMEGA,
    F_PHI,
    F_RB,
    F_RC,
    F_S,
    analytic_costs,
    brute_force_opt,
    build_golden,
    extreme_points,
    gap_lower_bound,
    gap_summary,
    golden_constants,
    rational_vertex_bound,
    verify_gap_identities,
)
from bipoint.instances import (
    MetricInstance,
    connection_cost,
    validate_bipoint,
)

PHI = (1 + math.sqrt(5)) / 2


def test_field_arithmetic():
    # s^2 = phi and phi^2 = phi + 1 in Q[s]/(s^4 - s^2 - 1)
    assert (F_S * F_S - F_PHI).is_zero()
    assert (F_PHI * F_PHI - F_PHI - 1).is_zero()
    assert (F_ELL - (F_PHI - 1)).is_zero()
    assert (F_ELL * F_PHI - 1).is_zero()  # ell = 1/phi
    x = FieldElt((Fraction(3), Fraction(-2), Fraction(1), Fraction(5)))
    assert (x * x.inv() - 1).is_zero()
    assert abs(float(F_S) - math.sqrt(PHI)) < 1e-12


def test_constants_structure():
    assert float(F_PHI) == pytest.approx(PHI)
    assert float(F_OMEGA) == pytest.approx(PHI - math.sqrt(PHI))
    assert float(F_ELL) == pytest.approx(1 / PHI)
    assert float(F_RB) + float(F_RC) == pytest.approx(math.sqrt(PHI))
    # b = (1 - r_B)/r_C makes the mass identity hold in the limit
    assert float(F_B) == pytest.approx((1 - float(F_RB)) / float(F_RC))
    assert (F_RB + F_RC - F_S).is_zero()
    assert (F_B * F_RC + F_RB - 1).is_zero()


def test_rational_constants_mass_exact():
    for k in (6, 8, 10, 100, 10 ** 4):
        c = golden_constants(k)
        a_q = 1 - c.b_q
        assert a_q + c.b_q == 1
        assert a_q * c.t_B + c.b_q * (c.t_B + c.t_C) == k
        assert c.t_B <= k <= c.t_B + c.t_C


def test_gap_summary_large_k():
    rep = gap_summary(10 ** 4)
    assert all(rep["checks"].values())
    assert rep["t_B"] == 4401
    assert abs(rep["cost_dev"]) <= 10.0 / 10 ** 4


def test_explicit_instance_matches_analytic_costs():
    sol = build_golden(6)
    assert validate_bipoint(sol).ok
    assert sol.instance.check_metric() == []
    c = golden_constants(6)
    D1, D2 = analytic_costs(c)
    assert sol.D1 == D1 and sol.D2 == D2  # exact Fractions


def test_explicit_third_backup_distance():
    """Each client's two designated facilities are its only nearby ones;
    every other facility is at least distance 2 - ell away."""
    sol = build_golden(6)
    inst = sol.instance
    ell = golden_constants(6).ell_q
    for j in inst.clients:
        ds = sorted(inst.d(j, i) for i in inst.facilities)
        assert ds[0] <= ell + Fraction(1, 10 ** 6)
        assert ds[2] >= 2 - ell - Fraction(1, 10 ** 6)


def test_extreme_points_count_and_tie():
    verts = extreme_points()
    assert len(verts) == 5
    vals = sorted(float(v.value) for v in verts)
    for v in vals[:4]:
        assert v == pytest.approx(math.sqrt(PHI), abs=1e-9)
    assert vals[4] == pytest.approx(3 / PHI + 2 / math.sqrt(PHI) - 2, abs=1e-9)
    assert float(gap_lower_bound()) == pytest.approx(math.sqrt(PHI))


def test_verify_gap_identities_all_true():
    rep = verify_gap_identities()
    assert all(v is True for v in rep.values() if isinstance(v, bool)), rep
    assert rep["n_vertices"] == 5
    assert rep["n_at_sqrt_phi"] == 4
    assert rep["sqrt_phi_50_digits"] == rep["min_value_50_digits"]
    assert len(rep["sqrt_phi_50_digits"].replace(".", "")) >= 50


def test_rational_vertex_bound_values():
    for k in (6, 8, 10):
        c = golden_constants(k)
        bound = rational_vertex_bound(c)
        assert isinstance(bound, Fraction)
        assert 0.9 < float(bound) < 1.5


def test_brute_force_matches_exhaustive_oracle():
    # independent exact re-scan with the library cost function
    for k in (6, 8):
        inst = build_golden(k).instance
        open_set, cost = brute_force_opt(inst)
        assert len(open_set) == k
        assert connection_cost(inst, open_set) == cost
        best = min(
            connection_cost(inst, frozenset(S))
            for S in itertools.combinations(sorted(inst.facilities), k)
        )
        assert best == cost


def _fraction_closure(n, edges):
    """Floyd-Warshall over exact Fractions: the reference for the integer
    closure of build_golden."""
    INFTY = Fraction(10 ** 9)
    dist = [[INFTY] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = Fraction(0)
    for u, v, w in edges:
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for mid in range(n):
        dm = dist[mid]
        for u in range(n):
            du = dist[u]
            dum = du[mid]
            for v in range(n):
                if dum + dm[v] < du[v]:
                    du[v] = dum + dm[v]
    return dist


def test_build_golden_closure_matches_fraction_floyd_warshall():
    for k in range(6, 13):
        c = golden_constants(k)
        sol = build_golden(k)
        inst = sol.instance
        A = sol.F1
        B, C = sol.F2[:len(A)], sol.F2[len(A):]
        ell = c.ell_q
        # the generating graph, read back from the instance's layout
        edges = [(i, b, 2 * ell) for i, b in zip(A, B)]
        clients = iter(inst.clients)
        for (i1, i2), j in zip(itertools.product(A, C), clients):
            edges += [(j, i1, 2 - ell), (j, i2, ell)]
        edges += [(j, b, Fraction(0)) for b, j in zip(B, clients)]
        assert inst.dist == _fraction_closure(inst.n_points, edges), k


def _subsets(rng, n, k, count):
    return [tuple(sorted(rng.sample(range(n), k))) for _ in range(count)]


@pytest.mark.parametrize("count", [
    1, golden.SCAN_CHUNK - 1, golden.SCAN_CHUNK, 3 * golden.SCAN_CHUNK,
    3 * golden.SCAN_CHUNK + 1])
def test_scan_combos_chunk_edges(count):
    """Integer distances make every cost exact, so the expected winner is
    the first subset of least cost, wherever the chunks split."""
    rng = random.Random(count)
    rows = np.array([[rng.randrange(10) for _ in range(7)]
                     for _ in range(9)], dtype=float)
    u = np.array([rng.randrange(1, 4) for _ in range(9)], dtype=float)
    combos = _subsets(rng, 7, 3, count)
    costs = [float(u @ rows[:, list(S)].min(axis=1)) for S in combos]
    first = costs.index(min(costs))
    assert golden._scan_combos(iter(combos), rows, u) == \
        (costs[first], combos[first])


@pytest.mark.parametrize("where", [[0], [-1], [1, -1]])
def test_scan_combos_finds_planted_minimum(where):
    """A cost-0 subset planted in the first chunk, in the last, or in both
    (a tie, which the earlier one wins)."""
    # column 7 is at distance 0 from every client; only planted subsets use it
    count = 3 * golden.SCAN_CHUNK + 1
    rng = random.Random(7)
    rows = np.array([[rng.randrange(1, 10) for _ in range(7)] + [0]
                     for _ in range(9)], dtype=float)
    combos = _subsets(rng, 7, 3, count)
    planted = [(0, 1, 7), (2, 3, 7)]
    for pos, S in zip(where, planted):
        combos[pos] = S
    assert golden._scan_combos(iter(combos), rows, np.ones(9)) == \
        (0.0, planted[0])


def test_scan_combos_exhausts_a_generator():
    done = []

    def gen():
        yield from itertools.combinations(range(6), 3)
        done.append(True)

    rows = np.arange(24, dtype=float).reshape(4, 6)
    cost, best = golden._scan_combos(gen(), rows, np.ones(4))
    assert done == [True]
    assert best == (0, 1, 2) and cost == float(rows[:, 0].sum())


def _column_scan_costs(combos, rows, u):
    """The reference scan, column by column: per block of SCAN_CHUNK
    subsets, a running minimum over each subset's columns of ``rows``;
    yields (block, float costs)."""
    combos = iter(combos)
    while block := list(itertools.islice(combos, golden.SCAN_CHUNK)):
        k = len(block[0])
        cols = np.fromiter(itertools.chain.from_iterable(block), np.intp,
                           count=len(block) * k).reshape(len(block), k).T
        near = rows[:, cols[0]]
        for col in cols[1:]:
            np.minimum(near, rows[:, col], out=near)
        yield block, u @ near


def _column_scan(combos, rows, u):
    best_cost, best_subset = math.inf, None
    for block, costs in _column_scan_costs(combos, rows, u):
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost, best_subset = float(costs[i]), block[i]
    return best_cost, best_subset


@pytest.mark.parametrize("k", range(4, 13))
def test_grouped_tables_cost_golden_subsets_bit_for_bit(k):
    inst = build_golden(k).instance
    fac = sorted(inst.facilities)
    rows, u = inst.client_arrays()
    rows = rows[:, fac]
    tables = golden._nearest_tables(rows)
    combos = list(itertools.combinations(range(len(fac)), k))
    for block, want in _column_scan_costs(combos, rows, u):
        got = golden._block_costs(block, tables, u)
        assert got.tobytes() == want.tobytes(), (k, block[0])
    got = golden._scan_combos(iter(combos), rows, u)
    assert got == _column_scan(combos, rows, u)
    assert math.isfinite(got[0])


@pytest.mark.parametrize("n,k", [
    (n, k) for n in (1, 7, 8, 9, 16, 17, 63) for k in sorted({1, 2, 3, n})
    if k <= n])
def test_scan_combos_matches_the_column_scan_at_group_edges(n, k):
    """Integer distances with some inf entries, on either side of every
    table boundary (8 facilities a group, at most 63 in all)."""
    rng = random.Random(100 * n + k)
    rows = np.array([[math.inf if rng.random() < 0.1 else rng.randrange(20)
                      for _ in range(n)] for _ in range(11)])
    u = np.array([rng.randrange(1, 4) for _ in range(11)], dtype=float)
    combos = list(itertools.combinations(range(n), k))
    assert golden._scan_combos(iter(combos), rows, u) == \
        _column_scan(combos, rows, u)


def test_scan_refuses_64_facilities():
    rows = np.ones((3, 64))
    with pytest.raises(ValueError, match="at most 63"):
        golden._scan_combos(itertools.combinations(range(64), 1), rows,
                            np.ones(3))
    # one client and 64 facilities at distance 1 from it
    dist = [[Fraction(int(i != j)) for j in range(65)] for i in range(65)]
    inst = MetricInstance(n_points=65, dist=dist, clients=[0],
                          facilities=list(range(1, 65)), k=1)
    with pytest.raises(ValueError, match="at most 63"):
        brute_force_opt(inst)


@pytest.mark.parametrize("k,opt", [
    (11, Fraction(887455705, 701408733)),
    (12, Fraction(4210297891, 3507043665))])
def test_brute_force_optimum_pinned(k, opt):
    _, cost = brute_force_opt(build_golden(k).instance)
    assert cost == opt


def test_build_golden_point_cap():
    def points(k):
        c = golden_constants(k)
        return 3 * c.t_B + c.t_C + c.t_B * c.t_C

    k = next(k for k in itertools.count(6) if points(k) > golden.MAX_POINTS)
    with pytest.raises(ValueError, match="points"):
        build_golden(k)


def test_brute_force_dominates_rational_vertex_bound():
    for k in (6, 8, 10):
        sol = build_golden(k)
        _, cost = brute_force_opt(sol.instance)
        assert cost >= rational_vertex_bound(golden_constants(k))


def test_brute_force_budget():
    sol = build_golden(6)
    with pytest.raises(ValueError):
        brute_force_opt(sol.instance, budget=10)


def test_brute_force_runs_on_one_thread():
    sol = build_golden(6)
    with pytest.raises(ValueError):
        brute_force_opt(sol.instance, jobs=2)


# (t_B, t_C, b_q) of the construction for a ladder of k
PINNED_CONSTANTS = {
    6: (3, 5, "3/5"), 7: (3, 6, "2/3"), 8: (4, 7, "4/7"), 9: (4, 7, "5/7"),
    10: (4, 8, "3/4"), 11: (5, 9, "2/3"), 12: (5, 10, "7/10"),
    100: (44, 83, "56/83"), 10 ** 4: (4401, 8319, "5599/8319"),
}


def test_golden_constants_pinned():
    for k, (t_B, t_C, b_q) in PINNED_CONSTANTS.items():
        c = golden_constants(k)
        assert (c.t_B, c.t_C, c.ell_q, c.b_q) == \
            (t_B, t_C, Fraction(433494437, 701408733), Fraction(b_q)), k


# (x_A, x_B, x_C, f) of every vertex, in order, as exact floats
PINNED_VERTICES = [
    ("0x0.0p+0", "0x1.0p+0", "0x1.5894654ef7052p-1", "0x1.45a3146a88456p+0"),
    ("0x1.0p+0", "0x0.0p+0", "0x1.5894654ef7052p-1", "0x1.45a3146a88456p+0"),
    ("0x1.0p+0", "0x1.0p+0", "0x1.26c065ad095bap-3", "0x1.45a3146a88456p+0"),
    ("0x0.0p+0", "0x1.8722191a02d61p-2", "0x1.0p+0", "0x1.45a3146a88456p+0"),
    ("0x1.8722191a02d61p-2", "0x0.0p+0", "0x1.0p+0", "0x1.6d28dc1ed6b12p+0"),
]


def test_extreme_points_pinned_floats():
    got = [(float(v.x_A), float(v.x_B), float(v.x_C), float(v.value))
           for v in extreme_points()]
    assert got == [tuple(map(float.fromhex, row)) for row in PINNED_VERTICES]


def _mp50(x: FieldElt):
    with mpmath.workdps(50):
        s = mpmath.sqrt(mpmath.phi)
        return mpmath.fsum(mpmath.mpf(a.numerator) / a.denominator * s ** i
                           for i, a in enumerate(x))


_coeff = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
_elts = st.builds(FieldElt, st.lists(_coeff, min_size=4, max_size=4))


def _near_zero(x: FieldElt, max_den: int) -> FieldElt:
    """x minus a close rational approximation of it."""
    with mpmath.workdps(50):
        approx = Fraction(mpmath.nstr(_mp50(x), 40))
    return x - approx.limit_denominator(max_den)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _elts,
    st.builds(_near_zero, _elts, st.integers(1, 10 ** 12)),
    st.builds(FieldElt, st.lists(st.integers(-3, 3), min_size=4,
                                 max_size=4)),
))
@example(F_ELL - ELL_Q)
@example(F_S - Fraction(math.sqrt(PHI)))
@example(F_RB * 10 ** 5 - 43935)
@example(FieldElt([0, 0, 0, 0]))
def test_field_sign_and_float_match_50_digits(x):
    ref = _mp50(x)
    if x.is_zero():
        assert ref == 0 and x.sign() == 0 and x == 0
    else:
        assert abs(ref) > mpmath.mpf(10) ** -40
        assert x.sign() == (1 if ref > 0 else -1)
        assert (x > 0) == (ref > 0) and (x < 0) == (ref < 0) and x != 0
    assert float(x) == float(ref)
    assert math.floor(x) == int(mpmath.floor(ref))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _elts,
    st.builds(_near_zero, _elts, st.integers(1, 10 ** 12)),
).filter(lambda x: not x.is_zero()))
@example(F_S)
@example(F_ELL - ELL_Q)
@example(FieldElt([Fraction(-7, 3), 0, 0, 0]))
def test_field_inverse(x):
    assert x * x.inv() == 1
    assert x / x == 1 and 1 / x == x.inv()


def test_field_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldElt([0, 0, 0, 0]).inv()


def test_verify_gap_identities_digits_match_mpmath():
    rep = verify_gap_identities()
    with mpmath.workdps(50):
        want = mpmath.nstr(mpmath.sqrt(mpmath.phi), 50)
    assert rep["sqrt_phi_50_digits"] == want
    assert rep["min_value_50_digits"] == want


def test_cli_runs_without_mpmath_or_sympy():
    """mpmath is a test dependency only: with it unimportable the CLI loads
    and ``gap verify --identities`` passes, and neither it nor sympy loads."""
    code = ("import sys; sys.modules['mpmath'] = None; import bipoint.cli; "
            "loaded = [m for m in ('mpmath', 'sympy') if sys.modules.get(m)]; "
            "code = bipoint.cli.main(['--out', sys.argv[1], 'gap', 'verify', "
            "'--k', '8', '--identities']); print(loaded, code)")
    src = str(Path(golden.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == ["[]", "0"]
