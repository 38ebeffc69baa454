"""End-to-end acceptance checks: reference values, statistical guarantees and
soundness invariants for every component, each with a wall-clock budget."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bipoint import algfamily, golden, nlp
from bipoint.algfamily import (
    G_M2,
    best_of,
    canonical,
    derive_gamma_env,
    enumerate_algm,
    execute,
    generate_chains,
    greedy_cover,
    instantiate,
    is_valid,
    param_env,
)
from bipoint.cli import main
from bipoint.instances import (
    connection_cost,
    connection_cost_float,
    synthesize_random_bipoint,
)
from bipoint.partition import build_partition, build_stars
from bipoint.rounding import fractional_budget, sr_cost_bound, srdr, star_round
from bipoint.tables import builtin_tables, set_names
from reference_trees import as_tree, interval_env

F = Fraction
PHI = (1 + math.sqrt(5)) / 2


class Budget:
    """Asserts a wall-clock limit on exit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, \
                f"took {elapsed:.1f}s, budget {self.limit}s"


def test_01_golden_validity_and_unit_cost(capsys):
    with Budget(30):
        code = main(["gap", "verify", "--k", "10000"])
        rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["checks"] == {
        "a_plus_b_equals_1": True,
        "F1_at_most_k": True,
        "F2_at_least_k": True,
        "mass_equals_k": True,
    }
    assert rep["cost_dev"] <= 10.0 / 10000
    # the identities are exact rational equalities, not float comparisons
    summary = golden.gap_summary(10000)
    assert all(v is True for v in summary["checks"].values())


def test_02_golden_gap_value():
    with Budget(1):
        verts = golden.extreme_points()
        rep = golden.verify_gap_identities()
    assert len(verts) == 5
    vals = sorted(float(v.value) for v in verts)
    sqrt_phi = math.sqrt(PHI)
    for v in vals[:4]:
        assert abs(v - sqrt_phi) < 1e-12
    assert abs(vals[4] - (3 / PHI + 2 / sqrt_phi - 2)) < 1e-12
    assert rep["phi_quadratic"] is True  # phi^2 - phi - 1 = 0 in the field
    assert rep["n_vertices"] == 5 and rep["n_at_sqrt_phi"] == 4
    assert rep["min_is_sqrt_phi"] is True
    assert rep["sqrt_phi_50_digits"] == rep["min_value_50_digits"]


def test_03_brute_force_dominance():
    with Budget(300):
        for k in (6, 8, 10):
            sol = golden.build_golden(k)
            inst = sol.instance
            open_set, cost = golden.brute_force_opt(inst)
            bound = golden.rational_vertex_bound(golden.golden_constants(k))
            assert cost >= bound, (k, cost, bound)
            # the float scan can only mislead among near-ties: re-cost every
            # subset within 1e-9 of the float minimum exactly
            fac = sorted(inst.facilities)
            subsets = np.array(list(itertools.combinations(fac, k)))
            D = inst.dist_array()[inst.clients]
            u = np.array([float(inst.demand(j)) for j in inst.clients])
            floats = u @ D[:, subsets].min(axis=2)
            near_ties = subsets[floats <= floats.min() + 1e-9]
            assert min(connection_cost(inst, frozenset(S.tolist()))
                       for S in near_ties) == cost
            n_subsets = math.comb(len(inst.facilities), k)
            assert n_subsets == sum(
                1 for _ in itertools.combinations(inst.facilities, k))


def test_04_hard_point_reference_value():
    with Budget(1):
        model, env, profile = nlp.preset_hard_point_s3()
        rep = nlp.evaluate_point(model, env, profile)
    assert rep.objective == pytest.approx(1.2943, abs=5e-4)
    assert rep.sr_value == pytest.approx(1.2944, abs=1e-4)
    assert "SR" in rep.tight


def test_05_m1_point_feasible():
    target = (1 + math.sqrt(3)) / 2
    with Budget(1):
        model, env, profile = nlp.preset_m1_feasible()
        rep = nlp.evaluate_point(model, env, profile, X=target, tol=1e-6)
    assert rep.feasible, rep.violations
    assert abs(rep.objective - target) < 1e-9


def test_06_desk_scale_certificate(capsys):
    with Budget(15 * 60):
        code = main(["bound", "--m", "2", "--g", "0.6586",
                     "--target", "1.35", "--budget-boxes", "200000"])
        rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["status"] == "certified"
    assert rep["boxes_processed"] <= 200000


def test_07_star_rounding_guarantees():
    eps = 0.1
    t = fractional_budget(eps)
    assert t == 26
    trials = 10 ** 4
    with Budget(10 * 60):
        for idx in range(20):
            sol = synthesize_random_bipoint(
                n_clients=20, n_f1=3, n_f2=9, k=5, seed=1000 + idx)
            cap = sol.instance.k + 2 * t
            rng = random.Random(idx)
            costs = []
            for _ in range(trials):
                open_set = star_round(sol, eps, rng)
                assert len(open_set) <= cap
                costs.append(connection_cost_float(
                    sol.instance, open_set.facilities))
            mean = sum(costs) / trials
            var = sum((c - mean) ** 2 for c in costs) / (trials - 1)
            bound = float(sr_cost_bound(sol, eps))
            assert mean <= bound + 3 * math.sqrt(var / trials), (idx, mean)


def test_08_dependent_rounding_contract():
    eps = 0.1
    t = fractional_budget(eps)
    n = 30
    weights = [F(1)] * n
    calls_per_b = 25000
    with Budget(5 * 60):
        for b in (F(5, 100), F(1, 2), F(673, 1000), F(95, 100)):
            rng = random.Random(int(b * 1000))
            target = sum(weights) * b
            stats = []
            for _ in range(calls_per_b):
                res = srdr([b] * n, weights, t, rng)
                assert sum(w * v for w, v in zip(weights, res.X)) == target
                assert res.fractional_count <= t
                xs = [float(v) for v in res.X]
                S = sum(xs)
                Q = sum(v * v for v in xs)
                # mean of X_i (1 - X_j) over ordered pairs i != j
                stats.append((S * (n - 1) - S * S + Q) / (n * (n - 1)))
            mean = sum(stats) / len(stats)
            var = sum((s - mean) ** 2 for s in stats) / (len(stats) - 1)
            sem = math.sqrt(var / len(stats))
            bf = float(b)
            assert mean <= (1 + eps) * bf * (1 - bf) + 3 * sem, (b, mean)


def test_09_execution_structure():
    tabs = builtin_tables()
    m, chains = tabs["alg2"]
    executions = 0
    slack_hits = 0
    with Budget(10 * 60):
        idx = 0
        while executions < 10 ** 4:
            idx += 1
            sol = synthesize_random_bipoint(
                n_clients=25, n_f1=3, n_f2=9, k=5, seed=2000 + idx)
            forest = build_stars(sol)
            if not forest.has_secondary:
                continue
            part = build_partition(sol, forest, G_M2)
            env = param_env(sol, part)
            rng = random.Random(idx)
            valid = [instantiate(p, env) for p in chains]
            valid = [v for v in valid if is_valid(v, env, m).ok]
            if not valid:
                continue
            for _ in range(40):
                vals = valid[rng.randrange(len(valid))]
                res = execute(vals, part, rng)
                executions += 1
                opened = res.open_set.facilities
                n_open = sum(res.counts.values())
                k = sol.instance.k
                assert n_open in (k, k - 1)
                if n_open == k - 1:
                    assert res.slack > 0
                    slack_hits += 1
                else:
                    assert res.slack == 0
                for t, At in enumerate(part.A, start=1):
                    for i in At:
                        assert {i, forest.sigmaB[i],
                                forest.sigmaC[i]} & opened, (idx, t, i)
                        if t == 1:
                            assert {i, forest.sigmaB[i]} & opened
    print(f"\nexecutions={executions} slack_rate={slack_hits / executions:.4f}")


def test_10_chain_coverage():
    chains = generate_chains(2)
    gA1 = F(1, 2)
    gammas = [F(j, 10) for j in range(1, 21)]
    bs = [F(i, 21) for i in range(1, 21)]
    envs = []
    for g2 in gammas:
        for b in bs:
            envs.append(derive_gamma_env(b, [gA1, g2]))
        # transition points of every chain at this gamma column
        probe = derive_gamma_env(F(1, 2), [gA1, g2])
        pts = set()
        for c in chains:
            pts.update(c.breakpoints_b(probe))
        for p in pts:
            envs.append(derive_gamma_env(p, [gA1, g2]))

    params = [c.params() for c in chains]
    universe = []
    with Budget(10 * 60):
        for env in envs:
            # instantiate chains lazily; most vectors match an early chain
            cans = set()
            it = iter(params)
            for spec in enumerate_algm(2, env):
                want = canonical(spec, env, 2)
                while want not in cans:
                    p = next(it, None)
                    if p is None:
                        break
                    cans.add(canonical(instantiate(p, env), env, 2))
                assert want in cans, (env["b"], env["gA2"], want)
                universe.append((env, want))
        cover = greedy_cover(chains, universe)
        by_env = {}
        for env, can in universe:
            by_env.setdefault(id(env), (env, set()))[1].add(can)
        cover_params = [c.params() for c in cover]
        for env, wanted in by_env.values():
            got = {canonical(instantiate(p, env), env, 2)
                   for p in cover_params}
            assert wanted <= got
    print(f"\ngrid points={len(envs)} vectors={len(universe)} "
          f"greedy_cover={len(cover)} (published hand cover: 22)")


def test_11_end_to_end_ratio():
    eps = 0.1
    threshold = 1.3064 * (1 + eps)
    rng = random.Random(0)
    with Budget(15 * 60):
        for idx in range(100):
            sol = synthesize_random_bipoint(
                n_clients=30, n_f1=3, n_f2=9, k=5, seed=3000 + idx)
            res = best_of(sol, eps, rng)
            ratio = res.cost / float(sol.cost)
            assert ratio <= threshold, (idx, ratio)


def rand_box(rng, m):
    box = {"b": tuple(sorted([rng.uniform(0, 1), rng.uniform(0, 1)]))}
    for t in range(2, m + 1):
        if rng.random() < 0.2:
            box[f"gA{t}"] = (nlp.TAIL_N, math.inf)
        else:
            box[f"gA{t}"] = tuple(sorted([rng.uniform(0, 2),
                                          rng.uniform(0, 2)]))
    return box


def rand_interior(rng, box):
    pt = {}
    for var, (lo, hi) in box.items():
        pt[var] = lo + rng.expovariate(1.0) if math.isinf(hi) else \
            lo + rng.random() * (hi - lo)
    return pt


def test_12_soundness_suites():
    rng = random.Random(42)
    cases = 0
    violations = []
    with Budget(5 * 60):
        # derived gamma fractions: interval recurrence encloses the exact one
        for m in (2, 3):
            for _ in range(500):
                box = rand_box(rng, m)
                ienv = interval_env(box, m)
                pt = rand_interior(rng, box)
                exact = derive_gamma_env(
                    F(pt["b"]),
                    [F(0)] + [F(pt[f"gA{t}"]) for t in range(2, m + 1)])
                for t in range(1, m + 1):
                    cases += 1
                    if not ienv[f"gC{t}"].contains(float(exact[f"gC{t}"]),
                                                   slack=1e-9):
                        violations.append(("gamma", m, t, box))

        # every chain parameter's interval enclosure contains its exact value
        plans = (("alg2", 2, 200), ("alg3", 3, 300), ("uniform", 2, 200))
        for table, m, n_boxes in plans:
            g = [F(6586, 10000)] if m == 2 else [F(642, 1000), F(833, 1000)]
            model = nlp.model_for_table(table, g)
            for _ in range(n_boxes):
                box = rand_box(rng, m)
                ienv = interval_env(box, m)
                pt = rand_interior(rng, box)
                env = derive_gamma_env(
                    F(pt["b"]),
                    [F(0)] + [F(pt[f"gA{t}"]) for t in range(2, m + 1)])
                fenv = {k: float(v) for k, v in env.items()}
                # the batched bounds branch-and-bound uses; (1, 0) is their
                # empty marker
                p0, p1 = nlp.chain_bounds(model.chain_table,
                                          nlp.gamma_intervals(box, m))
                for i, params in enumerate(model.chains):
                    vals = instantiate(params, fenv)
                    for j, W in enumerate(set_names(m)):
                        cases += 1
                        v = vals[W]
                        enc = as_tree(params[W]).box(ienv)
                        if v is None:
                            continue
                        if not enc.empty and not enc.contains(v, slack=1e-7):
                            violations.append((table, W, box, pt))
                        if p0[i, j] > p1[i, j]:
                            continue
                        cases += 1
                        if not p0[i, j] - 1e-7 <= v <= p1[i, j] + 1e-7:
                            violations.append(("batched", table, i, W, box, pt))

        # the linear relaxation admits every true normalized cost profile
        model = nlp.model_for_table("alg2", [F(6586, 10000)])
        for _ in range(40):
            box = rand_box(rng, 2)
            lp = nlp.relax_to_lp(model, [
                nlp._box_key(box, model.box_vars())])[0]
            pt = rand_interior(rng, box)
            env = derive_gamma_env(F(pt["b"]), [F(0), F(pt["gA2"])])
            fenv = {k: float(v) for k, v in env.items()}
            b = pt["b"]
            D2 = rng.random()
            D1 = (1 - b * D2) / (1 - b) if b < 1 else D2
            if D1 < D2:
                continue
            sizes = {1: env["gA1"], 2: env["gA2"]}
            csizes = {1: env["gC1"], 2: env["gC2"]}
            keys = [(z, x, y) for z in "BC" for x in (1, 2) for y in (1, 2)
                    if sizes[x] > 0 and
                    (csizes[y] if z == "C" else sizes[y]) > 0]
            if not keys:
                continue
            w = [rng.random() for _ in keys]
            tw = sum(w)
            profile = {key: (D1 * wi / tw, D2 * wi / tw)
                       for key, wi in zip(keys, w)}
            rep = nlp.evaluate_point(model, fenv, profile, tol=1e-6)
            if not rep.costs:
                continue
            x = {"X": min(rep.objective, nlp.X_CAP), "D1": D1, "D2": D2}
            for (z, xx, yy), (d1, d2) in profile.items():
                x[f"D_{z}1_{xx}{yy}"] = d1
                x[f"D_{z}2_{xx}{yy}"] = d2
            vec = [x.get(name, 0.0) for name in nlp.lp_columns(model.m)]
            for row, lo, hi in zip(lp.A, lp.row_lower, lp.row_upper):
                cases += 1
                if not lo - 1e-7 <= sum(r * v for r, v in zip(row, vec)) \
                        <= hi + 1e-7:
                    violations.append(("lp-row", box, pt))

    assert cases >= 10 ** 5, cases
    assert violations == []
