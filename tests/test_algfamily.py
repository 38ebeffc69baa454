"""Validity, enumeration, chains, execution and cost bounds of the
partition-hierarchy rounding family."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipoint import algfamily
from bipoint.algfamily import (
    G_M2,
    ChainSpec,
    best_of,
    canonical,
    derive_gamma_env,
    enumerate_algm,
    execute,
    generate_chains,
    greedy_cover,
    instantiate,
    is_valid,
    iterative_addition,
    mass_target,
    param_env,
)
from bipoint.instances import connection_cost_float, synthesize_random_bipoint
from bipoint.nlp import point_costs, threshold_floats
from bipoint.partition import build_partition, build_stars, class_aggregates, \
    classify_clients
from bipoint.tables import builtin_tables, set_names

F = Fraction


def env_m1(b=F(1, 2), gA1=F(2, 3)):
    return derive_gamma_env(b, [gA1])


def test_derive_gamma_recurrence():
    env = derive_gamma_env(F(1, 2), [F(1, 4), F(3, 5)])
    assert env["gC2"] == F(3, 5)
    assert env["gC1"] == F(2, 5)
    # gC_m saturates at 1 and lower levels get nothing
    env = derive_gamma_env(F(1, 2), [F(1, 4), F(7, 5)])
    assert env["gC2"] == 1 and env["gC1"] == 0
    env = derive_gamma_env(F(1, 2), [F(1, 2), F(1, 3), F(4, 5)])
    assert env["gC3"] == F(4, 5)
    assert env["gC2"] == F(1, 5)
    assert env["gC1"] == 0
    assert sum(env[f"gC{t}"] for t in (1, 2, 3)) == 1


def test_is_valid_mass_and_range():
    env = env_m1()
    T = mass_target(env, 1)  # 2/3 + 1/2 = 7/6
    assert T == F(7, 6)
    good = {"A1": F(1), "B1": F(0), "C1": T - F(2, 3)}
    assert is_valid(good, env, 1).ok
    bad_mass = {"A1": F(1), "B1": F(0), "C1": F(0)}
    assert not is_valid(bad_mass, env, 1).ok
    bad_range = {"A1": F(1), "B1": F(-1, 2), "C1": T - F(2, 3) + F(1, 3)}
    assert not is_valid(bad_range, env, 1).ok


def test_is_valid_guard_properties():
    env = env_m1(b=F(1, 2), gA1=F(1, 2))
    # neither A1 nor B1 fully open
    vals = {"A1": F(0), "B1": F(1, 2), "C1": F(3, 4)}
    rep = is_valid(vals, env, 1)
    assert not rep.ok and any("A1" in v or "B1" in v for v in rep.violations)


def test_is_valid_empty_sets_are_vacuous():
    # A1 empty: property 4 does not apply, C-side guard carries level 2
    env = derive_gamma_env(F(17, 25), [F(0), F(3739, 5000)])
    vals = {"A1": F(0), "A2": F(0), "B1": F(0), "B2": F(1),
            "C1": None, "C2": None}
    env2 = dict(env)
    # force both C levels nonempty for the guard check
    assert env["gC2"] > 0
    vals = {"A1": None, "A2": F(1), "B1": None, "B2": F(1),
            "C1": F(0), "C2": F(0)}
    # mass: (1+1)*gA2 must equal gA2 + b, so this is only a structure check
    rep = is_valid(vals, env2, 2)
    assert all("nonempty" not in v for v in rep.violations)


def test_enumerate_m1_published_count():
    """Twelve sign patterns collapse to five conditionally valid vectors; at
    a generic point with gA1 > b exactly 3 are simultaneously valid."""
    env = env_m1(b=F(1, 2), gA1=F(2, 3))
    specs = enumerate_algm(1, env)
    cans = {canonical(v, env, 1) for v in specs}
    assert len(specs) == len(cans)
    # A_3 needs gA1 <= b, A_4/A_5 need gA1 >= b; here gA1 > b
    # (p_A1, p_B1, p_C1)
    want = {
        (F(0), F(1), F(1, 2)),
        (F(1), F(0), F(1, 2)),
        (F(3, 4), F(1), F(0)),
        (F(1), F(3, 4), F(0)),
    }
    assert cans == want

    env = env_m1(b=F(2, 3), gA1=F(1, 2))  # now gA1 < b: A_3 joins, A_4/A_5 pin
    cans = {canonical(v, env, 1) for v in enumerate_algm(1, env)}
    assert (F(1), F(1), F(1, 6)) in cans


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=19), st.integers(min_value=1, max_value=39),
       st.integers(min_value=0, max_value=39))
def test_enumerate_m2_all_valid_and_exact(bn, g2n, g2d_extra):
    b = F(bn, 20)
    gA2 = F(g2n, 20)
    env = derive_gamma_env(b, [F(1 + g2d_extra, 40), gA2])
    for vals in enumerate_algm(2, env):
        rep = is_valid(vals, env, 2, tol=0)
        assert rep.ok, rep.violations
        fracs = [v for v in vals.values() if v not in (0, 1)]
        assert len(fracs) <= 1


def test_chain_params_mass_identity():
    """A chain instantiation absorbs the full mass: at every sampled point
    where it gives every nonempty set a value, the weighted sum over the
    nonempty sets equals the target exactly."""
    chains = generate_chains(2)
    assert chains
    rng = random.Random(4)
    for _ in range(3000):
        b = F(rng.randrange(1, 20), 20)
        env = derive_gamma_env(b, [F(rng.randrange(0, 30), 20),
                                   F(rng.randrange(1, 30), 20)])
        chain = rng.choice(chains)
        vals = instantiate(chain.params(), env)
        nonempty = [W for W in vals if algfamily.set_size(W, env) > 0]
        if any(vals[W] is None for W in nonempty):
            continue
        lhs = sum(vals[W] * algfamily.set_size(W, env) for W in nonempty)
        assert lhs == mass_target(env, 2), (chain.label(), env)


def test_structural_filter():
    assert algfamily._structurally_valid(("A1", "A2"), 2)
    assert algfamily._structurally_valid(("B1", "B2"), 2)
    assert algfamily._structurally_valid(("B1", "C2"), 2)
    assert not algfamily._structurally_valid(("C1", "C2"), 2)  # A1/B1 guard
    assert not algfamily._structurally_valid(("A1", "B2"), 2)  # level 2 bare


def test_generate_chains_counts():
    assert len(generate_chains(1)) == 4
    chains2 = generate_chains(2)
    # 5 structurally valid start pairs x 4! orderings, no formula duplicates
    assert len(chains2) == 120
    labels = {c.label() for c in chains2}
    assert len(labels) == len(chains2)
    # the gA1 parameters that fold to 0 make formula duplicates at m = 3
    assert len(generate_chains(3)) == 5616


def test_breakpoints_are_transition_points():
    env = derive_gamma_env(F(1, 2), [F(1, 4), F(1, 2)])
    chain = generate_chains(2)[0]
    pts = chain.breakpoints_b(env)
    assert all(0 < p < 1 for p in pts)
    eps = F(1, 1000)
    for p in pts:
        envs = [dict(env, b=p - eps), dict(env, b=p + eps)]
        vs = [instantiate(chain.params(), e) for e in envs]
        assert vs[0] != vs[1]  # some parameter moved across the breakpoint


def test_greedy_cover_covers():
    chains = generate_chains(2)
    rng = random.Random(0)
    universe = []
    for _ in range(30):
        b = F(rng.randrange(1, 20), 20)
        env = derive_gamma_env(b, [F(rng.randrange(1, 40), 20),
                                   F(rng.randrange(1, 40), 20)])
        for spec in enumerate_algm(2, env):
            universe.append((env, canonical(spec, env, 2)))
    cover = greedy_cover(chains, universe)
    assert cover
    cover_params = [c.params() for c in cover]
    reached = {}  # id(env) -> canonical forms of the cover's chains there
    for env, can in universe:
        if id(env) not in reached:
            reached[id(env)] = [canonical(instantiate(p, env), env, 2)
                                for p in cover_params]
        assert any(form == can for form in reached[id(env)])


def test_iterative_addition_monotone():
    chains = generate_chains(1)

    def objective(subset):
        # toy objective: distance of the subset size from 3
        return abs(len(subset) - 3)

    out = iterative_addition(chains, objective)
    assert len(out) == 3


def make_partitioned(seed=5):
    sol = synthesize_random_bipoint(20, 3, 9, 5, seed=seed)
    forest = build_stars(sol)
    part = build_partition(sol, forest, G_M2)
    return sol, forest, part


def test_execute_opens_k_for_enumerated_vectors():
    sol, forest, part = make_partitioned()
    env = param_env(sol, part)
    rng = random.Random(1)
    specs = enumerate_algm(2, env)
    assert specs
    for vals in specs:
        res = execute(vals, part, rng)
        assert res.slack == 0
        assert len(res.open_set) <= sol.instance.k
        assert sum(res.counts.values()) == sol.instance.k


def test_execute_flags_slack_on_non_integral_mass():
    sol, forest, part = make_partitioned()
    vals = {W: F(1, 3) for W in set_names(2)}
    res = execute(vals, part, random.Random(0))
    assert res.slack > 0


def test_execute_backup_invariant():
    """For every i in A at least one of {i, sigmaB(i), sigmaC(i)} is open,
    and for i in A_1 one of {i, sigmaB(i)}, whenever the vector is valid."""
    sol, forest, part = make_partitioned(seed=8)
    env = param_env(sol, part)
    rng = random.Random(2)
    for vals in enumerate_algm(2, env):
        for _ in range(20):
            res = execute(vals, part, rng)
            opened = res.open_set.facilities
            for t, At in enumerate(part.A):
                for i in At:
                    witnesses = {i, forest.sigmaB[i], forest.sigmaC[i]}
                    assert witnesses & opened, (t, i, vals)


def test_cost_bound_dominates_monte_carlo():
    """The closed-form bound upper-bounds the empirical mean cost."""
    sol, forest, part = make_partitioned(seed=12)
    env = param_env(sol, part)
    classified = classify_clients(sol, forest, part)
    profile = class_aggregates(sol.instance, classified, part.m)
    thresholds = threshold_floats([0] + [float(g) for g in G_M2] + [1])
    rng = random.Random(3)
    for vals in enumerate_algm(2, env):
        bound = float(point_costs([vals], env, thresholds, 2, profile)[0])
        costs = []
        for _ in range(150):
            res = execute(vals, part, rng)
            if res.open_set.facilities:
                costs.append(connection_cost_float(
                    sol.instance, res.open_set.facilities))
        if not costs:
            continue
        mean = sum(costs) / len(costs)
        sd = math.sqrt(sum((c - mean) ** 2 for c in costs)
                       / max(1, len(costs) - 1))
        assert mean <= bound + 3 * sd / math.sqrt(len(costs)) + 1e-9


def test_best_of_returns_cheapest_record():
    sol = synthesize_random_bipoint(25, 3, 9, 5, seed=4)
    res = best_of(sol, 0.1, random.Random(0))
    assert res.records
    assert res.cost == pytest.approx(min(c for _, c, _ in res.records))
    assert len(res.open_set) >= 1


def test_builtin_tables_shapes():
    tabs = builtin_tables()
    assert {n: m for n, (m, _) in tabs.items()} == \
        {"alg1": 1, "alg2": 2, "alg3": 3, "uniform": 2}
    assert len(tabs["alg1"][1]) == 4
    assert len(tabs["alg2"][1]) == 10
    assert len(tabs["alg3"][1]) == 29
    assert len(tabs["uniform"][1]) == 14
