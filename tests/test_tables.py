"""The built-in chain tables: their (start, order) pairs against the
formula rows they replace, the validity of every chain they make, and the
one exact backup rule."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from bipoint.algfamily import canonical, derive_gamma_env, generate_chains, \
    instantiate, is_valid
from bipoint.tables import CATALOGUE, OPEN, ChainSpec, _backed_up, _guards, \
    _structurally_valid, builtin_tables, distinct_params, set_names

import reference_tables
from reference_tables import read_param

F = Fraction


def exact_points(m, n, seed):
    """n points of the domain as derive_gamma_env builds them: b in [0, 1],
    each gA_t 0 (an empty A_t and B_t), 1, or a fraction up to 3/2, so that
    b falls on both sides of gA1 and some C_t are empty (gC1 = 0 where
    gA2 + gA3 >= 1)."""
    rng = random.Random(seed)

    def draw(top):
        roll = rng.random()
        return F(0) if roll < 0.15 else F(1) if roll < 0.25 else \
            F(rng.randrange(1, top), 60)

    return [derive_gamma_env(draw(61), [draw(91) for _ in range(m)])
            for _ in range(n)]


def typed_chains(rows, m):
    return [{W: read_param(f) for W, f in zip(set_names(m), row)}
            for row in rows]


@pytest.mark.parametrize("name,rows", [
    ("alg2", reference_tables.TABLE_M2),
    ("alg3", reference_tables.TABLE_M3),
    ("uniform", reference_tables.TABLE_UNIFORM),
])
def test_pairs_give_the_typed_parameters(name, rows):
    m, chains = builtin_tables()[name]
    want = typed_chains(rows, m)
    assert len(chains) == len(want)
    if name == "alg2":
        # the typed (b + gA2)/gC2 is >= 1 wherever C2 is nonempty, as
        # gC2 <= gA2; the chain opens C2 fully
        assert want[8]["C2"] == read_param("(b + gA2) / gC2")
        want[8]["C2"] = OPEN
    for ci, (got, typed) in enumerate(zip(chains, want)):
        assert got == typed, (name, ci)


def test_alg1_is_the_generated_chains():
    assert [ChainSpec(1, *pair) for pair in CATALOGUE["alg1"].rows] == \
        generate_chains(1)


def test_alg1_gives_the_typed_vectors_valid_at_each_point():
    """Of the typed rows, those valid at a point give the vectors of the
    four chains there, on both sides of b = gA1 and on it."""
    typed = typed_chains(reference_tables.TABLE_M1, 1)
    chains = builtin_tables()["alg1"][1]
    points = exact_points(1, 376, 11)
    points += [derive_gamma_env(b, [b]) for b in (F(0), F(1, 3), F(1))]
    points += [derive_gamma_env(F(1, 2), [g]) for g in
               (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(10 ** 12))]
    points += [derive_gamma_env(F(k, 11), [F(k + d, 11)])
               for k in range(1, 6) for d in (-1, 0, 1)]
    assert len(points) == 400
    sides = {(env["b"] > env["gA1"]) - (env["b"] < env["gA1"])
             for env in points if env["gA1"] > 0}
    assert sides == {-1, 0, 1}
    for env in points:
        want = set()
        for params in typed:
            values = instantiate(params, env)
            if is_valid(values, env, 1, tol=0).ok:
                want.add(canonical(values, env, 1))
        got = {canonical(instantiate(p, env), env, 1) for p in chains}
        assert got == want, env


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_chain_is_valid_everywhere(m):
    """Each chain of the m-level alg table, and each generated chain at
    m <= 2, places exactly the mass at every point, gA1 > 0 included: a
    parameter folded to 0 that should not be would come up short."""
    chains = [chain for name, (tm, table) in builtin_tables().items()
              if name != "uniform" and tm == m for chain in table]
    if m < 3:
        chains += [c.params() for c in generate_chains(m)]
    points = exact_points(m, 300, m)
    assert sum(env["gA1"] > 0 for env in points) > 200
    for env in points:
        for ci, params in enumerate(chains):
            rep = is_valid(instantiate(params, env), env, m, tol=0)
            assert rep.ok, (m, ci, env, rep.violations)


@pytest.mark.parametrize("formula", ["min(b, 1)", "b * gA2", "0.5 * b",
                                     "b / gA2 / gA2"])
def test_read_param_rejects_what_is_not_linear_fractional(formula):
    with pytest.raises(ValueError, match=re.escape(repr(formula))):
        read_param(formula)


def test_uniform_is_valid_exactly_where_level_1_is_empty():
    """No uniform pair places A1 or B1, so its chains leave gA1 out of the
    mass: each is valid at every point with gA1 = 0 and at none with
    gA1 > 0."""
    chains = builtin_tables()["uniform"][1]
    points = exact_points(2, 400, 5)
    empty = [dict(env, gA1=F(0)) for env in points]
    filled = [env if env["gA1"] > 0 else dict(env, gA1=F(1, 7))
              for env in points]
    for env in empty:
        for ci, params in enumerate(chains):
            rep = is_valid(instantiate(params, env), env, 2, tol=0)
            assert rep.ok, (ci, env, rep.violations)
    for env in filled:
        for ci, params in enumerate(chains):
            assert not is_valid(instantiate(params, env), env, 2, tol=0).ok, \
                (ci, env)


def test_uniform_breakpoints_leave_gA1_out():
    """breakpoints_b takes the mass params uses: at gA1 > 0, some parameter
    of a uniform chain reaches 0 or 1 at each breakpoint."""
    env = derive_gamma_env(F(1, 2), [F(1, 5), F(1, 3)])
    eps = F(1, 1000)
    found = 0
    for start, order in CATALOGUE["uniform"].rows:
        chain = ChainSpec(2, start, order)
        for p in chain.breakpoints_b(env):
            pinned = [{W for W, v in instantiate(chain.params(),
                                                 dict(env, b=b)).items()
                       if v in (0, 1)} for b in (p - eps, p + eps)]
            assert pinned[0] != pinned[1], (chain.label(), p)
            found += 1
    assert found >= 14


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_every_start_keeps_the_backup_rules_of_its_setting(name):
    """The start sets of each pair keep the rules of ``_guards`` where the
    sets of the levels the pair does not place are empty."""
    m = CATALOGUE[name].m
    names = set_names(m)
    for start, order in CATALOGUE[name].rows:
        levels = ChainSpec(m, start, order).levels()
        size = [0 if W[0] in "AB" and int(W[1:]) not in levels else 1
                for W in names]
        ones = sum(1 << names.index(W) for W in start)
        assert _backed_up(ones, _guards(size, m)), (name, start, order)


def _old_structural_rule(start, m):
    """The backup rule as it was spelled by set names: A1 or B1 open, and
    at each level t, A_t open, or every B_s (s <= t), or every C_s
    (s >= t)."""
    s = set(start)
    if "A1" not in s and "B1" not in s:
        return False
    return all(f"A{t}" in s or all(f"B{u}" in s for u in range(1, t + 1))
               or all(f"C{u}" in s for u in range(t, m + 1))
               for t in range(1, m + 1))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_structurally_valid_is_the_old_rule(m):
    starts = list(itertools.combinations(set_names(m), m))
    got = [_structurally_valid(start, m) for start in starts]
    assert got == [_old_structural_rule(start, m) for start in starts]
    assert any(got) and not all(got)


@pytest.mark.parametrize("name,distinct,total", [
    ("alg1", 5, 12), ("alg2", 14, 60), ("alg3", 68, 261), ("uniform", 15, 84)])
def test_distinct_params_of_the_builtin_tables(name, distinct, total):
    """Each table's parameters, deduplicated exactly, in order of first use
    and indexed back from every (chain, set)."""
    m, chains = builtin_tables()[name]
    params, rows = distinct_params(chains, m)
    assert (len(params), sum(map(len, rows))) == (distinct, total)
    assert len(set(params)) == len(params)
    flat = [j for row in rows for j in row]
    assert [flat.index(j) for j in range(len(params))] == \
        sorted(flat.index(j) for j in range(len(params)))
    assert [[params[j] for j in row] for row in rows] == \
        [[chain[W] for W in set_names(m)] for chain in chains]
