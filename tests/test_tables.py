"""The built-in chain tables: the (start, order) pairs of alg1-alg3 against
the formula rows they replace, and the validity of every chain they make."""

import random
from fractions import Fraction

import pytest

from bipoint.algfamily import canonical, derive_gamma_env, generate_chains, \
    instantiate, is_valid
from bipoint.tables import CATALOGUE, OPEN, ChainSpec, builtin_tables, \
    read_param, set_names

import reference_tables

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


@pytest.mark.parametrize("name,rows", [("alg2", reference_tables.TABLE_M2),
                                       ("alg3", reference_tables.TABLE_M3)])
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
