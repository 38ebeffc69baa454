"""The exact chain kernel behind ``run_chains``, ``best_of`` and
``greedy_cover`` against the per-chain ``instantiate`` + ``is_valid`` +
``execute`` loop it replaces; the integer ``enumerate_algm`` against the
per-vector ``Fraction`` one."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipoint
from bipoint import algfamily
from bipoint.algfamily import (
    G_M2,
    G_M3,
    ChainKernel,
    ChainSpec,
    best_of,
    build_partition,
    build_stars,
    builtin_kernels,
    canonical,
    derive_gamma_env,
    enumerate_algm,
    generate_chains,
    greedy_cover,
    instantiate,
    is_valid,
    param_env,
    run_chains,
)
from bipoint.instances import connection_cost_float, synthesize_random_bipoint
from bipoint.tables import builtin_tables, ratio, set_names

import reference_chains

F = Fraction
THRESHOLDS = {"alg1": (), "alg2": G_M2, "alg3": G_M3, "uniform": G_M2}
BIG_B = F(433494437, 701408733)  # consecutive Fibonacci numbers


def check_kernel(kernel, chains, m, env):
    """Kernel values and valid set equal instantiate + is_valid at env;
    returns the number of valid chains."""
    values, valid = kernel.evaluate(env)
    want_valid = []
    for ci, chain in enumerate(chains):
        want = instantiate(chain, env)
        for W, j in zip(set_names(m), kernel.rows[ci]):
            got = values[j]
            if want[W] is None:
                assert got is None, (ci, W, env)
            else:
                n, d = got
                assert d > 0 and F(n, d) == want[W], (ci, W, env)
        if is_valid(want, env, m, tol=0).ok:
            want_valid.append(ci)
    assert valid == want_valid, env
    return len(valid)


def instance_envs(name, seeds):
    """param_env of random instances partitioned as best_of partitions them."""
    for seed in seeds:
        rng = random.Random(seed)
        n1 = rng.randrange(1, 5)
        n2 = n1 + rng.randrange(1, 9)
        sol = synthesize_random_bipoint(rng.randrange(5, 30), n1, n2,
                                        rng.randrange(n1, n2 + 1), seed=seed)
        forest = build_stars(sol)
        if forest.has_secondary:
            yield param_env(sol, build_partition(sol, forest,
                                                 THRESHOLDS[name]))


def grid_envs(m):
    """derive_gamma_env over a grid with empty sets: gA_t = 0, gC2 = 0
    (gA2 = 0, or gA3 >= 1 at m = 3) and gC1 = 0 (gA2 + gA3 >= 1); a b above
    1 leaves mass no chain can place.  300 points of the m = 3 grid."""
    bs = (F(0), F(1, 3), F(1, 2), F(1), F(5, 4), BIG_B)
    gs = (F(0), F(1, 4), F(1, 2), F(2, 3), F(1), F(3, 2))
    points = list(itertools.product(bs, itertools.product(gs, repeat=m)))
    if len(points) > 300:
        points = random.Random(m).sample(points, 300)
    return [derive_gamma_env(b, list(gAs)) for b, gAs in points]


@pytest.mark.parametrize("name", ["alg1", "alg2", "alg3", "uniform"])
def test_kernel_matches_instantiate_and_is_valid(name):
    m, chains = builtin_tables()[name]
    kernel = builtin_kernels()[name]
    assert kernel.m == m and len(kernel.rows) == len(chains)
    envs = list(instance_envs(name, range(40))) + grid_envs(m)
    # a large-denominator b at partition gammas, where sums of products of
    # the scaled values run far past 64 bits
    envs += [{**env, "b": BIG_B} for env in instance_envs(name, range(8))]
    n_valid = sum(check_kernel(kernel, chains, m, env) for env in envs)
    # both outcomes occur, so neither side of the check is vacuous
    assert 0 < n_valid < len(envs) * len(chains)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_matches_on_unfiltered_chains(m):
    """Chains from every start set, structurally valid or not, so that the
    backup and A1/B1 conditions decide validity, not the mass alone."""
    names = set_names(m)
    chains = []
    for start in itertools.combinations(names, m):
        rest = [W for W in names if W not in start]
        for order in (rest, rest[::-1]):
            chains.append(ChainSpec(m, tuple(start), tuple(order)).params())
    kernel = ChainKernel(m, chains)
    envs = grid_envs(m)[:{1: 36, 2: 120, 3: 40}[m]]
    n_valid = sum(check_kernel(kernel, chains, m, env) for env in envs)
    assert 0 < n_valid < len(envs) * len(chains)


def test_kernel_folds_alpha_and_fractional_coefficients():
    """Forms that no built-in table has: a nonzero alpha with a fractional
    coefficient, a constant zero denominator, a negative denominator."""
    chains = [
        {"A1": ratio((F(1, 2), {"b": F(3, 4), "gA1": 1}),
                     (1, {"b": F(2, 3)})),
         "B1": ratio((1, {}), (0, {})), "C1": ratio((0, {"b": 1}), (-1, {}))},
        {"A1": ratio((1, {}), (1, {})), "B1": ratio((0, {"b": 1}), (0, {})),
         "C1": ratio((0, {"b": 1, "gA1": -1}), (0, {"gC1": 1}))},
    ]
    assert chains[0]["A1"].alpha != 0
    kernel = ChainKernel(1, chains)
    for b, g in itertools.product((F(0), F(1, 3), BIG_B, F(1)),
                                  (F(0), F(1, 5), F(1, 2), F(3, 2))):
        env = {"b": b, "gA1": g, "gC1": F(1)}
        check_kernel(kernel, chains, 1, env)


def outcome(runs):
    return [(ci, res.counts, res.slack, sorted(res.open_set.facilities), cost)
            for ci, res, cost in runs]


@pytest.mark.parametrize("name", ["alg1", "alg2", "alg3", "uniform"])
def test_run_chains_matches_per_chain_loop(name):
    m, chains = builtin_tables()[name]
    kernel = builtin_kernels()[name]
    ran = slack = 0
    for seed in range(40):
        rng = random.Random(seed)
        n1 = rng.randrange(2, 5)
        n2 = n1 + rng.randrange(2, 9)
        sol = synthesize_random_bipoint(30, n1, n2, rng.randrange(n1, n2),
                                        seed=seed)
        if seed % 2:
            # p|W| is integral whenever b|C| is, as for every synthesized
            # bi-point solution: another b leaves slack
            sol.b = F(rng.randrange(1, 13), 13)
        forest = build_stars(sol)
        if not forest.has_secondary:
            continue
        part = build_partition(sol, forest, THRESHOLDS[name])
        got = run_chains(sol, part, kernel, random.Random(seed))
        want = reference_chains.run_chains(sol, part, chains,
                                           random.Random(seed))
        assert outcome(got) == outcome(want), seed
        ran += len(got)
        slack += sum(res.slack > 0 for _, res, _ in got)
    assert ran > slack > 0


def test_records_behave_like_the_old_list():
    sols = [synthesize_random_bipoint(30, 3, 9, 5, seed=s) for s in (1, 2)]
    results = [best_of(sol, 0.1, random.Random(7)) for sol in sols]
    for sol, res in zip(sols, results):
        want = reference_chains.best_of_records(sol, 0.1, random.Random(7))
        rec = res.records
        assert len(rec) == len(want) > 1 and rec
        assert list(rec) == want
        assert [rec[i] for i in range(-len(want), len(want))] == want + want
        for sl in (slice(1, None), slice(None, 3), slice(None, None, 2),
                   slice(-2, None), slice(5, 2)):
            assert rec[sl] == want[sl]
        with pytest.raises(IndexError):
            rec[len(want)]
        label, cost, n_open = rec[0]
        assert label == "SR" and type(cost) is float and type(n_open) is int
        assert res.label in {r[0] for r in rec}
    # one label string per table and chain, shared by every result
    first = {r[0]: r[0] for r in results[0].records}
    common = [r[0] for r in results[1].records if r[0] in first]
    assert len(common) > 1 and all(first[lab] is lab for lab in common)


def test_empty_records_are_falsy():
    assert not algfamily.Records(("SR",), [], [], [])


def cli_import_leaves_out(*modules):
    """Whether ``import bipoint.cli`` in a fresh interpreter leaves every
    one of ``modules`` unloaded."""
    src = os.path.dirname(os.path.dirname(bipoint.__file__))
    code = ("import sys, bipoint.cli; "
            f"sys.exit(any(m in sys.modules for m in {modules!r}))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return proc.returncode == 0


def test_cli_import_leaves_scipy_optimize_out():
    """Commands that solve no LP do not pay for loading scipy.optimize."""
    assert cli_import_leaves_out("scipy.optimize")


def test_cli_import_leaves_hashlib_out():
    """Commands that hash no file do not pay for mapping OpenSSL."""
    assert cli_import_leaves_out("hashlib", "_hashlib")


def test_client_arrays_cost_bit_identical():
    """The cached client rows and demand vector give the float cost the
    per-call gather and demand loop gave, bit for bit."""
    import numpy as np

    sol = synthesize_random_bipoint(30, 3, 9, 5, seed=3)
    inst = sol.instance
    inst.demands = {j: F(j % 4 + 1, 3) for j in inst.clients}
    rng = random.Random(0)
    for _ in range(50):
        fac = sorted(rng.sample(inst.facilities, rng.randrange(1, 6)))
        sub = inst.dist_array()[np.ix_(inst.clients, fac)]
        u = np.array([float(inst.demand(j)) for j in inst.clients])
        assert connection_cost_float(inst, fac) == \
            float((u * sub.min(axis=1)).sum())


# --- enumeration and cover ---------------------------------------------------


def assert_same_vectors(got, want):
    """The same dicts in the same order, key order and value types too."""
    assert got == want
    assert [[(W, type(v)) for W, v in d.items()] for d in got] == \
        [[(W, type(v)) for W, v in d.items()] for d in want]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_enumerate_matches_per_vector_loop(m):
    envs = grid_envs(m)[:{1: 36, 2: 60, 3: 12}[m]]
    n = 0
    for env in envs:
        got = enumerate_algm(m, env)
        assert_same_vectors(got, reference_chains.enumerate_algm(m, env))
        n += len(got)
    assert n > len(envs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.fractions(min_value=0, max_value=1, max_denominator=60),
       st.lists(st.fractions(min_value=0, max_value=2, max_denominator=60),
                min_size=3, max_size=3))
def test_enumerate_matches_per_vector_loop_anywhere(m, b, gAs):
    env = derive_gamma_env(b, gAs[:m])
    assert_same_vectors(enumerate_algm(m, env),
                        reference_chains.enumerate_algm(m, env))


@pytest.mark.parametrize("m", [1, 2])
def test_greedy_cover_matches_per_chain_loop(m):
    """The same cover, chain for chain, on seeded universes with empty sets
    and with the pairs of each env scattered through the list."""
    chains = generate_chains(m)
    for seed in range(4):
        rng = random.Random(seed)
        envs = [derive_gamma_env(F(rng.randrange(1, 20), 20),
                                 [F(rng.randrange(0, 40), 20)
                                  for _ in range(m)]) for _ in range(10)]
        new = [(env, canonical(v, env, m)) for env in envs
               for v in enumerate_algm(m, env)]
        old = [(env, reference_chains.canonical_pairs(v, env, m))
               for env in envs for v in reference_chains.enumerate_algm(m, env)]
        order = list(range(len(new)))
        rng.shuffle(order)
        new, old = [new[i] for i in order], [old[i] for i in order]
        got = greedy_cover(chains, new)
        assert got and [c.label() for c in got] == \
            [c.label() for c in reference_chains.greedy_cover(chains, old)]


def test_canonical_is_flat_and_shares_names_and_constants():
    env = derive_gamma_env(F(1, 2), [F(0), F(3, 4)])  # A1 and B1 empty
    values = {"A1": None, "A2": 1, "B1": F(1, 2), "B2": F(1, 3),
              "C1": F(0), "C2": 1.0}
    form = canonical(values, env, 2)
    assert form == (None, 1, None, F(1, 3), 0, 1)
    assert form[1] is form[5] is algfamily.ONE
    assert form[4] is algfamily.ZERO and form[3] is values["B2"]
    assert set_names(2) is set_names(2)
