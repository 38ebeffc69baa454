"""The per-chain loop that ``algfamily.run_chains`` replaces: instantiate,
check and execute each chain on its own, in ``Fraction`` arithmetic; and the
record list ``best_of`` built with it.  The references ``run_chains`` and
``best_of``'s records are checked against.  Likewise the per-vector
``enumerate_algm`` and the per-chain ``greedy_cover`` that the integer ones
replace."""

import itertools
from fractions import Fraction

from bipoint.algfamily import G_M2, G_M3, build_partition, build_stars, \
    execute, instantiate, is_valid, mass_target, param_env, set_size
from bipoint.instances import connection_cost_float
from bipoint.rounding import star_round
from bipoint.tables import builtin_tables, set_names


def run_chains(sol, part, chains, rng):
    """(chain index, ExecutionResult, connection cost) for each chain of
    ``chains`` (dicts of ``LinFrac``) valid at the solution's parameters
    whose execution opens a facility, in chain order."""
    env = param_env(sol, part)
    out = []
    for ci, params in enumerate(chains):
        values = instantiate(params, env)
        if not is_valid(values, env, part.m).ok:
            continue
        res = execute(values, part, rng)
        if not res.open_set.facilities:
            continue
        out.append((ci, res, connection_cost_float(sol.instance,
                                                   res.open_set.facilities)))
    return out


def best_of_records(sol, eps, rng):
    """The (label, cost, n_open) list of ``best_of`` at its default
    thresholds, one label string made per record."""
    sr = star_round(sol, eps, rng)
    records = [("SR", connection_cost_float(sol.instance, sr.facilities),
                len(sr))]
    forest = build_stars(sol)
    if forest.has_secondary:
        tables = builtin_tables()
        for name, th in (("alg1", ()), ("alg2", G_M2), ("alg3", G_M3),
                         ("uniform", G_M2)):
            part = build_partition(sol, forest, th)
            for ci, res, cost in run_chains(sol, part, tables[name][1], rng):
                records.append((f"{name}[{ci}]", cost, len(res.open_set)))
    return records


# --- enumeration and cover, one vector and one chain at a time --------------


def canonical_pairs(values, env, m):
    """The (set name, Fraction) pairs of a vector over its nonempty sets: the
    hashable form the per-vector enumeration and cover compare."""
    out = []
    for W in set_names(m):
        if set_size(W, env) > 0:
            v = values[W]
            out.append((W, Fraction(v) if not isinstance(v, Fraction) else v))
    return tuple(out)


def enumerate_algm(m, env):
    """``algfamily.enumerate_algm`` in ``Fraction`` arithmetic: every 0/1
    pattern and each one-fractional variant checked by ``is_valid`` at tol 0,
    deduplicated on ``canonical_pairs``."""
    names = set_names(m)
    sizes = {W: Fraction(set_size(W, env)) for W in names}
    T = Fraction(mass_target(env, m))
    seen = {}

    def consider(values):
        if is_valid(values, env, m, tol=0).ok:
            seen.setdefault(canonical_pairs(values, env, m), dict(values))

    for bits in itertools.product((Fraction(0), Fraction(1)),
                                  repeat=len(names)):
        values = dict(zip(names, bits))
        if sum(values[W] * sizes[W] for W in names) == T:
            consider(values)
        for V in names:
            if sizes[V] == 0:
                continue
            rest = sum(values[W] * sizes[W] for W in names if W != V)
            pv = (T - rest) / sizes[V]
            if 0 <= pv <= 1:
                consider({**values, V: pv})
    return list(seen.values())


def greedy_cover(chains, universe):
    """``algfamily.greedy_cover`` with every chain instantiated at every env
    and compared on ``canonical_pairs``; ``universe`` holds (env, pairs)."""
    m = chains[0].m if chains else 0
    by_env = {}  # id(env) -> (env, indices of its pairs)
    for idx, (env, _) in enumerate(universe):
        by_env.setdefault(id(env), (env, []))[1].append(idx)
    covers = [set() for _ in chains]
    for chain, got in zip(chains, covers):
        params = chain.params()
        for env, idxs in by_env.values():
            form = canonical_pairs(instantiate(params, env), env, m)
            got.update(idx for idx in idxs if universe[idx][1] == form)
    uncovered = set(range(len(universe)))
    picked = []
    while uncovered:
        best = max(range(len(chains)),
                   key=lambda i: (len(covers[i] & uncovered), -i))
        gain = covers[best] & uncovered
        if not gain:
            break
        picked.append(chains[best])
        uncovered -= gain
    return picked
