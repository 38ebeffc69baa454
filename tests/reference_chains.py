"""The per-chain loop that ``algfamily.run_chains`` replaces: instantiate,
check and execute each chain on its own, in ``Fraction`` arithmetic; and the
record list ``best_of`` built with it.  The references ``run_chains`` and
``best_of``'s records are checked against."""

from bipoint.algfamily import G_M2, G_M3, build_partition, build_stars, \
    execute, instantiate, is_valid, param_env
from bipoint.instances import connection_cost_float
from bipoint.rounding import star_round
from bipoint.tables import builtin_tables


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
