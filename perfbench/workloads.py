"""The five benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one pass to
its answer in ``run`` through the library calls the CLI subcommands make, and
checks that answer in ``check``.  Library functions are always reached through
their module (``nlp.branch_and_bound``, not a local alias), so the traced run's
wrappers see every call.  ``digest`` reduces an answer to plain data, so the
traced and the untraced answers can be compared.
"""

from __future__ import annotations

import math
import os
import random
import re
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from bipoint import algfamily, golden, instances, nlp, tables
from bipoint.rounding import fractional_budget

# the lru-cached original: set-up clears it so every set-up parses the tables
_BUILTIN_TABLES = tables.builtin_tables


def _cold_tables() -> dict:
    _BUILTIN_TABLES.cache_clear()
    return tables.builtin_tables()


@dataclass
class Check:
    attempted: int
    failures: list  # one message per failed operation


class Workload:
    seeded = True  # whether the seed changes the inputs

    def trace_problems(self, inp, answer, metrics) -> list:
        """Disagreements between a traced pass's counts and the answer."""
        return []

    def extra(self, inp, answers) -> dict:
        """Workload-specific end-to-end metrics."""
        return {}


class CertifyM2(Workload):
    """Time to a certificate: alg2 at g=0.6586, certified to 1.35."""

    seeded = False
    G = [Fraction("0.6586")]
    TARGET = 1.35

    def setup(self, seed, out_dir):
        _cold_tables()
        return {"model": nlp.model_for_table("alg2", self.G),
                "cert": os.path.join(out_dir, "certify_m2"), "pass": [0]}

    def run(self, inp):
        inp["pass"][0] += 1
        path = f"{inp['cert']}.{inp['pass'][0]}.ndjson"
        return nlp.branch_and_bound(inp["model"], target=self.TARGET,
                                    certificate=path)

    def check(self, inp, cert, first):
        bad = []
        if cert.status != "certified":
            bad.append(f"status {cert.status}")
        with open(cert.certificate_path) as fh:
            n = sum(1 for line in fh if line.strip())
        if n != cert.n_leaves:
            bad.append(f"certificate holds {n} leaves, run reports "
                       f"{cert.n_leaves}")
        # replay re-solves every leaf LP; once per run is enough because
        # every pass yields the same digest or is checked as a new answer
        if first and not nlp.replay_certificate(
                inp["model"], cert.certificate_path, self.TARGET):
            bad.append("replay rejects the certificate")
        return Check(1, bad[:1])

    def digest(self, cert):
        return (cert.status, cert.boxes_processed, cert.n_leaves,
                cert.worst_value)

    def trace_problems(self, inp, cert, metrics):
        return _box_problems(cert, metrics)


class ProbeM3(CertifyM2):
    """alg3 at g=(0.642, 0.833) toward 1.40 with a fixed box budget."""

    G = [Fraction("0.642"), Fraction("0.833")]
    TARGET = 1.40
    BUDGET = 40

    def setup(self, seed, out_dir):
        _cold_tables()
        return {"model": nlp.model_for_table("alg3", self.G)}

    def run(self, inp):
        return nlp.branch_and_bound(inp["model"], target=self.TARGET,
                                    budget=self.BUDGET)

    def check(self, inp, cert, first):
        ok = cert.status in ("exhausted-budget", "certified")
        return Check(1, [] if ok else [f"status {cert.status}"])

    def digest(self, cert):
        box = sorted(cert.worst_box.items()) if cert.worst_box else None
        return super().digest(cert) + (box,)

    def extra(self, inp, answers):
        # a certified run proves the target itself
        worst = answers[0].worst_value
        return {"bound_at_budget": self.TARGET if worst is None else worst}


def _box_problems(cert, metrics):
    bad = []
    if metrics["nlp.boxes"] != cert.boxes_processed:
        bad.append(f"traced boxes {metrics['nlp.boxes']} != "
                   f"boxes_processed {cert.boxes_processed}")
    if metrics["nlp.leaves"] != cert.n_leaves:
        bad.append(f"traced leaves {metrics['nlp.leaves']} != "
                   f"n_leaves {cert.n_leaves}")
    return bad


@dataclass
class CoverAnswer:
    universe: list  # (env, canonical vector)
    cover: list  # ChainSpec


class ChainCover(Workload):
    """m=2 chain generation, vector enumeration over seeded environments,
    then the greedy chain cover of the enumerated vectors."""

    M = 2
    VECTORS = 200  # fixed cover size, so the work does not vary with the seed
    ENVS = 60  # drawn in set-up; a pass enumerates them until VECTORS

    def setup(self, seed, out_dir):
        # drawn as `bipoint alg chains --greedy` draws them
        rng = random.Random(seed)
        envs = []
        for _ in range(self.ENVS):
            b = Fraction(rng.randrange(1, 20), 20)
            gAs = [Fraction(rng.randrange(1, 40), 20) for _ in range(self.M)]
            envs.append(algfamily.derive_gamma_env(b, gAs))
        return {"envs": envs}

    def run(self, inp):
        chains = algfamily.generate_chains(self.M)
        universe = []
        for env in inp["envs"]:
            for spec in algfamily.enumerate_algm(self.M, env):
                universe.append((env, algfamily.canonical(spec, env, self.M)))
            if len(universe) >= self.VECTORS:
                break
        else:
            raise RuntimeError(f"{self.ENVS} environments give fewer than "
                               f"{self.VECTORS} vectors")
        universe = universe[:self.VECTORS]
        return CoverAnswer(universe, algfamily.greedy_cover(chains, universe))

    def check(self, inp, ans, first):
        covered = {}  # id(env) -> canonical vectors the cover reaches there
        bad = []
        for env, vec in ans.universe:
            if id(env) not in covered:
                covered[id(env)] = {
                    algfamily.canonical(
                        algfamily.instantiate(c.params(), env), env, self.M)
                    for c in ans.cover}
            if vec not in covered[id(env)]:
                bad.append(f"vector {vec} not covered")
        return Check(len(ans.universe), bad)

    def digest(self, ans):
        return (len(ans.universe), tuple(c.label() for c in ans.cover))


class GoldenOracle(Workload):
    """Brute-force optimum of the golden gap instances for a ladder of k."""

    seeded = False
    LADDER = (8, 9, 10, 11, 12)
    # exact optima at the commit that defined this benchmark
    EXPECTED = {
        8: Fraction(969323029, 701408733),
        9: Fraction(1768089133, 1636620377),
        10: Fraction(1434440459, 1402817466),
        11: Fraction(887455705, 701408733),
        12: Fraction(4210297891, 3507043665),
    }

    def setup(self, seed, out_dir):
        sols = {k: golden.build_golden(k) for k in self.LADDER}
        for sol in sols.values():
            sol.instance.dist_array()  # fill the float cache before timing
        return {"sols": sols}

    def run(self, inp):
        return [(k, *golden.brute_force_opt(sol.instance, jobs=1))
                for k, sol in inp["sols"].items()]

    def check(self, inp, ans, first):
        bad = []
        for k, _, cost in ans:
            bound = golden.rational_vertex_bound(golden.golden_constants(k))
            if cost < bound:
                bad.append(f"k={k}: optimum {cost} below the vertex bound")
            elif cost != self.EXPECTED[k]:
                bad.append(f"k={k}: optimum {cost} != {self.EXPECTED[k]}")
        return Check(len(ans), bad)

    def digest(self, ans):
        return tuple((k, tuple(sorted(s.facilities)), str(cost))
                     for k, s, cost in ans)

    def trace_problems(self, inp, ans, metrics):
        want = sum(math.comb(len(sol.instance.facilities), k)
                   for k, sol in inp["sols"].items())
        if metrics["golden.subsets"] != want:
            return [f"traced subsets {metrics['golden.subsets']} != "
                    f"sum of comb(n, k) {want}"]
        return []


@dataclass
class SuiteAnswer:
    results: list  # BestOfResult per instance
    latency: list  # seconds per best_of call


class Suite(Workload):
    """best_of over seeded random instances at the CLI's default size."""

    INSTANCES = 100
    CLIENTS, F1, F2, K, EPS = 30, 3, 9, 5, 0.1
    THRESHOLD = 1.3064 * (1 + EPS)
    PLANS = {"alg1": (), "alg2": algfamily.G_M2, "alg3": algfamily.G_M3,
             "uniform": algfamily.G_M2}  # the thresholds best_of uses

    def setup(self, seed, out_dir):
        _cold_tables()
        rng = random.Random(seed)
        sols = [instances.synthesize_random_bipoint(
            n_clients=self.CLIENTS, n_f1=self.F1, n_f2=self.F2, k=self.K,
            seed=rng.randrange(2 ** 31)) for _ in range(self.INSTANCES)]
        for sol in sols:
            sol.instance.dist_array()  # fill the float cache before timing
        return {"sols": sols, "seed": seed}

    def run(self, inp):
        rng = random.Random(inp["seed"])
        clock = time.perf_counter
        results, latency = [], []
        for sol in inp["sols"]:
            t = clock()
            results.append(algfamily.best_of(sol, self.EPS, rng))
            latency.append(clock() - t)
        return SuiteAnswer(results, latency)

    def check(self, inp, ans, first):
        cap = self.K + 2 * fractional_budget(self.EPS)
        bad = []
        for i, (sol, res) in enumerate(zip(inp["sols"], ans.results)):
            ratio = res.cost / float(sol.cost)
            label, _, n_sr = res.records[0]
            if ratio > self.THRESHOLD:
                bad.append(f"instance {i}: ratio {ratio} > {self.THRESHOLD}")
            elif label != "SR" or n_sr > cap:
                bad.append(f"instance {i}: SR opens {n_sr} > {cap}")
            else:
                for label, _, n_open in res.records[1:]:
                    if n_open == self.K or (n_open == self.K - 1
                                            and self._slack(sol, label) > 0):
                        continue
                    bad.append(f"instance {i}: {label} opens {n_open}")
                    break
        return Check(len(ans.results), bad)

    def _slack(self, sol, label):
        """Sets whose p_W |W| is not integral for the chain behind a record."""
        name, ci = re.fullmatch(r"(\w+)\[(\d+)\]", label).groups()
        _, chains = tables.builtin_tables()[name]
        part = algfamily.build_partition(sol, algfamily.build_stars(sol),
                                         self.PLANS[name])
        env = algfamily.param_env(sol, part)
        values = algfamily.instantiate(chains[int(ci)], env)
        sets = {f"{z}{t + 1}": members for z, level in
                (("A", part.A), ("B", part.B), ("C", part.C))
                for t, members in enumerate(level)}
        return sum(1 for W, members in sets.items() if members
                   and (Fraction(values[W]) * len(members)).denominator != 1)

    def digest(self, ans):
        return tuple((r.label, r.cost, tuple(sorted(r.open_set.facilities)))
                     for r in ans.results)

    def extra(self, inp, answers):
        lat = [t for a in answers for t in a.latency]
        return {"op_p50_ms": 1000 * statistics.median(lat),
                "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[-1],
                "op_samples": len(lat)}


WORKLOADS = {
    "certify_m2": CertifyM2(),
    "probe_m3": ProbeM3(),
    "chain_cover": ChainCover(),
    "golden_oracle": GoldenOracle(),
    "suite": Suite(),
}
