"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps bipoint's layer functions from outside the package: each
wrapper replaces the name where the caller looks it up (``nlp.solve_lp`` is
looked up by ``nlp._box_value``, ``algfamily.instantiate`` by ``best_of`` and
``greedy_cover``, ``golden.connection_cost`` by ``brute_force_opt``) and
records one span per call: name, start, end and the span that was open when
it began.  Spans stay in memory as parallel arrays and are written once, when
the run ends.  A span's self time is its duration minus the time its direct
children cover; calls are single-threaded and nested, so the children of a
span never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from types import SimpleNamespace

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.passes = []  # (label, first span index, counters of the pass)
        self.counters = Counter()
        self._restore = []

    # --- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_pass(self, label: str) -> None:
        """Start a new pass: later spans and counts belong to it."""
        self.counters = Counter()
        self.passes.append((label, len(self.start), self.counters))

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(counters, result)`` counts
        what the call produced."""
        nid = self._nid(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._open)

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(self.counters, result)
            return result

        return wrapper

    def counted(self, fn, after):
        """``fn`` wrapped to count what it produced, without a span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self.counters, result)
            return result

        return wrapper

    # --- installing --------------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        self.replace(owner, attr, self.timed(name, getattr(owner, attr), after))

    def wrap_outermost(self, classes, attr: str, name: str) -> None:
        """Span the outermost call of a recursive method: a call made while
        another call of ``attr`` on any of ``classes`` is running goes straight
        to the original."""
        busy = [False]
        for cls in classes:
            fn = cls.__dict__[attr]
            span = self.timed(name, fn)

            def wrapper(node, env, fn=fn, span=span):
                if busy[0]:
                    return fn(node, env)
                busy[0] = True
                try:
                    return span(node, env)
                finally:
                    busy[0] = False

            self.replace(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- reading -----------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.start)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, count=n)
               - np.frombuffer(self.start, count=n))
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        return {"name_id": name_id, "parent": parent, "dur": dur,
                "self": dur - covered}

    def pass_slice(self, k: int) -> slice:
        lo = self.passes[k][1]
        hi = self.passes[k + 1][1] if k + 1 < len(self.passes) \
            else len(self.start)
        return slice(lo, hi)

    def summary(self, k: int, arrays: dict = None) -> dict:
        """{span name: (calls, seconds, self seconds)} for pass ``k``."""
        a = arrays or self.arrays()
        sl = self.pass_slice(k)
        ids = a["name_id"][sl]
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        total = np.bincount(ids, weights=a["dur"][sl], minlength=size)
        own = np.bincount(ids, weights=a["self"][sl], minlength=size)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def durations(self, name: str, passes, arrays: dict = None) -> np.ndarray:
        """Per-call durations of one span name over the given passes."""
        a = arrays or self.arrays()
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        parts = [a["dur"][self.pass_slice(k)][
            a["name_id"][self.pass_slice(k)] == nid] for k in passes]
        return np.concatenate(parts) if parts else np.zeros(0)

    def nesting_problems(self, arrays: dict = None) -> list:
        """Spans left open, or whose children cover more than the span."""
        a = arrays or self.arrays()
        out = []
        unclosed = int((a["dur"] < 0).sum())
        if unclosed:
            out.append(f"{unclosed} spans end before they start")
        over = int((a["self"] < -1e-9).sum())
        if over:
            out.append(f"{over} spans have children longer than themselves")
        return out

    def save(self, path: str, workload: str) -> None:
        a = self.arrays()
        np.savez(path, workload=np.array(workload),
                 names=np.array(self.names), name_id=a["name_id"],
                 parent=a["parent"],
                 start=np.frombuffer(self.start, count=len(self.start)),
                 end=np.frombuffer(self.end, count=len(self.end)),
                 pass_label=np.array([p[0] for p in self.passes]),
                 pass_first=np.array([p[1] for p in self.passes]))


# --- the layers -------------------------------------------------------------


def _count(key, measure=None):
    def after(counters, result):
        counters[key] += 1 if measure is None else measure(result)
    return after


def _lp_status(counters, sol):
    counters[f"nlp.lp_{sol.status}"] += 1


def _bnb_end(counters, cert):
    # the box the run stopped on is neither a leaf nor split
    counters["nlp.unfinished"] += cert.status != "certified"


def _counting_heapq(heapq, tracer):
    def heappop(heap):
        tracer.counters["nlp.boxes"] += 1
        return heapq.heappop(heap)
    return SimpleNamespace(heappush=heapq.heappush, heappop=heappop)


def _counting_scan(scan, tracer):
    def wrapper(combos, *rest):
        def counted():
            n = 0
            try:
                for n, combo in enumerate(combos, 1):
                    yield combo
            finally:
                tracer.counters["golden.subsets"] += n
        return scan(counted(), *rest)
    return wrapper


def instrument(tracer: Tracer) -> None:
    """Install the timing wrappers around every layer the workloads reach."""
    from bipoint import (algfamily, exprs, golden, instances, nlp, rounding,
                         tables)

    tracer.wrap(nlp, "branch_and_bound", "nlp.branch_and_bound", _bnb_end)
    tracer.wrap(nlp, "relax_to_lp", "nlp.relax_to_lp")
    tracer.wrap(nlp, "gamma_intervals", "nlp.gamma_intervals")
    tracer.wrap(nlp, "relaxed_cost_coeffs", "nlp.relaxed_cost_coeffs")
    tracer.wrap(nlp, "solve_lp", "nlp.solve_lp", _lp_status)
    tracer.replace(nlp, "_split", tracer.counted(
        nlp._split, _count("nlp.splits", lambda children: bool(children))))
    tracer.replace(nlp, "heapq", _counting_heapq(nlp.heapq, tracer))

    nodes = (exprs.Op, exprs.Var, exprs.Const)
    tracer.wrap_outermost(nodes, "box", "exprs.box")
    tracer.wrap_outermost(nodes, "ev", "exprs.ev")

    tracer.wrap(algfamily, "generate_chains", "algfamily.generate_chains")
    tracer.wrap(algfamily, "enumerate_algm", "algfamily.enumerate_algm",
                _count("algfamily.vectors", len))
    tracer.wrap(algfamily, "canonical", "algfamily.canonical")
    tracer.wrap(algfamily, "greedy_cover", "algfamily.greedy_cover",
                _count("algfamily.cover_size", len))
    tracer.wrap(algfamily, "instantiate", "algfamily.instantiate")
    tracer.wrap(algfamily, "is_valid", "algfamily.is_valid",
                _count("algfamily.valid", lambda rep: rep.ok))
    tracer.wrap(algfamily, "execute", "algfamily.execute",
                _count("algfamily.slack", lambda res: res.slack > 0))
    tracer.wrap(algfamily, "best_of", "algfamily.best_of")

    tracer.wrap(golden, "build_golden", "golden.build_golden")
    tracer.wrap(golden, "brute_force_opt", "golden.brute_force_opt")
    tracer.wrap(golden, "connection_cost", "golden.connection_cost")
    tracer.replace(golden, "_scan_combos",
                   _counting_scan(golden._scan_combos, tracer))

    tracer.wrap(algfamily, "connection_cost_float",
                "instances.connection_cost_float")
    tracer.wrap(instances, "synthesize_random_bipoint", "instances.synthesize")
    tracer.wrap(algfamily, "build_stars", "partition.build_stars")
    tracer.wrap(algfamily, "build_partition", "partition.build_partition")
    tracer.wrap(algfamily, "star_round", "rounding.star_round")
    tracer.wrap(rounding, "srdr", "rounding.srdr")
    tracer.wrap(tables, "builtin_tables", "tables.builtin_tables")


def layer_metrics(summary: dict, counters: Counter) -> dict:
    """Per-layer metrics of one traced pass, by their BENCHMARK.json names.

    Set-up layers (``golden.build_golden``, ``instances.synthesize``,
    ``tables.builtin_tables``) come from the traced set-up pass instead.
    """
    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    boxes = counters["nlp.boxes"]
    leaves = boxes - counters["nlp.splits"] - counters["nlp.unfinished"]
    out = {
        "nlp.solve_lp.s": secs("nlp.solve_lp"),
        "nlp.solve_lp.calls": calls("nlp.solve_lp"),
        "nlp.relax_to_lp.s": secs("nlp.relax_to_lp"),
        "nlp.relaxed_cost_coeffs.s": secs("nlp.relaxed_cost_coeffs"),
        "nlp.gamma_intervals.s": secs("nlp.gamma_intervals"),
        "nlp.boxes": boxes,
        "nlp.leaves": leaves,
        "nlp.leaf_ratio": ratio(leaves, boxes),
        "nlp.branch_and_bound.self_s": own("nlp.branch_and_bound"),
        "nlp.ms_per_box": ratio(1000 * secs("nlp.branch_and_bound"), boxes),
        "algfamily.vectors": counters["algfamily.vectors"],
        "algfamily.cover_size": counters["algfamily.cover_size"],
        "algfamily.valid_ratio": ratio(counters["algfamily.valid"],
                                       calls("algfamily.is_valid")),
        "algfamily.slack_rate": ratio(counters["algfamily.slack"],
                                      calls("algfamily.execute")),
        "algfamily.best_of.self_s": own("algfamily.best_of"),
        "golden.subsets": counters["golden.subsets"],
        "golden.subsets_per_s": ratio(counters["golden.subsets"],
                                      secs("golden.brute_force_opt")),
        "rounding.star_round.calls": calls("rounding.star_round"),
    }
    for status in ("optimal", "infeasible", "unbounded", "failed"):
        out[f"nlp.lp_{status}"] = counters[f"nlp.lp_{status}"]
    for name in ("exprs.box", "exprs.ev", "algfamily.enumerate_algm",
                 "algfamily.instantiate", "algfamily.is_valid",
                 "algfamily.execute", "instances.connection_cost_float"):
        out[f"{name}.calls"] = calls(name)
    for name in ("exprs.box", "exprs.ev", "algfamily.generate_chains",
                 "algfamily.enumerate_algm", "algfamily.canonical",
                 "algfamily.greedy_cover", "algfamily.instantiate",
                 "algfamily.is_valid", "algfamily.execute",
                 "golden.brute_force_opt", "golden.connection_cost",
                 "instances.connection_cost_float", "partition.build_stars",
                 "partition.build_partition", "rounding.star_round",
                 "rounding.srdr"):
        out[f"{name}.s"] = secs(name)
    return out


def setup_metrics(summary: dict) -> dict:
    return {f"{name}.s": summary.get(name, (0, 0.0, 0.0))[1]
            for name in ("golden.build_golden", "instances.synthesize",
                         "tables.builtin_tables")}
