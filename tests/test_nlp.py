"""Factor-revealing program: interval relaxation soundness, branch-and-bound
certification, checkpointing, and the published reference points."""

import hashlib
import heapq
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bipoint import nlp
from bipoint.algfamily import derive_gamma_env, generate_chains, \
    instantiate, is_valid, set_size
from bipoint.nlp import (
    branch_and_bound,
    evaluate_point,
    gamma_intervals,
    initial_boxes,
    model_for_table,
    point_costs,
    preset_hard_point_s3,
    preset_m1_feasible,
    relax_to_lp,
    relaxed_cost_coeffs,
    replay_certificate,
    solve_lp,
)
from bipoint.exprs import EMPTY, iv
from bipoint.tables import CATALOGUE, ChainSpec, set_names
from reference_tables import read_param
from reference_trees import as_tree, interval_env


def rand_box(rng, m):
    box = {"b": sorted([rng.uniform(0, 1), rng.uniform(0, 1)])}
    for t in range(2, m + 1):
        if rng.random() < 0.2:
            box[f"gA{t}"] = (nlp.TAIL_N, math.inf)
        else:
            box[f"gA{t}"] = sorted([rng.uniform(0, 2), rng.uniform(0, 2)])
    return {k: tuple(v) for k, v in box.items()}


def rand_interior(rng, box):
    pt = {}
    for var, (lo, hi) in box.items():
        if math.isinf(hi):
            pt[var] = lo + rng.expovariate(1.0)
        else:
            pt[var] = lo + rng.random() * (hi - lo)
    return pt


def test_gamma_intervals_enclose_recurrence():
    rng = random.Random(0)
    for m in (2, 3):
        for _ in range(200):
            box = rand_box(rng, m)
            env = interval_env(box, m)
            pt = rand_interior(rng, box)
            exact = derive_gamma_env(
                Fraction(pt["b"]),
                [Fraction(0)] + [Fraction(pt[f"gA{t}"])
                                 for t in range(2, m + 1)])
            for t in range(1, m + 1):
                got = env[f"gC{t}"]
                want = float(exact[f"gC{t}"])
                assert got.contains(want, slack=1e-9), (box, t)


def _interval_recurrence(box, m):
    """gamma_intervals as the ``Interval`` recurrence it replaced."""
    from bipoint.exprs import Interval, iadd, iclamp01, imin, isub, iv

    env = {var: Interval(float(lo), float(hi))
           for var, (lo, hi) in box.items()}
    if m == 1:
        env["gC1"] = iv(1)
        return env
    tail = Interval(0.0, 0.0)
    for t in range(m, 1, -1):
        cap = isub(iv(1), tail)
        gct = iclamp01(imin(env[f"gA{t}"], cap) if t < m
                       else imin(iv(1), env[f"gA{t}"]))
        env[f"gC{t}"] = gct
        tail = iadd(tail, gct)
    env["gC1"] = iclamp01(isub(iv(1), tail))
    return env


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gamma_intervals_batch_bit_identical_to_recurrence(m):
    rng = random.Random(40 + m)
    names = ["b", "gA1"] if m == 1 else \
        ["b"] + [f"gA{t}" for t in range(2, m + 1)]
    boxes = []
    for _ in range(300):
        box = {}
        for var in names:
            hi = 1.0 if var == "b" else 2.0
            roll = rng.random()
            if var != "b" and roll < 0.2:
                box[var] = (nlp.TAIL_N, math.inf)
            elif roll < 0.3:  # endpoints exactly 0, 1 or N
                box[var] = tuple(sorted(rng.sample([0.0, 1.0, hi], 2)))
            else:
                box[var] = tuple(sorted((rng.uniform(0, hi),
                                         rng.uniform(0, hi))))
        boxes.append(box)
    got = gamma_intervals({v: (np.array([box[v][0] for box in boxes]),
                               np.array([box[v][1] for box in boxes]))
                           for v in names}, m)
    for i, box in enumerate(boxes):
        for var, want in _interval_recurrence(box, m).items():
            lo, hi = got[var][0][i], got[var][1][i]
            assert np.array([lo, hi]).tobytes() == \
                np.array([want.lo, want.hi]).tobytes(), (box, var)


def test_chain_enclosures_contain_point_values():
    """Every table parameter's interval over a box contains its exact value
    at interior points; the core soundness property of the relaxation."""
    rng = random.Random(1)
    for table, m in (("alg2", 2), ("alg3", 3), ("uniform", 2)):
        g = [0.6586] if m == 2 else [0.642, 0.833]
        model = model_for_table(table, g)
        for _ in range(60):
            box = rand_box(rng, m)
            ienv = interval_env(box, m)
            pt = rand_interior(rng, box)
            env = derive_gamma_env(
                Fraction(pt["b"]),
                [Fraction(0)] + [Fraction(pt[f"gA{t}"])
                                 for t in range(2, m + 1)])
            fenv = {k: float(v) for k, v in env.items()}
            p0, p1 = nlp.chain_bounds(model.chain_table,
                                      gamma_intervals(box, m))
            for i, params in enumerate(model.chains):
                vals = instantiate(params, fenv)
                for j, W in enumerate(set_names(m)):
                    v = vals[W]
                    enc = as_tree(params[W]).box(ienv)
                    if v is None:
                        continue  # empty set at this exact point
                    # the empty marker, (1, 0) in the batched bounds, requires
                    # the set size to be 0 there
                    if not enc.empty:
                        assert enc.contains(v, slack=1e-7), (table, W, box, pt)
                    if p0[i, j] <= p1[i, j]:
                        assert p0[i, j] - 1e-7 <= v <= p1[i, j] + 1e-7, \
                            (table, i, W, box, pt)


def test_lp_value_dominates_point_costs():
    """The box LP value upper-bounds the pointwise min-over-chains cost for
    any normalized profile supported inside the box."""
    rng = random.Random(2)
    model = model_for_table("alg2", [0.6586])
    for _ in range(25):
        box = rand_box(rng, 2)
        sol = solve_lp(relax_to_lp(model, [box])[0])
        if sol.status != "optimal":
            continue
        pt = rand_interior(rng, box)
        env = derive_gamma_env(Fraction(pt["b"]), [Fraction(0), Fraction(pt["gA2"])])
        fenv = {k: float(v) for k, v in env.items()}
        # normalized single-class profile on a class with nonempty sets
        y = 1 if env["gC1"] > 0 else 2
        b = pt["b"]
        D = 1.0 / ((1 - b) + b) if True else 1.0
        profile = {("C", 2, y): (D, D)} if env["gA2"] > 0 else \
            {("B", 1, 1): (D, D)}
        rep = evaluate_point(model, fenv, profile, tol=1e-6)
        assert rep.objective <= sol.value + 1e-6


def test_relaxed_normalization_feasible_for_true_points():
    """Any (D1, D2) with (1-b)D1 + bD2 = 1 and D2 <= D1, split across classes,
    satisfies every LP row at the enclosing box (rows only relax upward)."""
    rng = random.Random(3)
    model = model_for_table("alg2", [0.6586])
    for _ in range(40):
        box = rand_box(rng, 2)
        lp = relax_to_lp(model, [box])[0]
        pt = rand_interior(rng, box)
        env = derive_gamma_env(Fraction(pt["b"]), [Fraction(0), Fraction(pt["gA2"])])
        fenv = {k: float(v) for k, v in env.items()}
        b = pt["b"]
        D2 = rng.random()
        D1 = (1 - b * D2) / (1 - b) if b < 1 else D2
        if D1 < D2:
            continue
        sizes = {1: env["gA1"], 2: env["gA2"]}
        csizes = {1: env["gC1"], 2: env["gC2"]}
        keys = [(z, x, y) for z in "BC" for x in (1, 2) for y in (1, 2)
                if sizes[x] > 0 and (csizes[y] if z == "C" else sizes[y]) > 0]
        if not keys:
            continue
        w = [rng.random() for _ in keys]
        tw = sum(w)
        profile = {k: (D1 * wi / tw, D2 * wi / tw) for k, wi in zip(keys, w)}
        rep = evaluate_point(model, fenv, profile, tol=1e-6)
        if not rep.costs:
            continue
        x = {"X": min(rep.objective, nlp.X_CAP), "D1": D1, "D2": D2}
        for key, (d1, d2) in profile.items():
            z, xx, yy = key
            x[f"D_{z}1_{xx}{yy}"] = d1
            x[f"D_{z}2_{xx}{yy}"] = d2
        vec = [x.get(name, 0.0) for name in nlp.lp_columns(model.m)]
        for row, lo, hi in zip(lp.A, lp.row_lower, lp.row_upper):
            assert lo - 1e-7 <= sum(r * v for r, v in zip(row, vec)) <= \
                hi + 1e-7


@pytest.mark.parametrize("table,g", [("alg2", [0]), ("alg2", [1.5]),
                                     ("alg3", [0.9, 0.5])])
def test_model_for_table_refuses_what_build_partition_refuses(table, g):
    with pytest.raises(ValueError, match=r"strictly increasing in \(0,1\)"):
        model_for_table(table, g)


def test_initial_boxes_cover_domain():
    model = model_for_table("alg3", [0.642, 0.833])
    boxes = initial_boxes(model)
    assert len(boxes) == 4  # two gamma axes, each split [0,N] + tail
    for box in boxes:
        assert box["b"] == (0.0, 1.0)


def test_branch_and_bound_certifies_m2(tmp_path):
    model = model_for_table("alg2", [0.6586])
    cert_path = str(tmp_path / "leaves.ndjson")
    cert = branch_and_bound(model, target=1.36, budget=200000,
                            certificate=cert_path)
    assert cert.status == "certified"
    assert cert.n_leaves > 0
    assert replay_certificate(model, cert_path, target=1.36)
    assert not replay_certificate(model, cert_path, target=1.0)


def test_branch_and_bound_counterexample():
    # target below the true optimum: some box can never certify
    model = model_for_table("alg2", [0.6586])
    cert = branch_and_bound(model, target=1.05, budget=4000)
    assert cert.status in ("exhausted-budget", "counterexample-box")
    assert cert.worst_value > 1.05


def test_checkpoint_resume(tmp_path):
    model = model_for_table("alg2", [0.6586])
    ck = str(tmp_path / "state.json")
    leaves = str(tmp_path / "leaves.ndjson")
    first = branch_and_bound(model, target=1.33, budget=60, checkpoint=ck,
                             certificate=leaves)
    assert first.status == "exhausted-budget"
    with open(ck) as fh:
        state = json.load(fh)
    assert state["processed"] == 60 and state["worklist"]
    # the box the run stopped on is still to be settled
    stopped = json.loads(json.dumps(first.worst_box))
    assert stopped in [rec["box"] for rec in state["worklist"]]
    resumed = branch_and_bound(model, target=1.33, budget=None,
                               checkpoint=ck, resume=True, certificate=leaves)
    assert resumed.status == "certified"
    assert resumed.boxes_processed > 60
    assert replay_certificate(model, leaves, target=1.33)


def test_resume_after_interrupt_replays(tmp_path, monkeypatch):
    """A run killed between checkpoints has written leaves the checkpoint
    does not know of; the resumed run drops them and re-derives them once."""
    model = model_for_table("alg2", [0.6586])
    ck = str(tmp_path / "state.json")
    leaves = str(tmp_path / "leaves.ndjson")
    monkeypatch.setattr(nlp, "CHECKPOINT_EVERY", 50)
    pops = [0]

    class Killed(Exception):
        pass

    def dies_later(heap):
        pops[0] += 1
        if pops[0] > 920:  # 926 boxes in all; the last 690 are leaves
            raise Killed
        return heapq.heappop(heap)

    monkeypatch.setattr(nlp, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heappop=dies_later))
    with pytest.raises(Killed):
        branch_and_bound(model, target=1.35, checkpoint=ck,
                         certificate=leaves)
    monkeypatch.setattr(nlp, "heapq", heapq)
    with open(ck) as fh:
        kept = json.load(fh)["certificate_bytes"]
    with open(leaves, "rb") as fh:
        assert len(fh.read()) > kept  # leaves past the checkpoint exist
    resumed = branch_and_bound(model, target=1.35, checkpoint=ck,
                               resume=True, certificate=leaves)
    assert resumed.status == "certified"
    assert replay_certificate(model, leaves, target=1.35)


@pytest.mark.parametrize("changed", ["target", "delta", "g", "table"])
def test_resume_refuses_another_run(tmp_path, changed):
    """A checkpoint resumes only the run it was written for: at another
    target, margin or model its empty worklist would 'certify' anything."""
    model = model_for_table("alg2", [Fraction("0.6586")])
    ck = str(tmp_path / "state.json")
    leaves = tmp_path / "leaves.ndjson"
    first = branch_and_bound(model, target=1.6, budget=60, checkpoint=ck,
                             certificate=str(leaves))
    assert first.status == "certified" and first.boxes_processed == 38
    written = leaves.read_bytes()
    kwargs = {"target": 1.6}
    if changed == "target":
        kwargs["target"] = 1.25  # below this model's factor (>= 1.3102)
    elif changed == "delta":
        kwargs["delta"] = 1e-6
    elif changed == "g":
        model = model_for_table("alg2", [Fraction("0.66")])
    else:
        model = model_for_table("uniform", [Fraction("0.6586")])
    key = {"table": "model", "g": "g_bounds"}.get(changed, changed)
    with pytest.raises(ValueError, match=f"another run: {key} "):
        branch_and_bound(model, checkpoint=ck, resume=True,
                         certificate=str(leaves), **kwargs)
    assert leaves.read_bytes() == written  # the audit file is untouched


def test_resume_without_a_checkpoint_starts_afresh(tmp_path):
    """With no checkpoint to resume, the run starts over and its audit file
    holds its own leaves only, not a second set after the old ones."""
    model = model_for_table("alg2", [Fraction("0.6586")])
    leaves = str(tmp_path / "leaves.ndjson")
    branch_and_bound(model, target=1.6, certificate=leaves)
    again = branch_and_bound(model, target=1.6, resume=True,
                             checkpoint=str(tmp_path / "missing.json"),
                             certificate=leaves)
    assert again.status == "certified"
    with open(leaves) as fh:
        assert sum(1 for _ in fh) == again.n_leaves
    assert replay_certificate(model, leaves, target=1.6)


@pytest.fixture(scope="module")
def cert_lines(tmp_path_factory):
    """Leaf records of an alg2 certificate at 1.40."""
    path = tmp_path_factory.mktemp("cert") / "leaves.ndjson"
    model = model_for_table("alg2", [0.6586])
    cert = branch_and_bound(model, target=1.40, certificate=str(path))
    assert cert.status == "certified" and cert.n_leaves >= 4
    return path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("damage", [
    "empty", "truncated", "leaf-removed", "leaf-duplicated", "leaf-moved",
    "leaf-merged"])
def test_replay_rejects_incomplete_certificates(tmp_path, cert_lines, damage):
    model = model_for_table("alg2", [0.6586])
    lines = list(cert_lines)
    if damage == "empty":
        lines = []
    elif damage == "truncated":
        text = "".join(lines)
        lines = [text[:len(text) // 2]]
    elif damage == "leaf-removed":
        del lines[len(lines) // 2]
    elif damage == "leaf-duplicated":
        lines.append(lines[len(lines) // 2])
    elif damage == "leaf-moved":
        rec = json.loads(lines[0])
        lo, hi = rec["box"]["b"]
        rec["box"]["b"] = [lo + (hi - lo) / 4, hi + (hi - lo) / 4]
        lines[0] = json.dumps(rec) + "\n"
    else:
        # one leaf stretched over its sibling's room: an overlap
        rec = json.loads(lines[0])
        rec["box"]["b"] = [0.0, 1.0]
        lines[0] = json.dumps(rec) + "\n"
    path = tmp_path / "damaged.ndjson"
    path.write_text("".join(lines))
    assert replay_certificate(model, str(path), target=1.40) is False
    # the undamaged records still replay
    path.write_text("".join(cert_lines))
    assert replay_certificate(model, str(path), target=1.40)


@pytest.fixture(scope="module")
def cert_135(tmp_path_factory):
    """The alg2 g=0.6586 run at 1.35 and its certificate."""
    path = tmp_path_factory.mktemp("cert") / "leaves.ndjson"
    model = model_for_table("alg2", [Fraction("0.6586")])
    return model, path, branch_and_bound(model, target=1.35,
                                         certificate=str(path))


def test_alg2_at_1_35_box_counts(cert_135):
    """The box and leaf counts of the benchmark's certify run."""
    _, _, cert = cert_135
    assert cert.status == "certified"
    assert (cert.boxes_processed, cert.n_leaves) == (926, 690)


def test_replay_rejects_a_bad_leaf_in_the_last_block(tmp_path, cert_135):
    model, path, _ = cert_135
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > nlp.REPLAY_BLOCK and \
        len(lines) % nlp.REPLAY_BLOCK != 0  # the last block is a partial one
    values = nlp._box_values(model, [json.loads(x)["box"] for x in lines])
    worst = int(np.argmax(values))
    runner_up = max(v for i, v in enumerate(values) if i != worst)
    assert runner_up < values[worst]
    lines.append(lines.pop(worst))
    moved = tmp_path / "worst-last.ndjson"
    moved.write_text("".join(lines))
    # every leaf but the last clears this target by the margin
    target = (runner_up + values[worst]) / 2 + nlp.DELTA
    assert replay_certificate(model, str(moved), target=target) is False
    assert replay_certificate(model, str(moved),
                              target=values[worst] + nlp.DELTA)


@pytest.mark.parametrize("status", ["infeasible", "unbounded", "failed"])
def test_only_an_optimal_lp_certifies_a_box(monkeypatch, status):
    """The box LP is feasible and bounded, so any other status is a solver
    failure: the box must be split, never certified."""
    model = model_for_table("alg2", [0.6586])
    monkeypatch.setattr(nlp, "solve_lp",
                        lambda p: nlp.LpSolution(status=status))
    assert nlp._box_values(model, initial_boxes(model)[:1]) == [math.inf]
    cert = branch_and_bound(model, target=1.35, budget=3)
    assert cert.status == "exhausted-budget"
    assert cert.n_leaves == 0


def _lp_boxes(model, seed, n):
    rng = random.Random(seed)
    return initial_boxes(model) + [rand_box(rng, model.m) for _ in range(n)]


SOLVER_MODELS = [("alg2", [Fraction("0.6586")]),
                 ("alg3", [Fraction("0.642"), Fraction("0.833")])]


def _linprog(lp):
    """(status, value) of ``lp`` from ``scipy.optimize.linprog``: the LP
    taken apart into linprog's arguments, an independent reference."""
    from scipy.optimize import linprog

    eq = lp.row_lower == lp.row_upper
    assert np.all(np.isneginf(lp.row_lower[~eq]))  # the rest are A x <= u
    c = np.zeros(lp.A.shape[1])
    c[0] = -1.0
    res = linprog(c, A_ub=lp.A[~eq], b_ub=lp.row_upper[~eq], A_eq=lp.A[eq],
                  b_eq=lp.row_upper[eq],
                  bounds=[(0.0, hi) for hi in lp.col_upper], method="highs",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status,
                                                                 "failed")
    return status, -res.fun if status == "optimal" else None


@pytest.mark.parametrize("table,g", SOLVER_MODELS)
def test_direct_highs_matches_linprog(table, g):
    direct = nlp._HighsSolver()
    model = model_for_table(table, g)
    boxes = _lp_boxes(model, 7, 50)
    for box, lp in zip(boxes, relax_to_lp(model, boxes)):
        got = direct(lp)
        status, value = _linprog(lp)
        assert got.status == status, box
        if status == "optimal":
            assert abs(got.value - value) <= 1e-9, box


def _p_bounds(pbox):
    """(p^0, p^1) from an enclosure; the empty-set marker gives (1, 0)."""
    return (1.0, 0.0) if pbox.empty else (pbox.lo, pbox.hi)


def _reference_cost_coeffs(pboxes, g_bounds, m):
    """relaxed_cost_coeffs as first written, mixing the thresholds into the
    float arithmetic on every call."""
    p0, p1 = {}, {}
    for W, pb in pboxes.items():
        p0[W], p1[W] = _p_bounds(pb)
    out = {}
    for z in "BC":
        for x in range(1, m + 1):
            minb0 = min(p0[f"B{s}"] for s in range(1, x + 1))
            for y in range(1, m + 1):
                pz0, pz1 = p0[f"{z}{y}"], p1[f"{z}{y}"]
                q = (1 - pz0) * (1 - p0[f"A{x}"])
                if z == "B":
                    if x == 1:
                        k = q
                    elif y <= x:
                        k = q / g_bounds[x - 1]
                    else:
                        k = q * (1 + (1 / g_bounds[x - 1] - 1) * (1 - minb0))
                else:
                    gx = g_bounds[x]
                    k = q * (gx + (1 - gx) * (1 - minb0))
                out[(z, x, y)] = ((1 - pz0) + k, pz1 + k)
    return out


@pytest.mark.parametrize("table,g", SOLVER_MODELS + [("alg2", [0.6586])])
def test_cost_coeffs_bit_identical_to_mixed_arithmetic(table, g):
    model = model_for_table(table, g)
    sets, keys = set_names(model.m), nlp.class_keys(model.m)
    for box in _lp_boxes(model, 11, 30):
        env = interval_env(box, model.m)
        pboxes = [{W: as_tree(params[W]).box(env) for W in sets}
                  for params in model.chains]
        bounds = np.array([[_p_bounds(pb[W]) for W in sets] for pb in pboxes])
        c1, c2 = relaxed_cost_coeffs(bounds[..., 0], bounds[..., 1],
                                     model.thresholds, model.m)
        for i, pb in enumerate(pboxes):
            want = _reference_cost_coeffs(pb, model.g_bounds, model.m)
            assert list(zip(c1[i], c2[i])) == [want[key] for key in keys]


def _reference_point_costs(vectors, env, g_bounds, m, profile):
    """Each vector's cost as the per-class sum of ``_reference_cost_coeffs``
    on degenerate intervals; an empty set takes the box LP's empty marker."""
    out = []
    for values in vectors:
        pboxes = {W: EMPTY if set_size(W, env) == 0 else iv(values[W])
                  for W in set_names(m)}
        out.append(sum(c1 * d1 + c2 * d2 for key, (c1, c2) in
                       _reference_cost_coeffs(pboxes, g_bounds, m).items()
                       for d1, d2 in [profile.get(key, (0, 0))]))
    return out


def _valid_vectors(model, env):
    vectors = [instantiate(params, env) for params in model.chains]
    return [v for v in vectors if is_valid(v, env, model.m, tol=1e-6).ok]


def _random_point(rng, m):
    """An exact point whose gA1 is 0 half the time, and a random profile on
    its nonempty classes; gA_m or gA2 + gA3 reaching 1 empties C_1."""
    gAs = [Fraction(rng.randrange(0, 31), 20) for _ in range(m)]
    if rng.random() < 0.5:
        gAs[0] = Fraction(0)
    env = derive_gamma_env(Fraction(rng.randrange(0, 21), 20), gAs)
    profile = {(z, x, y): (rng.random(), rng.random())
               for z in "BC" for x in range(1, m + 1) for y in range(1, m + 1)
               if env[f"gA{x}"] and env[f"g{'C' if z == 'C' else 'A'}{y}"]}
    return env, profile


def test_point_costs_equal_reference_cost_coeffs():
    """``evaluate_point``'s chain costs are the box LP's cost rows at the
    point, checked on both presets and on random exact points, with empty
    A_1 and empty C_1 among them."""
    cases = [preset() for preset in (preset_hard_point_s3, preset_m1_feasible)]
    rng = random.Random(9)
    for name in ("alg2", "alg3", "uniform"):
        model = model_for_table(name, CATALOGUE[name].g_inner)
        cases += [(model, *_random_point(rng, model.m)) for _ in range(60)]
    checked, empty_a1, empty_c1 = 0, 0, 0
    for model, env, profile in cases:
        vectors = _valid_vectors(model, env)
        got = point_costs(vectors, env, model.thresholds, model.m, profile)
        want = _reference_point_costs(vectors, env, model.g_bounds, model.m,
                                      profile)
        assert list(got) == pytest.approx(want, rel=1e-12, abs=0)
        checked += len(vectors)
        empty_a1 += bool(vectors) and env["gA1"] == 0
        empty_c1 += bool(vectors) and env["gC1"] == 0
    assert checked > 500 and empty_a1 > 10 and empty_c1 > 10, \
        (checked, empty_a1, empty_c1)


def _reference_relax_to_lp(model, box):
    """relax_to_lp as the per-chain loop over ``Expr.box`` it replaced, and
    the names of the LP's columns."""
    m = model.m
    env = interval_env(box, m)
    var_names = ["X", "D1", "D2"]
    idx = {}
    for z, x, y in nlp.class_keys(m):
        for i in (1, 2):
            idx[(z, i, x, y)] = len(var_names)
            var_names.append(f"D_{z}{i}_{x}{y}")
    nv = len(var_names)
    A, row_upper = [], []
    for params in model.chains:
        pboxes = {W: as_tree(params[W]).box(env) for W in set_names(m)}
        r = np.zeros(nv)
        r[0] = 1.0
        for (z, x, y), (c1, c2) in _reference_cost_coeffs(
                pboxes, model.g_bounds, m).items():
            r[idx[(z, 1, x, y)]] -= c1
            r[idx[(z, 2, x, y)]] -= c2
        A.append(r)
        row_upper.append(0.0)
    b0, b1 = float(box["b"][0]), float(box["b"][1])
    r = np.zeros(nv)
    r[0], r[2] = 1.0, -2.0 * b1 * (1 - b0)
    A.append(r)
    row_upper.append(1.0)
    r = np.zeros(nv)
    r[1], r[2] = 1 - b1, b1
    A.append(r)
    row_upper.append(1.0)
    r = np.zeros(nv)
    r[2], r[1] = 1.0, -1.0
    A.append(r)
    row_upper.append(0.0)
    row_lower = [-math.inf] * len(A)
    for i in (1, 2):
        r = np.zeros(nv)
        r[i] = 1.0
        for z, x, y in nlp.class_keys(m):
            r[idx[(z, i, x, y)]] = -1.0
        A.append(r)
        row_lower.append(0.0)
        row_upper.append(0.0)
    lp = nlp.LpProblem(A=np.array(A), row_lower=np.array(row_lower),
                       row_upper=np.array(row_upper),
                       col_upper=np.array([nlp.X_CAP] + [math.inf] * (nv - 1)))
    return lp, var_names


def _dyadic(rng, lo, hi):
    n = 2 ** rng.randrange(12)
    k = rng.randrange(n)
    return (lo + k * (hi - lo) / n, lo + (k + 1) * (hi - lo) / n)


def _search_boxes(model, seed, n):
    """The initial boxes, then seeded boxes of the kinds branch-and-bound
    visits (dyadic pieces of [0, 1] and [0, N], the gamma tail) and a few
    arbitrary ones."""
    rng = random.Random(seed)
    out = initial_boxes(model)
    for _ in range(n):
        box = {}
        for var in model.box_vars():
            hi = 1.0 if var == "b" else nlp.TAIL_N
            roll = rng.random()
            if var != "b" and roll < 0.2:
                box[var] = (nlp.TAIL_N, math.inf)
            elif roll < 0.85:
                box[var] = _dyadic(rng, 0.0, hi)
            else:
                box[var] = tuple(sorted((rng.uniform(0, hi),
                                         rng.uniform(0, hi))))
        out.append(box)
    return out


BIT_MODELS = {
    "alg1": lambda: model_for_table("alg1", []),
    "alg2": lambda: model_for_table("alg2", [Fraction("0.6586")]),
    "alg2-float-g": lambda: model_for_table("alg2", [0.6586]),
    "alg3": lambda: model_for_table("alg3", [Fraction("0.642"),
                                             Fraction("0.833")]),
    "uniform": lambda: model_for_table("uniform", [Fraction("0.6586")]),
    "generated-m1": lambda: nlp.NlpModel(
        m=1, g_bounds=[0, 1],
        chains=[c.params() for c in generate_chains(1)]),
    "hard-point": lambda: preset_hard_point_s3()[0],
}


@pytest.mark.parametrize("name", list(BIT_MODELS))
def test_relax_to_lp_bit_identical_to_per_chain_loop(name):
    """The batched enclosure builds every LP exactly as enclosing each chain
    parameter with Expr.box did."""
    model = BIT_MODELS[name]()
    boxes = _search_boxes(model, 13, 60)
    for box, got in zip(boxes, relax_to_lp(model, boxes)):
        want, columns = _reference_relax_to_lp(model, box)
        for attr in ("A", "row_lower", "row_upper", "col_upper"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), \
                (name, attr, box)
        assert nlp.lp_columns(model.m) == columns


@pytest.mark.parametrize("name", list(BIT_MODELS))
def test_box_values_of_a_batch_equal_single_boxes(name):
    """A box's LP value does not depend on the boxes enclosed with it."""
    model = BIT_MODELS[name]()
    boxes = _search_boxes(model, 17, 40)
    rng = random.Random(18)
    rng.shuffle(boxes)
    while boxes:
        k = rng.randint(1, 8)
        batch, boxes = boxes[:k], boxes[k:]
        got = nlp._box_values(model, batch)
        want = [nlp._box_values(model, [box])[0] for box in batch]
        assert np.array(got).tobytes() == np.array(want).tobytes(), batch


def test_direct_highs_reuse_across_models():
    """One solver fed LPs of two models in turn answers as fresh ones."""
    shared = nlp._HighsSolver()
    lps = []
    for table, g in SOLVER_MODELS:
        model = model_for_table(table, g)
        lps.append(relax_to_lp(model, _lp_boxes(model, 19, 10)))
    for pair in zip(*lps):
        for lp in pair:
            got, want = shared(lp), nlp._HighsSolver()(lp)
            assert (got.status, got.value) == (want.status, want.value)


@pytest.mark.parametrize("formula,why", [
    ("b / gA1", "uses gA1"),
    # a parameter naming gA1 that the sign rule of ChainSpec.params cannot
    # fold to 0: B1 takes all of b, as b / gA1
    pytest.param(
        ChainSpec(2, ("A1", "A2"), ("B1", "C1", "C2", "B2")).params()["B1"],
        "uses gA1", id="ChainSpec-B1"),
])
def test_compile_rejects_what_it_cannot_enclose(formula, why):
    model = model_for_table("alg2", [0.6586])
    param = read_param(formula) if isinstance(formula, str) else formula
    chain = dict(model.chains[3], B2=param)
    bad = nlp.NlpModel(m=2, g_bounds=model.g_bounds,
                       chains=[model.chains[0], chain])
    with pytest.raises(ValueError, match=f"chain 1, set B2: .* {why}"):
        nlp.compile_chains(bad)


# table: (inner thresholds, sha256 of its compiled coefficient arrays);
# alg3 and uniform pinned when the parameters were still parsed into
# expression trees and normalized by probing them, alg1 and alg2 when they
# became ChainSpec chains (alg1 the four generated ones, alg2 opening the
# C2 of chain 8 fully)
PINNED_CHAIN_TABLES = {
    "alg1": ([], "e26459f2a0194349e338c2e95bf612da"
                 "fcdd91538d8fff1542b284fe73069176"),
    "alg2": ([0.6586], "1e1e9b965b34aa59812eab9af5bd584f"
                       "807e226d825fbbe820f760f540925416"),
    "alg3": ([0.642, 0.833], "834436fbffb392c84b41d039471ace08"
                             "42a59e0d4d5cc9509c468702853ad936"),
    "uniform": ([0.6586], "648157b88bf64648363160f924e3587b"
                          "aef066467869559551a55cfd329278d3"),
}


@pytest.mark.parametrize("table", list(PINNED_CHAIN_TABLES))
def test_compiled_chain_table_is_pinned(table):
    g, want = PINNED_CHAIN_TABLES[table]
    t = nlp.compile_chains(model_for_table(table, g))
    h = hashlib.sha256(repr((t.names, t.alpha.shape, t.coef.shape)).encode())
    for a in (t.alpha, t.const, t.coef):
        h.update(a.tobytes())
    assert h.hexdigest() == want


def test_hard_point_reference_value():
    model, env, profile = preset_hard_point_s3()
    rep = evaluate_point(model, env, profile)
    assert rep.objective == pytest.approx(1.2943, abs=5e-4)
    assert rep.sr_value == pytest.approx(1.2944, abs=1e-4)
    assert "SR" in rep.tight


def test_m1_point_feasible():
    model, env, profile = preset_m1_feasible()
    target = (1 + math.sqrt(3)) / 2
    rep = evaluate_point(model, env, profile, X=target, tol=1e-6)
    assert rep.feasible, rep.violations
    assert abs(rep.objective - target) < 1e-9


def test_m1_model_proves_no_factor_below_the_one_level_one():
    """Every alg1 chain is valid on the whole m = 1 domain, so the model
    cannot certify a ratio under (1+sqrt(3))/2 ~ 1.36603, the value of the
    m1-feasible point; a target just above it still certifies."""
    model = model_for_table("alg1", ())
    cert = branch_and_bound(model, target=1.36, budget=1000)
    assert cert.status != "certified" and cert.worst_value > 1.36
    assert branch_and_bound(model, target=1.37).status == "certified"


def test_evaluate_point_flags_violations():
    model, env, profile = preset_m1_feasible()
    bad = dict(env)
    bad["b"] = Fraction(3, 2)
    rep = evaluate_point(model, bad, profile)
    assert not rep.feasible
    # mass on a class the model does not have: zone A, or a level above m
    for key in (("A", 1, 1), ("C", 2, 1)):
        assert evaluate_point(model, env, {**profile, key: (0, 0)}).feasible
        rep = evaluate_point(model, env, {**profile, key: (1, 0)})
        assert rep.violations == [f"mass on empty class {key}"]
