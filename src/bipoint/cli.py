"""Command-line front end: instance construction, partitioning, rounding,
bound certification and Monte Carlo suites, with seeded reproducibility."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import algfamily, golden, nlp
from .instances import (
    connection_cost_float,
    read_instance,
    synthesize_random_bipoint,
    validate_bipoint,
    write_instance,
)
from .rounding import fractional_budget, sr_cost_bound, star_round
from .tables import CATALOGUE, builtin_tables, table_for_m


def _seed(args) -> int:
    env = os.environ.get("BIPOINT_SEED")
    if env is not None:
        return int(env)
    return getattr(args, "seed", 0) or 0


def _frac(s: str) -> Fraction:
    return Fraction(s)


def _emit(report, args) -> None:
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    if fmt == "csv":
        rows = report.get("records", [report])
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            for r in rows:
                writer.writerow(r)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text if fmt == "csv" else text + "\n")
    else:
        print(text)


def _load_solution(args):
    if getattr(args, "file", None):
        return read_instance(args.file)
    return synthesize_random_bipoint(
        n_clients=args.clients, n_f1=args.f1, n_f2=args.f2, k=args.k,
        seed=_seed(args))


def _instance_link(args) -> dict:
    """Cross-link to the instance a report ran against: file hash when the
    instance came from disk, otherwise the synthesis parameters."""
    if getattr(args, "file", None):
        return {"instance_file": args.file,
                "instance_hash": _file_hash(args.file)}
    return {"instance_seed": _seed(args)}


def _add_instance_flags(p, k_default=5):
    p.add_argument("--file", help="instance file (overrides the random one)")
    p.add_argument("--clients", type=int, default=30)
    p.add_argument("--f1", type=int, default=3)
    p.add_argument("--f2", type=int, default=9)
    p.add_argument("--k", type=int, default=k_default)
    p.add_argument("--seed", type=int, default=0)


def _validate_schema(data, name: str) -> None:
    """Validate a JSON document against one of the bundled schemas."""
    import jsonschema
    from importlib import resources

    ref = resources.files("bipoint") / "schemas" / name
    schema = json.loads(ref.read_text())
    try:
        jsonschema.validate(data, schema)
    except jsonschema.ValidationError as exc:
        raise ValueError(f"schema {name}: {exc.message}") from exc


def _file_hash(path: str) -> str:
    # imported here: hashlib maps OpenSSL, a few MB in every process
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# --- gap --------------------------------------------------------------------


def cmd_gap_build(args) -> int:
    sol = golden.build_golden(args.k)
    write_instance(sol, args.out_file)
    print(json.dumps({"k": args.k, "out": args.out_file,
                      "hash": _file_hash(args.out_file),
                      "n_points": sol.instance.n_points}))
    return 0


def cmd_gap_verify(args) -> int:
    report = golden.gap_summary(args.k)
    verts = golden.extreme_points()
    report["vertices"] = [
        {"x_A": float(v.x_A), "x_C": float(v.x_C), "x_B": float(v.x_B),
         "f": float(v.value)} for v in verts
    ]
    report["sqrt_phi"] = float(golden.F_S)
    report["min_vertex_minus_sqrt_phi"] = report["vertices"][0]["f"] - \
        report["sqrt_phi"]
    if args.explicit:
        sol = golden.build_golden(args.k)
        rep = validate_bipoint(sol)
        report["explicit_checks"] = rep.as_dict()
        report["explicit_cost"] = float(sol.cost)
    if args.identities:
        report["identities"] = golden.verify_gap_identities()
    _emit(report, args)
    ok = all(report["checks"].values()) and \
        report["cost_dev"] <= 10.0 / args.k
    return 0 if ok else 1


def cmd_gap_brute(args) -> int:
    sol = golden.build_golden(args.k)
    t0 = time.time()
    open_set, cost = golden.brute_force_opt(sol.instance, budget=args.budget)
    c = golden.golden_constants(args.k)
    bound = golden.rational_vertex_bound(c)
    report = {
        "k": args.k,
        "n_facilities": len(sol.instance.facilities),
        "opt_cost": float(cost),
        "opt_cost_exact": str(cost),
        "fractional_cost": float(sol.cost),
        "ratio": float(cost / sol.cost),
        "vertex_bound": float(bound),
        "sqrt_phi": float(golden.F_S),
        "dominates_vertex_bound": cost >= bound,
        "seconds": round(time.time() - t0, 3),
    }
    _emit(report, args)
    return 0 if report["dominates_vertex_bound"] else 1


# --- partition --------------------------------------------------------------


def cmd_partition(args) -> int:
    sol = _load_solution(args)
    report = algfamily.partition_report(sol, tuple(args.g))
    report["bipoint"] = validate_bipoint(sol).as_dict()
    report.update(_instance_link(args))
    _emit(report, args)
    return 0


# --- alg --------------------------------------------------------------------


def cmd_alg_enumerate(args) -> int:
    gAs = [Fraction(g) for g in args.gamma]
    if len(gAs) != args.m:
        print(f"need {args.m} gamma values", file=sys.stderr)
        return 2
    if not 0 <= args.b <= 1:
        raise ValueError(f"--b must lie in [0, 1], got {args.b}")
    if min(gAs) < 0:
        raise ValueError(f"--gamma values must be >= 0, got {min(gAs)}")
    env = algfamily.derive_gamma_env(Fraction(args.b), gAs)
    specs = algfamily.enumerate_algm(args.m, env)
    report = {
        "m": args.m,
        "b": str(args.b),
        "gamma": [str(g) for g in gAs],
        "count": len(specs),
        "specs": [{W: str(v) for W, v in s.items()} for s in specs],
    }
    _emit(report, args)
    return 0


def cmd_alg_chains(args) -> int:
    chains = algfamily.generate_chains(args.m)
    report = {"m": args.m, "generated": len(chains)}
    if args.greedy:
        rng = random.Random(_seed(args))
        universe = []
        for _ in range(args.samples):
            b = Fraction(rng.randrange(1, 20), 20)
            gAs = [Fraction(rng.randrange(1, 40), 20) for _ in range(args.m)]
            env = algfamily.derive_gamma_env(b, gAs)
            for spec in algfamily.enumerate_algm(args.m, env):
                universe.append((env, algfamily.canonical(spec, env, args.m)))
        cover = algfamily.greedy_cover(chains, universe)
        report["universe"] = len(universe)
        report["greedy_cover"] = len(cover)
        report["cover_chains"] = [c.label() for c in cover]
        chains = cover
    if args.iterative:
        g_bounds = [0, *CATALOGUE[table_for_m(args.m)].g_inner, 1]

        def objective(subset):
            if not subset:
                return math.inf
            model = nlp.NlpModel(m=args.m, g_bounds=g_bounds,
                                 chains=[c.params() for c in subset])
            return max(nlp._box_values(model, nlp.initial_boxes(model)))

        try:
            reduced = algfamily.iterative_addition(chains, objective)
        except ValueError as exc:
            # a chain the NLP cannot enclose, such as one using gA1 at m >= 2
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report["iterative"] = len(reduced)
        report["iterative_chains"] = [c.label() for c in reduced]
    _emit(report, args)
    return 0


def cmd_alg_run(args) -> int:
    kernel = algfamily.builtin_kernels()[args.table]
    rng = random.Random(_seed(args))
    records = []
    for trial in range(args.trials):
        if args.file:
            sol = read_instance(args.file)
        else:
            sol = synthesize_random_bipoint(
                n_clients=args.clients, n_f1=args.f1, n_f2=args.f2, k=args.k,
                seed=_seed(args) + trial)
        forest = algfamily.build_stars(sol)
        if not forest.has_secondary:
            continue
        part = algfamily.build_partition(sol, forest,
                                         CATALOGUE[args.table].g_inner)
        for ci, res, cost in algfamily.run_chains(sol, part, kernel, rng):
            records.append({
                "trial": trial, "chain": ci,
                "cost": round(cost, 6),
                "bipoint_cost": round(float(sol.cost), 6),
                "n_open": len(res.open_set), "k": sol.instance.k,
                "slack": res.slack, "seed": _seed(args) + trial,
            })
    report = {"table": args.table, "trials": args.trials,
              **_instance_link(args),
              "records": records,
              "slack_rate": (sum(r["slack"] > 0 for r in records)
                             / len(records)) if records else 0.0}
    _emit(report, args)
    return 0


# --- round ------------------------------------------------------------------


def cmd_round_sr(args) -> int:
    sol = _load_solution(args)
    rng = random.Random(_seed(args))
    t = fractional_budget(args.eps)
    open_set = star_round(sol, args.eps, rng)
    cost = connection_cost_float(sol.instance, open_set.facilities)
    report = {
        "eps": args.eps,
        "t": t,
        "k": sol.instance.k,
        "n_open": len(open_set),
        "facility_cap": sol.instance.k + 2 * t,
        "cost": cost,
        "bipoint_cost": float(sol.cost),
        "expected_cost_bound": float(sr_cost_bound(sol, args.eps)),
        "seed": _seed(args),
        "open": sorted(open_set.facilities),
    }
    report.update(_instance_link(args))
    _emit(report, args)
    return 0 if len(open_set) <= report["facility_cap"] else 1


# --- bound ------------------------------------------------------------------


def cmd_bound_run(args) -> int:
    table = table_for_m(args.m)
    g = args.g if args.g is not None else \
        [str(x) for x in CATALOGUE[table].g_inner]
    model = nlp.model_for_table(table, [Fraction(x) for x in g])
    t0 = time.time()
    try:
        cert = nlp.branch_and_bound(
            model, target=args.target, budget=args.budget_boxes,
            checkpoint=args.checkpoint, resume=args.resume,
            certificate=args.certificate,
            log=(lambda msg: print(msg, file=sys.stderr)) if args.verbose
            else None)
    except ValueError as exc:
        # a checkpoint written for another target, margin or model
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "m": args.m,
        "g": g,
        "target": args.target,
        "status": cert.status,
        "boxes_processed": cert.boxes_processed,
        "leaves": cert.n_leaves,
        "worst_box": cert.worst_box,
        "worst_value": cert.worst_value,
        "certificate": cert.certificate_path,
        "seconds": round(time.time() - t0, 3),
    }
    _emit(report, args)
    return 0 if cert.status == "certified" else 1


def _point_model(data: dict) -> tuple:
    """(m, chains) of a point description that passed the schema, after the
    checks the schema cannot make: ``m`` is the table's, ``g_bounds`` holds
    m + 1 values strictly increasing from 0, and ``env`` gives b and every
    gA_t and gC_t."""
    table = data.get("table") or table_for_m(data["m"])
    m, chains = builtin_tables()[table]
    if data["m"] != m:
        raise ValueError(f"m={data['m']}, but table {table} has m={m}")
    g = data["g_bounds"]
    if len(g) != m + 1 or g[0] != 0 or \
            any(lo >= hi for lo, hi in zip(g, g[1:])):
        raise ValueError(f"g_bounds must hold {m + 1} values strictly "
                         f"increasing from 0: {g}")
    missing = [v for v in ["b"] + [f"g{z}{t}" for z in "AC"
                                   for t in range(1, m + 1)]
               if v not in data["env"]]
    if missing:
        raise ValueError(f"env lacks {', '.join(missing)}")
    return m, chains


def cmd_bound_point(args) -> int:
    if args.preset:
        model, env, profile = nlp.PRESETS[args.preset]()
    else:
        with open(args.file) as fh:
            data = json.load(fh)
        _validate_schema(data, "point.schema.json")
        m, chains = _point_model(data)
        model = nlp.NlpModel(m=m, g_bounds=data["g_bounds"], chains=chains)
        env = data["env"]
        profile = {}
        for key, (d1, d2) in data["profile"].items():
            z, x, y = key.split(",")
            profile[(z, int(x), int(y))] = (d1, d2)
    report_obj = nlp.evaluate_point(model, env, profile,
                                    X=args.X, tol=args.tol)
    report = {
        "preset": args.preset,
        "objective": report_obj.objective,
        "sr_value": report_obj.sr_value,
        "feasible": report_obj.feasible,
        "tight": report_obj.tight,
        "costs": report_obj.costs,
        "violations": report_obj.violations,
    }
    _emit(report, args)
    return 1 if report_obj.violations else 0


# --- suite ------------------------------------------------------------------


def cmd_suite(args) -> int:
    rng = random.Random(_seed(args))
    records = []
    worst = 0.0
    for i in range(args.instances):
        seed = _seed(args) + i
        sol = synthesize_random_bipoint(
            n_clients=args.clients, n_f1=args.f1, n_f2=args.f2, k=args.k,
            seed=seed)
        result = algfamily.best_of(sol, args.eps, rng)
        ratio = result.cost / float(sol.cost)
        worst = max(worst, ratio)
        records.append({
            "instance": i, "seed": seed,
            "best": result.label,
            "cost": round(result.cost, 6),
            "bipoint_cost": round(float(sol.cost), 6),
            "ratio": round(ratio, 6),
            "n_open": len(result.open_set),
            "k": args.k,
        })
    threshold = 1.3064 * (1 + args.eps) + args.slack
    report = {
        "instances": args.instances,
        "eps": args.eps,
        "seed": _seed(args),
        "worst_ratio": round(worst, 6),
        "threshold": threshold,
        "ok": worst <= threshold,
        "records": records,
    }
    _emit(report, args)
    return 0 if report["ok"] else 1


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bipoint",
        description="bi-point rounding algorithms for k-median")
    top.add_argument("--format", choices=["json", "csv"], default="json")
    top.add_argument("--out", help="write the report to a file")
    sub = top.add_subparsers(dest="command", required=True)
    levels = sorted({t.m for t in CATALOGUE.values()})  # the m of some table

    gap = sub.add_parser("gap", help="golden gap-instance family")
    gsub = gap.add_subparsers(dest="mode", required=True)
    g = gsub.add_parser("build")
    g.add_argument("--k", type=int, required=True)
    # not args.out: that is the global --out report flag
    g.add_argument("--out", dest="out_file", required=True)
    g.set_defaults(func=cmd_gap_build)
    g = gsub.add_parser("verify")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--explicit", action="store_true",
                   help="also build the instance and re-check exactly")
    g.add_argument("--identities", action="store_true",
                   help="run the symbolic identity checks")
    g.set_defaults(func=cmd_gap_verify)
    g = gsub.add_parser("brute")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--budget", type=int, default=2_000_000)
    g.set_defaults(func=cmd_gap_brute)

    part = sub.add_parser("partition", help="partition an instance")
    _add_instance_flags(part)
    part.add_argument("--g", type=_frac, nargs="*", default=[],
                      help="inner thresholds g_1..g_{m-1}")
    part.set_defaults(func=cmd_partition)

    alg = sub.add_parser("alg", help="the partition-hierarchy family")
    asub = alg.add_subparsers(dest="mode", required=True)
    a = asub.add_parser("enumerate")
    a.add_argument("--m", type=int, required=True)
    a.add_argument("--b", type=_frac, required=True)
    a.add_argument("--gamma", type=_frac, nargs="+", required=True)
    a.set_defaults(func=cmd_alg_enumerate)
    a = asub.add_parser("chains")
    a.add_argument("--m", type=int, required=True, choices=levels)
    a.add_argument("--greedy", action="store_true")
    a.add_argument("--iterative", action="store_true")
    a.add_argument("--samples", type=int, default=40)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=cmd_alg_chains)
    a = asub.add_parser("run")
    a.add_argument("--table", choices=list(CATALOGUE), required=True)
    a.add_argument("--trials", type=int, default=10)
    _add_instance_flags(a)
    a.set_defaults(func=cmd_alg_run)

    rnd = sub.add_parser("round", help="randomized rounding")
    rsub = rnd.add_subparsers(dest="mode", required=True)
    r = rsub.add_parser("sr")
    _add_instance_flags(r)
    r.add_argument("--eps", type=float, default=0.1)
    r.set_defaults(func=cmd_round_sr)

    bound = sub.add_parser("bound", help="certified factor bounds")
    bsub = bound.add_subparsers(dest="mode")
    bp = bsub.add_parser("point")
    source = bp.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(nlp.PRESETS))
    source.add_argument("--file", help="point description JSON")
    bp.add_argument("--X", type=float, default=None)
    bp.add_argument("--tol", type=float, default=1e-6)
    bp.set_defaults(func=cmd_bound_point)
    br = bsub.add_parser("run")
    br.add_argument("--m", type=int, required=True, choices=levels)
    br.add_argument("--g", nargs="+",
                    help="inner thresholds g_1..g_{m-1} (default: the "
                    "table's own)")
    br.add_argument("--target", type=float, required=True)
    br.add_argument("--budget-boxes", type=int, default=None)
    br.add_argument("--checkpoint")
    br.add_argument("--resume", action="store_true")
    br.add_argument("--certificate")
    br.add_argument("--verbose", action="store_true")
    br.set_defaults(func=cmd_bound_run)

    st = sub.add_parser("suite", help="Monte Carlo end-to-end ratios")
    st.add_argument("--instances", type=int, default=10)
    st.add_argument("--clients", type=int, default=30)
    st.add_argument("--f1", type=int, default=3)
    st.add_argument("--f2", type=int, default=9)
    st.add_argument("--k", type=int, default=5)
    st.add_argument("--eps", type=float, default=0.1)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--slack", type=float, default=0.0,
                    help="extra Monte Carlo allowance on the ratio check")
    st.set_defaults(func=cmd_suite)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # `bound --m 2 ...` is shorthand for `bound run --m 2 ...`; the command
    # is the first token that is neither a top-level option nor the value of
    # one (every top-level option but help takes a value)
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 1 if "=" in argv[i] or argv[i] in ("-h", "--help") else 2
    if argv[i:i + 1] == ["bound"] and \
            argv[i + 1:i + 2] not in (["point"], ["run"], ["-h"], ["--help"]):
        argv.insert(i + 1, "run")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
