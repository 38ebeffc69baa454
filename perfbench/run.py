"""bipoint benchmark driver.

    python3 perfbench/run.py --workload certify_m2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout holding bipoint's sources under ``src/``.  One
workload runs in one single-threaded process; ``--workload all`` runs the five
one after another, each in its own process.

``--trace 0`` times passes of the workload with tracing off, at least three and
as many as fit in ``--seconds``, and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` spends half of ``--seconds`` on untraced
passes and half on traced ones, and reports the per-layer metrics, the tracing
overhead and the trace self-test.  Human-readable lines start with ``#``; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, with the environment
they ran in, go to ``perfbench/out/<workload>.trace<0|1>.json`` and the spans of
a traced run to ``perfbench/out/<workload>.spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("certify_m2", "probe_m3", "chain_cover", "golden_oracle", "suite")
# pinned before the interpreter starts: single-threaded BLAS, fixed str hashes
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1"}
SETUP_REPEATS = 3
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def environment(loadavg) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": loadavg,
            **{k: os.environ.get(k) for k in PINNED_ENV}}


def timed_passes(workload, inp, seconds, min_passes):
    """Passes until the next one would end past ``seconds``."""
    clock = time.perf_counter
    walls, answers = [], []
    while len(walls) < min_passes or \
            sum(walls) + statistics.median(walls) <= seconds:
        t = clock()
        answers.append(workload.run(inp))
        walls.append(clock() - t)
    return walls, answers


def check_answers(workload, inp, answers):
    """Check every answer; an answer equal to the first one skips the
    workload's costly once-per-answer checks."""
    attempted, failures = 0, []
    first = workload.digest(answers[0])
    for i, ans in enumerate(answers):
        c = workload.check(inp, ans, i == 0 or workload.digest(ans) != first)
        attempted += c.attempted
        failures += c.failures
    return attempted, failures


def run_untraced(workload, args, import_s):
    clock = time.perf_counter
    setups = []
    for _ in range(SETUP_REPEATS):
        inp = None  # drop the last inputs before building the next ones
        t = clock()
        inp = workload.setup(args.seed, str(OUT))
        setups.append(clock() - t)
    walls, answers = timed_passes(workload, inp, args.seconds, MIN_PASSES)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures = check_answers(workload, inp, answers)
    values = {"wall_s": statistics.median(walls),
              "setup_s": import_s + statistics.median(setups),
              "peak_rss_mb": rss}
    extra = {"fail_rate": len(failures) / attempted,
             **workload.extra(inp, answers)}
    q1, _, q3 = statistics.quantiles(walls, n=4)
    say(f"wall_s = {values['wall_s']:.4f} s  (median of {len(walls)} passes; "
        f"q1 {q1:.4f}, q3 {q3:.4f})")
    say(f"setup_s = {values['setup_s']:.4f} s  (import {import_s:.4f} s + "
        f"median of {len(setups)} set-ups)")
    say(f"peak_rss_mb = {rss:.1f} MB")
    say(f"fail_rate = {extra['fail_rate']}  ({len(failures)} of {attempted} "
        f"operations failed their check)")
    for name, unit in (("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
                       ("bound_at_budget", "ratio")):
        if name in extra:
            say(f"{name} = {extra[name]:.6g} {unit}"
                + (f"  (n={extra['op_samples']})" if unit == "ms" else ""))
    detail = {"passes_s": walls, "setups_s": setups, "import_s": import_s,
              "extra": extra, "failures": failures[:20]}
    return values, attempted, failures, [], detail


def run_traced(workload, args, import_s):
    import numpy as np

    import spans

    clock = time.perf_counter
    inp = workload.setup(args.seed, str(OUT))
    half = args.seconds / 2
    walls, answers = timed_passes(workload, inp, half, 1)

    tracer = spans.Tracer()
    spans.instrument(tracer)
    traced_walls, traced_answers = [], []
    try:
        tracer.begin_pass("setup")
        workload.setup(args.seed, str(OUT))
        while not traced_walls or \
                sum(traced_walls) + statistics.median(traced_walls) <= half:
            tracer.begin_pass(f"pass{len(traced_walls)}")
            t = clock()
            traced_answers.append(workload.run(inp))
            traced_walls.append(clock() - t)
    finally:
        tracer.uninstall()

    arrays = tracer.arrays()
    passes = range(1, len(tracer.passes))
    per_pass = [spans.layer_metrics(tracer.summary(k, arrays),
                                    tracer.passes[k][2]) for k in passes]
    values = {key: statistics.median(p[key] for p in per_pass)
              for key in per_pass[0]}
    values.update(spans.setup_metrics(tracer.summary(0, arrays)))
    lp_ms = 1000 * tracer.durations("nlp.solve_lp", passes, arrays)
    for name, q in (("p50_ms", 50), ("p99_ms", 99)):
        values[f"nlp.solve_lp.{name}"] = \
            float(np.percentile(lp_ms, q)) if lp_ms.size else 0.0
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    values.update({"trace.untraced_wall_s": untraced,
                   "trace.traced_wall_s": traced,
                   "trace.overhead_s": traced - untraced})

    attempted, failures = check_answers(workload, inp, answers)
    extra = workload.extra(inp, answers)
    values.update({"e2e.fail_rate": len(failures) / attempted,
                   "e2e.op_p50_ms": extra.get("op_p50_ms", 0.0),
                   "e2e.op_p90_ms": extra.get("op_p90_ms", 0.0),
                   "e2e.op_samples": extra.get("op_samples", 0),
                   "e2e.bound_at_budget": extra.get("bound_at_budget", 0.0)})

    # self-test: the trace must agree with itself and with the untraced run
    problems = tracer.nesting_problems(arrays)
    want = workload.digest(answers[0])
    if any(workload.digest(a) != want for a in traced_answers):
        problems.append("traced answer differs from the untraced one")
    for k, p in zip(passes, per_pass):
        lp = sum(p[f"nlp.lp_{s}"] for s in
                 ("optimal", "infeasible", "unbounded", "failed"))
        if lp != p["nlp.solve_lp.calls"]:
            problems.append(f"pass {k}: LP statuses sum to {lp}, "
                            f"solve_lp ran {p['nlp.solve_lp.calls']} times")
        problems += workload.trace_problems(inp, answers[0], p)

    tracer.save(str(OUT / f"{args.workload}.spans.npz"), args.workload)
    say(f"tracing overhead = {values['trace.overhead_s']:.4f} s  (traced "
        f"{traced:.4f} s over {len(traced_walls)} passes, untraced "
        f"{untraced:.4f} s over {len(walls)} passes)")
    say(f"self-test: {'ok' if not problems else '; '.join(problems)}")
    shown = sorted((v, k) for k, v in values.items()
                   if k.endswith(".s") or k.endswith("self_s"))
    for v, k in reversed(shown):
        if v > 0:
            say(f"{k} = {v:.4f} s")
    detail = {"passes_s": walls, "traced_passes_s": traced_walls,
              "import_s": import_s, "failures": failures[:20],
              "self_test": problems, "spans": len(tracer.start)}
    return values, attempted, failures, problems, detail


def emit(listed, values, correct, attempted, failed) -> None:
    metrics = {}
    for m in listed:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v if isinstance(v, int) else float(v),
                              "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def run_all(args) -> int:
    """Each workload in its own process; prints a combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        say(f"--- {name}")
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            say(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total), flush=True)
    return 0


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (SRC / "bipoint" / "__init__.py").is_file():
        sys.exit(f"error: no bipoint sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    if args.workload == "all":
        return run_all(args)
    loadavg = os.getloadavg()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bipoint.cli  # everything a CLI invocation imports
    import_s = time.perf_counter() - t0
    if Path(bipoint.__file__).resolve().parent != SRC / "bipoint":
        sys.exit(f"error: imported bipoint from {bipoint.__file__}")

    import workloads

    OUT.mkdir(exist_ok=True)
    env = environment(loadavg)
    say(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    say(f"env {json.dumps(env)}")
    workload = workloads.WORKLOADS[args.workload]
    if not workload.seeded:
        say("this workload's inputs are fixed; the seed has no effect")
    run = run_traced if args.trace else run_untraced
    values, attempted, failures, problems, detail = run(workload, args,
                                                        import_s)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    correct = not failures and not problems
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "correct": correct,
                   "attempted": attempted, "failed": len(failures),
                   "metrics": values, **detail}, fh, indent=1, default=str)
    emit(listed, values, correct, attempted, len(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
