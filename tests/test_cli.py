"""Command-line plumbing: routing, exit codes, determinism, emission."""

import json
import os
import re
from types import SimpleNamespace

import pytest

from bipoint import cli
from bipoint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gap", "verify", "--bogus-flag"])
    assert exc.value.code == 2


def test_gap_verify(capsys):
    code, rep = run_json(capsys, "gap", "verify", "--k", "200")
    assert code == 0
    assert set(rep["checks"]) == {
        "a_plus_b_equals_1", "F1_at_most_k", "F2_at_least_k", "mass_equals_k"}
    assert all(rep["checks"].values())
    assert len(rep["vertices"]) == 5


def test_gap_build_and_partition_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "g.inst")
    code, rep = run_json(capsys, "gap", "build", "--k", "6", "--out", path)
    assert code == 0 and os.path.exists(path)
    assert len(rep["hash"]) == 64
    built_hash = rep["hash"]
    code, rep = run_json(capsys, "partition", "--file", path,
                         "--g", "0.6586")
    assert code == 0
    assert rep["bipoint"]["valid"]
    assert rep["instance_hash"] == built_hash  # report cross-links its input


def test_no_algorithm_beats_the_brute_force_optimum():
    import random
    from bipoint import golden
    from bipoint.algfamily import best_of

    sol = golden.build_golden(8)
    _, opt = golden.brute_force_opt(sol.instance)
    res = best_of(sol, 0.1, random.Random(0))
    # the star-rounding candidate may open more than k facilities and slip
    # under the k-facility optimum; everything constrained to k cannot
    k_costs = [cost for _, cost, n_open in res.records
               if n_open <= sol.instance.k]
    assert k_costs and min(k_costs) >= float(opt) - 1e-9


def test_gap_brute_exit_codes(capsys):
    code, rep = run_json(capsys, "gap", "brute", "--k", "6")
    assert code == 0 and rep["dominates_vertex_bound"]


def test_gap_brute_times_with_perf_counter(capsys, monkeypatch):
    """`seconds` comes from the monotonic clock, as in `bound run`."""
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(cli, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))
    code, rep = run_json(capsys, "gap", "brute", "--k", "6")
    assert code == 0 and rep["seconds"] == 2.5


def test_alg_enumerate(capsys):
    code, rep = run_json(capsys, "alg", "enumerate", "--m", "1",
                         "--b", "1/2", "--gamma", "2/3")
    assert code == 0 and rep["count"] == 4
    code, _ = run(capsys, "alg", "enumerate", "--m", "2",
                  "--b", "1/2", "--gamma", "2/3")
    assert code == 2  # wrong number of gammas


@pytest.mark.parametrize("argv,message", [
    (["--m", "1", "--b", "1/2", "--gamma", "-1"],
     "--gamma values must be >= 0, got -1"),
    (["--m", "1", "--b", "3/2", "--gamma", "1/2"],
     "--b must lie in [0, 1], got 3/2"),
    (["--m", "2", "--b=-1/4", "--gamma", "1/2", "1/2"],
     "--b must lie in [0, 1], got -1/4"),
    # argparse before 3.13 read a separate -1/2 as an option
    (["--m", "1", "--b", "-1/2", "--gamma", "1/2"],
     "--b must lie in [0, 1], got -1/2"),
    (["--m", "2", "--b", "1/2", "--gamma", "1/2", "-1/3"],
     "--gamma values must be >= 0, got -1/3"),
], ids=["negative-gamma", "b-above-1", "b-below-0", "b-fraction-below-0",
        "negative-gamma-fraction"])
def test_alg_enumerate_refuses_points_outside_the_domain(capsys, argv,
                                                        message):
    code = main(["alg", "enumerate", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("m", ["0", "4"])
def test_alg_chains_takes_the_levels_of_a_table(capsys, m):
    # --m 0 crashed in greedy_cover; --m 4 walked ~20 M orders
    with pytest.raises(SystemExit) as exc:
        main(["alg", "chains", "--m", m, "--greedy"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_alg_chains_iterative(capsys):
    code, rep = run_json(capsys, "alg", "chains", "--m", "1", "--iterative")
    assert code == 0 and rep["iterative"] >= 1
    # generated m >= 2 chains divide by gA1, which the NLP box has no axis for
    code = main(["alg", "chains", "--m", "2", "--iterative"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "gA1" in captured.err


def test_alg_run_records(capsys):
    code, rep = run_json(capsys, "alg", "run", "--table", "alg2",
                         "--trials", "2", "--k", "5", "--seed", "3")
    assert code == 0
    for r in rep["records"]:
        assert r["n_open"] <= r["k"]


def test_round_sr_cap_and_seed_env(capsys, monkeypatch):
    code, rep = run_json(capsys, "round", "sr", "--k", "5", "--seed", "1")
    assert code == 0
    assert rep["n_open"] <= rep["facility_cap"]
    monkeypatch.setenv("BIPOINT_SEED", "99")
    code, rep2 = run_json(capsys, "round", "sr", "--k", "5", "--seed", "1")
    assert rep2["seed"] == 99


def test_bound_point_presets(capsys):
    code, rep = run_json(capsys, "bound", "point",
                         "--preset", "hard-point-s3")
    assert code == 0
    assert rep["objective"] == pytest.approx(1.2943, abs=5e-4)
    code, rep = run_json(capsys, "bound", "point", "--preset", "m1-feasible")
    assert code == 0 and rep["feasible"]


def test_bound_point_exits_1_on_violations(capsys):
    code, rep = run_json(capsys, "bound", "point", "--preset", "m1-feasible",
                         "--X", "2")
    assert rep["violations"] and not rep["feasible"]
    assert code == 1


def test_bound_point_needs_a_preset_or_a_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "point"])
    assert exc.value.code == 2
    assert "one of the arguments --preset --file is required" in \
        capsys.readouterr().err


def _hard_point_spec():
    """The hard-point-s3 preset as a point description."""
    from bipoint.nlp import preset_hard_point_s3
    model, env, profile = preset_hard_point_s3()
    return {
        "m": model.m,
        "g_bounds": [float(g) for g in model.g_bounds],
        "table": "uniform",
        "env": {k: float(v) for k, v in env.items()},
        "profile": {f"{z},{x},{y}": [float(d1), float(d2)]
                    for (z, x, y), (d1, d2) in profile.items()},
    }


def test_bound_point_from_file(tmp_path, capsys):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(_hard_point_spec()))
    code, rep = run_json(capsys, "bound", "point", "--file", str(path))
    assert code == 0
    assert rep["objective"] == pytest.approx(1.2943, abs=5e-4)


@pytest.mark.parametrize("change,message", [
    ({"g_bounds": [0, 1]}, "g_bounds must hold 3 values strictly increasing"),
    ({"g_bounds": [0, 0.7, 0.5]}, "g_bounds must hold 3 values strictly"),
    ({"env": {"b": 0.68, "gA2": 0.7478, "gC1": 0.6709, "gC2": 0.3291}},
     "env lacks gA1"),
    ({"m": 3}, "m=3, but table uniform has m=2"),
], ids=["short-g_bounds", "decreasing-g_bounds", "no-gA1", "m-not-table"])
def test_point_file_inconsistent_with_its_table_exits_1(tmp_path, capsys,
                                                        change, message):
    """A point description that passes the schema but does not fit its
    table is refused like a schema rejection."""
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({**_hard_point_spec(), **change}))
    code = main(["bound", "point", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err


def test_bound_run_shorthand(capsys, tmp_path):
    # `bound --m 2 ...` routes to `bound run` and certifies a loose target
    cert = str(tmp_path / "c.ndjson")
    code, rep = run_json(capsys, "bound", "--m", "2", "--g", "0.6586",
                         "--target", "1.45", "--budget-boxes", "50000",
                         "--certificate", cert)
    assert code == 0 and rep["status"] == "certified"
    assert os.path.exists(cert)


def test_bound_run_m1_and_default_thresholds(capsys):
    # without --g a table runs at its own thresholds, none at m = 1
    code, rep = run_json(capsys, "bound", "--m", "1", "--target", "1.37")
    assert code == 0 and rep["status"] == "certified" and rep["g"] == []
    # below the one-level factor (1 + sqrt(3))/2 ~ 1.36603 nothing certifies
    code, rep = run_json(capsys, "bound", "--m", "1", "--target", "1.36",
                         "--budget-boxes", "1000")
    assert code == 1 and rep["status"] == "exhausted-budget"
    code, rep = run_json(capsys, "bound", "--m", "2", "--target", "1.6",
                         "--budget-boxes", "60")
    assert code == 0 and rep["g"] == ["3293/5000"]


def test_bound_shorthand_after_top_level_options(capsys, tmp_path):
    # the shorthand applies to the command token, after the global options
    report = tmp_path / "r.json"
    code, _ = run(capsys, "--format", "json", f"--out={report}", "bound",
                  "--m", "2", "--g", "0.6586", "--target", "1.45",
                  "--budget-boxes", "50000")
    assert code == 0
    assert json.loads(report.read_text())["status"] == "certified"


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_bound_run_refuses_a_budget_below_one(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "run", "--m", "2", "--target", "1.35",
              "--budget-boxes", budget])
    assert exc.value.code == 2
    assert "--budget-boxes: must be at least 1" in capsys.readouterr().err


def test_bound_replay_exit_codes(capsys, tmp_path):
    """`bound replay` exits 0 on a certificate that proves its target and 1
    on the same file with a leaf taken out."""
    cert = tmp_path / "c.ndjson"
    model = ("--m", "2", "--g", "0.6586", "--target", "1.45")
    code, rep = run_json(capsys, "bound", *model, "--certificate", str(cert))
    assert code == 0 and rep["leaves"] > 1
    # the run's layer split
    assert rep["lp_solves"] >= rep["boxes_processed"]
    assert rep["enclose_s"] >= 0 and rep["solve_s"] >= 0
    assert rep["simplex_iterations"] > 0
    code, out = run_json(capsys, "bound", "replay", *model,
                         "--certificate", str(cert))
    assert code == 0 and out == {"valid": True, "leaves": rep["leaves"]}
    lines = cert.read_text().splitlines(keepends=True)
    del lines[len(lines) // 2]
    cert.write_text("".join(lines))
    code, out = run_json(capsys, "bound", "replay", *model,
                         "--certificate", str(cert))
    assert code == 1 and out == {"valid": False, "leaves": rep["leaves"] - 1}


def test_bound_replay_reads_its_certificate_once(capsys, tmp_path,
                                                monkeypatch):
    """`bound replay` counts the leaves from the lines it replays, so it
    opens the certificate once."""
    cert = tmp_path / "c.ndjson"
    model = ("--m", "1", "--target", "1.37")
    code, rep = run_json(capsys, "bound", *model, "--certificate", str(cert))
    assert code == 0
    opened = []
    real_open = open

    def counted(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    code, out = run_json(capsys, "bound", "replay", *model,
                         "--certificate", str(cert))
    assert code == 0 and out == {"valid": True, "leaves": rep["leaves"]}
    assert opened.count(str(cert)) == 1


def test_bound_run_reports_progress_every_checkpoint_interval(capsys,
                                                              monkeypatch):
    """`bound run` writes a progress line to stderr every CHECKPOINT_EVERY
    boxes, and nothing in a shorter run; the report is unchanged."""
    args = ("bound", "--m", "1", "--target", "1.37")
    assert main(list(args)) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    monkeypatch.setattr(cli.nlp, "CHECKPOINT_EVERY", 100)
    assert main(list(args)) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.split()[0] for line in lines] == \
        ["boxes=100", "boxes=200", "boxes=300"]
    assert all(re.fullmatch(r"boxes=\d+ worklist=\d+ worst=\d+\.\d{6}", line)
               for line in lines), lines
    rep, want = json.loads(captured.out), json.loads(quiet.out)
    assert (rep["status"], rep["boxes_processed"], rep["leaves"]) == \
        ("certified", 344, 238)
    for timing in ("enclose_s", "solve_s", "seconds"):
        del rep[timing], want[timing]
    assert rep == want
    with pytest.raises(SystemExit) as exc:
        main([*args, "--verbose"])
    assert exc.value.code == 2


@pytest.mark.parametrize("g", [["--m", "2", "--g", "0"],
                               ["--m", "2", "--g", "1.5"],
                               ["--m", "3", "--g", "0.9", "0.5"]],
                         ids=["zero", "above-1", "decreasing"])
def test_bound_run_refuses_thresholds_no_partition_has(capsys, g):
    code = main(["bound", "run", *g, "--target", "1.4", "--budget-boxes", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "thresholds must be strictly increasing in (0,1)" in captured.err


@pytest.mark.parametrize("damage", ["no-gA2", "three-numbers"])
def test_bound_resume_from_an_unreadable_worklist_box_exits_2(capsys,
                                                              tmp_path,
                                                              damage):
    ck, cert = tmp_path / "state.json", tmp_path / "c.ndjson"
    args = ("bound", "run", "--m", "2", "--g", "0.6586", "--target", "1.35",
            "--budget-boxes", "100", "--checkpoint", str(ck),
            "--certificate", str(cert))
    code, rep = run_json(capsys, *args)
    assert code == 1 and rep["status"] == "exhausted-budget"
    state = json.loads(ck.read_text())
    box = state["worklist"][0]["box"]
    if damage == "no-gA2":
        del box["gA2"]
    else:
        box["b"] = [0.0, 0.5, 1.0]
    ck.write_text(json.dumps(state))
    cert.write_text('{"box": {"b": [0.0, 1.0]}, "lp_value": 1.0}\n')
    written = cert.read_bytes()
    code = main([*args, "--resume"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: box record {box!r}" in captured.err
    assert cert.read_bytes() == written


def test_bound_resume_against_another_target_exits_2(capsys, tmp_path):
    ck, cert = str(tmp_path / "state.json"), str(tmp_path / "c.ndjson")
    args = ("bound", "run", "--m", "2", "--g", "0.6586", "--budget-boxes",
            "60", "--checkpoint", ck, "--certificate", cert)
    code, rep = run_json(capsys, *args, "--target", "1.6")
    assert code == 0 and rep["boxes_processed"] == 38
    code = main([*args, "--target", "1.25", "--resume"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "target 1.6 (this run: 1.25)" in captured.err
    # the run it was written for still resumes
    code, rep = run_json(capsys, *args, "--target", "1.6", "--resume")
    assert code == 0 and rep["status"] == "certified"


def test_bound_resume_without_a_checkpoint_exits_2(capsys):
    code = main(["bound", "run", "--m", "1", "--target", "1.37", "--resume"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "needs a checkpoint" in captured.err


def test_bound_resume_onto_another_audit_file_exits_2(capsys, tmp_path):
    """Resuming a finished run onto a new audit file would pad the file with
    NUL bytes up to the length the checkpoint records and report it as a
    certificate."""
    ck = str(tmp_path / "state.json")
    args = ("bound", "run", "--m", "2", "--target", "1.6", "--checkpoint", ck)
    code, _ = run_json(capsys, *args, "--certificate",
                       str(tmp_path / "a.ndjson"))
    assert code == 0
    other = tmp_path / "b.ndjson"
    code = main([*args, "--resume", "--certificate", str(other)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "is missing" in captured.err and not other.exists()


def test_report_file_named_bound_is_not_the_bound_command(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, "--out", "bound", "gap", "verify", "--k", "8")
    assert code == 0
    assert json.loads((tmp_path / "bound").read_text())["k"] == 8


def test_suite_zero_instances(capsys):
    code, rep = run_json(capsys, "suite", "--instances", "0")
    assert code == 0 and rep["records"] == []


def test_suite_deterministic_given_seed(capsys):
    args = ("suite", "--instances", "2", "--clients", "15", "--seed", "5")
    code1, rep1 = run_json(capsys, *args)
    code2, rep2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert rep1 == rep2


def test_csv_emission(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code, _ = run(capsys, "--format", "csv", "--out", out,
                  "suite", "--instances", "2", "--clients", "10")
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0].startswith("instance,seed,best")
    assert len(lines) == 3


def test_point_file_schema_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 2, "g_bounds": [0, 1],
                                "env": {"bogus_key": 1}, "profile": {}}))
    code, _ = run(capsys, "bound", "point", "--file", str(path))
    assert code == 1


def test_reports_match_bundled_schemas(capsys):
    import jsonschema
    from importlib import resources

    def schema(name):
        ref = resources.files("bipoint") / "schemas" / name
        return json.loads(ref.read_text())

    _, rep = run_json(capsys, "suite", "--instances", "2", "--clients", "12")
    jsonschema.validate(rep, schema("suite-report.schema.json"))
    _, rep = run_json(capsys, "bound", "--m", "2", "--g", "0.6586",
                      "--target", "1.45", "--budget-boxes", "20000")
    jsonschema.validate(rep, schema("bound-report.schema.json"))


def test_missing_file_exits_1(capsys):
    code, _ = run(capsys, "partition", "--file", "/nonexistent/x.inst")
    assert code == 1
