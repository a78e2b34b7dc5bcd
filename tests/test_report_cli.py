import csv
import hashlib
import json
import os

import pytest

from satgrowth import (annealed, cli, cnf, dpll, ensemble, growth, native,
                       oracle, report, trajectory)
from satgrowth.ensemble import EnsembleConfig, extrapolate_omega, run_ensemble


def _read_header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def _digest(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# Golden outputs recorded before clauses became packed-int buffers; they pin
# the generator's draw order, the DIMACS text and the solver's tree.
_GOLDEN_SOLVE = ('{"alpha0": 4.166666666666667, "b_leaves": 7, "g_node": '
                 '[1.0, 4.166666666666667, 0.0], "heuristic": "GUC", '
                 '"n_vars": 12, "q_splits": 6, "result": "unsat", "seed": 2}')
_GOLDEN_B = ("B(T): 1 2 4 559366573/126977760 2278385989/507911040 "
             "2278385989/507911040 2278385989/507911040 2278385989/507911040")


def test_cli_gen_solve_roundtrip(tmp_path, capsys):
    assert cli.main(["gen", "--n-vars", "20", "--n2", "15", "--n3", "40",
                     "--seed", "9"]) == 0
    assert _digest(capsys.readouterr().out.encode()) == \
        "f8112006e1870497e763d437e473add8"
    assert cli.main(["gen", "--n-vars", "12", "--n3", "50", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    assert _digest(text.encode()) == "91086f903b2b70d1e9924e6cbd38e5e1"
    cnf_path = str(tmp_path / "inst.cnf")
    assert cli.main(["gen", "--n-vars", "12", "--n3", "50", "--seed", "4",
                     "--out", cnf_path]) == 0
    assert open(cnf_path).read() == text
    inst = cnf.read_dimacs(cnf_path)
    assert inst.n_vars == 12 and inst.n_clauses == 50
    json_path = str(tmp_path / "run.json")
    assert cli.main(["solve", cnf_path, "--seed", "2", "--json", json_path]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line == _GOLDEN_SOLVE
    rec = json.loads(line)
    assert rec["result"] in ("sat", "unsat")
    assert rec["n_vars"] == 12
    full = json.load(open(json_path))
    assert set(full) == {"result", "q_splits", "b_leaves", "g_node", "cloud",
                         "seed", "heuristic", "n_vars", "alpha0"}
    assert _digest(open(json_path, "rb").read()) == \
        "567f0b4127915dc09ccc74c771b2ffd7"


def test_cli_solve_records_cloud_only_for_json(tmp_path, capsys, monkeypatch):
    # the cloud is written only by --json, so a plain solve does not record it
    cnf_path = str(tmp_path / "inst.cnf")
    assert cli.main(["gen", "--n-vars", "12", "--n3", "50", "--seed", "4",
                     "--out", cnf_path]) == 0
    capsys.readouterr()
    flags = []
    solve = dpll.solve

    def spy(*args, record_cloud):
        flags.append(record_cloud)
        return solve(*args, record_cloud=record_cloud)

    monkeypatch.setattr(dpll, "solve", spy)
    json_path = str(tmp_path / "run.json")
    for argv in ([], ["--no-cloud"], ["--json", json_path, "--no-cloud"],
                 ["--json", json_path]):
        assert cli.main(["solve", cnf_path, "--seed", "2", *argv]) == 0
        assert capsys.readouterr().out.strip() == _GOLDEN_SOLVE
    assert flags == [False, False, False, True]
    assert len(json.load(open(json_path))["cloud"]) == 6


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_cli_oracle(tmp_path, capsys, monkeypatch):
    cnf_path = str(tmp_path / "small.cnf")
    cli.main(["gen", "--n-vars", "6", "--n3", "38", "--seed", "11",
              "--out", cnf_path])
    builds = _counting(monkeypatch, oracle, "build_evolution_operator")
    checks = _counting(monkeypatch, oracle, "brute_force_satisfiable")
    sums = _counting(monkeypatch, oracle, "branch_function_sequence")
    assert cli.main(["oracle", cnf_path, "--mc", "500"]) == 0
    assert len(builds) == 1 and len(checks) == 1 and len(sums) == 1
    out = capsys.readouterr().out
    assert "B(T):" in out and "monte carlo leaves:" in out
    lines = out.splitlines()
    assert lines[0] == "operator: 507 reachable states, 1122 nonzeros"
    assert lines[1] == _GOLDEN_B
    assert lines[2] == "T* = 4, B* = 2278385989/507911040"
    assert lines[3] == "monte carlo leaves: 4.506000 +- 0.030689 (500 runs)"


def test_cli_oracle_rejects_negative_mc(tmp_path, capsys):
    # a negative trial count is refused when the arguments are parsed,
    # before the operator is built; 0 keeps the Monte Carlo check off
    cnf_path = str(tmp_path / "small.cnf")
    cli.main(["gen", "--n-vars", "6", "--n3", "38", "--seed", "11",
              "--out", cnf_path])
    capsys.readouterr()
    for mc in ("-5", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", cnf_path, "--mc", mc])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--mc: must be 0 or more" in captured.err, mc
    assert cli.main(["oracle", cnf_path, "--mc", "0"]) == 0
    out = capsys.readouterr().out
    assert "B(T):" in out and "monte carlo" not in out


def test_cli_error_exit(tmp_path, capsys):
    assert cli.main(["oracle", "/nonexistent/file.cnf"]) == 1
    assert "error:" in capsys.readouterr().err
    # DIMACS headers that the file contradicts, that declare no variables,
    # or more than the kernels' int32 literals hold
    for name, text in (("short.cnf", "p cnf 3 5\n1 -2 3 0\n"),
                       ("empty.cnf", "p cnf 0 0\n"),
                       ("huge.cnf", "p cnf 4294967298 1\n5 0\n")):
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
    # annealed chains that cannot run: too few variables, an empty clause
    # ratio, a pruning threshold that removes everything
    for argv in (["--n-vars", "0"], ["--n-vars", "3"], ["--n-vars", "5"],
                 ["--n-vars", "30", "--pruning", "2"],
                 ["--n-vars", "30", "--pruning", "-1"]):
        assert cli.main(["annealed", "--alpha0", "10", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == "", argv
    for alpha0 in ("0", "inf", "nan"):
        assert cli.main(["annealed", "--alpha0", alpha0, "--n-vars", "30"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err, alpha0
    # an ensemble, a cloud, a surface or a branch trajectory needs a
    # positive, finite alpha0, from a flag or from a config file
    config = tmp_path / "inf.cfg"
    config.write_text("schema_version = 1\nalpha0 = inf\nn_values = 10\n")
    cloud = str(tmp_path / "cloud.csv")
    surface = str(tmp_path / "surface.csv")
    branch = str(tmp_path / "trajectory.csv")
    for argv in (["ensemble", "--alpha0", "inf", "--n-values", "10"],
                 ["ensemble", "--alpha0", "-3", "--n-values", "10"],
                 ["ensemble", "--alpha0", "nan", "--n-values", "10"],
                 ["ensemble", "--config", str(config)],
                 ["report", "cloud", "--out", cloud, "--alpha0", "inf"],
                 ["report", "cloud", "--out", cloud, "--alpha0", "-3"],
                 ["report", "surface", "--out", surface, "--alpha0", "inf"],
                 ["report", "surface", "--out", surface, "--alpha0", "-3"],
                 ["ode", "--out", branch, "--alpha0", "inf"],
                 ["ode", "--out", branch, "--alpha0", "nan"]):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "error: alpha0 must be positive and finite" in captured.err, argv
        assert captured.out == "", argv
    # a surface needs a time in [0, 1)
    for t in ("nan", "inf", "-0.1"):
        assert cli.main(["report", "surface", "--out", surface, "--t", t]) == 1, t
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == "", t
    for path in (cloud, surface, branch):
        assert not os.path.exists(path), path
    # an ensemble needs at least one N, each large enough for a 3-clause
    for n_values, message in (("", "at least one N"), ("2", "every N must be >= 3"),
                              ("2,10", "every N must be >= 3")):
        argv = ["ensemble", "--alpha0", "10", "--n-values", n_values]
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err and message in captured.err, argv
        assert "Traceback" not in captured.err and captured.out == "", argv
    # growth PDE inputs: --alpha0 missing or not positive without --g, G
    # points off the phase diagram (p outside [0, 1], alpha <= 0, t
    # outside [0, 1)) for pde and for the Table 1 upper-sat row, and
    # critical-line tables holding a point that is not finite
    table = str(tmp_path / "table1.csv")
    critical = []
    for i, point in enumerate(("0.7,nan", "0.7,inf", "nan,3.0")):
        path = tmp_path / f"critical{i}.csv"
        path.write_text(f"p,alpha_c\n{point}\n1.0,4.3\n")
        critical += [["ode", "--alpha0", "3.5", "--find-g",
                      "--critical-table", str(path)],
                     ["pde", "--alpha0", "3.5", "--upper-sat",
                      "--critical-table", str(path)]]
    for argv in (["pde"], ["pde", "--upper-sat"], ["pde", "--alpha0", "-5"],
                 ["pde", "--alpha0", "0"], ["pde", "--g", "1.5,3.0,0.2"],
                 ["pde", "--g", "0.8,0,0.2"], ["pde", "--g", "0.8,3.0,-0.1"],
                 ["pde", "--g", "0.8,3.0,1.0"],
                 ["report", "table1", "--out", table, "--g", "0.5,-3,0.2"],
                 *critical):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == "", argv
    assert not os.path.exists(table)


def test_cli_oracle_out_of_memory(tmp_path, capsys):
    # 3^40 states: the oracle kernel refuses the walk as out of memory
    if native._compiler() is None:
        pytest.skip("no C compiler (gcc): the Python walk builds this closure")
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 40 1\n1 2 3 0\n")
    assert cli.main(["oracle", str(path), "--cap", "40"]) == 1
    assert "error: oracle kernel out of memory" in capsys.readouterr().err


def test_cli_ode_pde_annealed(capsys):
    assert cli.main(["pde", "--alpha0", "10"]) == 0
    assert "omega_THE = 0.0323" in capsys.readouterr().out
    assert cli.main(["ode", "--alpha0", "3.5", "--find-g"]) == 0
    assert "G: t =" in capsys.readouterr().out
    assert cli.main(["annealed", "--alpha0", "10", "--n-vars", "30"]) == 0
    assert "log2(peak mass)/N" in capsys.readouterr().out


def test_cli_annealed_out_runs_chain_once(tmp_path, capsys, monkeypatch):
    runs = []
    chain = annealed.evolve_branch_counts

    def counted(*args, **kwargs):
        runs.append(args)
        return chain(*args, **kwargs)
    monkeypatch.setattr(annealed, "evolve_branch_counts", counted)
    path = tmp_path / "mass.csv"
    assert cli.main(["annealed", "--alpha0", "10", "--n-vars", "30",
                     "--out", str(path)]) == 0
    assert len(runs) == 1
    assert capsys.readouterr().out == (
        f"wrote {path}\nlog2(peak mass)/N = 0.09375 at T = 6 (peak mass 7.025)\n"
        "pruned mass / peak mass = 3.73e-08\n")
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"T,total_mass,mean_c2,mean_c3,pruned_mass"
    assert lines[1] == b"0,1,0,300,0"
    # without the pruned_mass column the file is byte for byte the one
    # written before that column was added
    first4 = b"\r\n".join(b",".join(line.split(b",")[:4]) for line in lines)
    assert _digest(first4) == \
        "a3fff550b13c6491a54f99de7b76a1ff"


def test_config_file_parsing(tmp_path, capsys):
    cfg = tmp_path / "ens.cfg"
    cfg.write_text("schema_version = 1\nalpha0 = 5.0\nn_values = 12,16\n"
                   "trials_per_n = 10\nbase_seed = 3\n# comment\n")
    assert cli.main(["ensemble", "--config", str(cfg), "--workers", "1"]) == 0
    # flags override file values
    out_path = tmp_path / "recs.csv"
    assert cli.main(["ensemble", "--config", str(cfg), "--trials", "5",
                     "--out", str(out_path), "--workers", "1"]) == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # 5 trials x 2 sizes
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha0 = 5.0\n")
    assert cli.main(["ensemble", "--config", str(bad), "--workers", "1"]) == 1


def test_ensemble_requires_n_values(capsys):
    assert cli.main(["ensemble", "--alpha0", "5", "--workers", "1"]) == 1
    assert "n_values required" in capsys.readouterr().err


def test_ensemble_config_rejects_unknown_keys(tmp_path, capsys):
    # a misspelt key is an error, not a silent default
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("schema_version = 1\nalpha0 = 5.0\nn_values = 12\n"
                   "trials = 30\n")
    assert cli.main(["ensemble", "--config", str(cfg), "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert "trials" in captured.err and captured.out == ""


def test_cli_ensemble_measure_g_reuses_run(monkeypatch, capsys):
    # the CLI holds its own reference to run_ensemble; count both names
    cli_runs = _counting(monkeypatch, cli, "run_ensemble")
    lib_runs = _counting(monkeypatch, ensemble, "run_ensemble")
    assert cli.main(["ensemble", "--alpha0", "3.5", "--n-values", "40,50",
                     "--trials", "20", "--seed", "3", "--workers", "1",
                     "--measure-g"]) == 0
    assert len(cli_runs) + len(lib_runs) == 1
    # the records at the first N, so the line is the one a separate
    # ensemble at N=40 alone gave
    assert capsys.readouterr().out == (
        "G: p = 0.7457 +- 0.0416, alpha = 2.9695 +- 0.1131, "
        "t = 0.2071 +- 0.0365 (14/20 backtracking sat runs)\n")


def test_cli_pde_out_solves_once(tmp_path, monkeypatch, capsys):
    solves = _counting(monkeypatch, growth, "solve_characteristics")
    path = tmp_path / "series.csv"
    assert cli.main(["pde", "--alpha0", "10", "--out", str(path)]) == 0
    assert len(solves) == 1
    assert capsys.readouterr().out == (
        f"wrote {path}\nhalt at t = 0.09573; omega_THE = 0.03230 bits\n")


def test_cli_ode_alpha_l_bisects_once(monkeypatch, capsys):
    searches = _counting(monkeypatch, trajectory, "find_alpha_l")
    assert cli.main(["ode", "--alpha-l", "--heuristic", "GUC"]) == 0
    assert len(searches) == 1
    assert capsys.readouterr().out == (
        "alpha_L(GUC) = 3.00348; tangency p = 0.39998 at t = 0.52889\n")


def test_report_table1(tmp_path):
    cfg = EnsembleConfig(10.0, [20, 30, 40], 30, base_seed=6, parallelism=2)
    est = extrapolate_omega(run_ensemble(cfg))
    path = report.report_table1(str(tmp_path / "table1.csv"), {10.0: est},
                                unsat_alphas=(10.0, 20.0),
                                upper_sat_alpha=None)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha0"] for r in rows] == ["10", "20"]
    assert abs(float(rows[0]["omega_the"]) - 0.0323) < 0.001
    assert rows[0]["omega_exp"] != ""
    assert float(rows[1]["asymptote"]) == pytest.approx(0.2915420119866045 / 20)


def test_report_phase_diagram_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    p1 = report.report_phase_diagram(str(d1), branch_alphas=(2.0,),
                                     tree_alphas=(10.0,))
    p2 = report.report_phase_diagram(str(d2), branch_alphas=(2.0,),
                                     tree_alphas=(10.0,))
    for key in p1:
        assert open(p1[key], "rb").read() == open(p2[key], "rb").read()
    assert _read_header(p1["trajectories"]) == ["kind", "alpha0", "t", "p",
                                                "alpha"]
    assert _read_header(p1["lines"]) == ["p", "alpha_critical", "alpha_halt"]


def test_report_cloud_and_mass(tmp_path):
    cloud = report.report_cloud(str(tmp_path / "cloud.csv"), 4.3, 30, 2)
    assert _read_header(cloud) == ["p", "alpha", "t"]
    with open(cloud, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 3
    mass = report.write_mass_curve(str(tmp_path / "mass.csv"),
                                   annealed.mass_curve(10.0, 30))
    assert _read_header(mass) == ["T", "total_mass", "mean_c2", "mean_c3",
                                  "pruned_mass"]


def test_report_surface(tmp_path):
    path = report.report_surface(
        str(tmp_path / "surf.csv"),
        growth.legendre_surface(10.0, "GUC", 0.03, n_fan=9, grid=(8, 8)))
    assert _read_header(path) == ["p", "alpha", "omega_nats"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64


def test_cli_report_command(tmp_path, capsys):
    out = str(tmp_path / "cloud.csv")
    assert cli.main(["report", "cloud", "--out", out, "--alpha0", "4.3",
                     "--n-vars", "25", "--seed", "3"]) == 0
    assert os.path.exists(out)
