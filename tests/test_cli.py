import json
from pathlib import Path

import numpy as np
import pytest

from dataclasses import fields

from mfgtorus import ManufacturedCase, NewtonOptions, StepOptions, TrigForm, load_field, save_field
from mfgtorus.cli import build_parser, main
from mfgtorus.config import DiagnosticsConfig, load_config, parse_config
from mfgtorus.errors import ConfigError
from mfgtorus.solver import newton_tolerance


def base_config(**overrides):
    doc = {
        "problem": {
            "dim": 1,
            "n": 64,
            "alpha": 0.5,
            "potential": {"form": "separable", "kappa": 1.0, "a_cos": [0.5], "a_sin": [0.0]},
            "drift": {"components": [{"const": 0.0, "cos": [0.0], "sin": [0.3]}]},
            "epsilon_monotone": 0.0,
        }
    }
    doc.update(overrides)
    return doc


def reference_2d_config(n, **overrides):
    """The 2-D reference problem: a(x) = 0.5 (cos 2 pi x + cos 2 pi y), b = 0.3 (sin 2 pi x, sin 2 pi y)."""
    doc = {
        "problem": {
            "dim": 2,
            "n": n,
            "alpha": 0.5,
            "potential": {"form": "separable", "kappa": 1.0, "a_cos": [0.5, 0.5], "a_sin": [0.0, 0.0]},
            "drift": {"components": [{"const": 0.0, "cos": [0.0, 0.0], "sin": [0.3, 0.0]},
                                     {"const": 0.0, "cos": [0.0, 0.0], "sin": [0.0, 0.3]}]},
        }
    }
    doc.update(overrides)
    return doc


def every_key_config():
    """mms and sweep sections, and a non-default value in every solver, continuation and diagnostics key."""
    return base_config(
        solver={"tol_residual": 1e-9, "max_iters": 40, "positivity_fraction": 0.2, "armijo_c": 1e-3,
                "min_damping": 1e-5},
        continuation={"initial_step": 0.05, "growth": 2.0, "shrink": 0.25, "max_step": 0.5,
                      "min_step": 1e-5, "grow_iters": 4},
        diagnostics={"r_values": [1.5, 3.0], "checks": ["mass", "sup", "identity"],
                     "identity_budget_factor": 25.0},
        output={"dump_matrix": True},
        seed=7,
        mms={"grids": [16, 32, 64], "u": {"const": 0.1, "cos": [0.2], "sin": [0.0]},
             "m": {"const": 1.0, "cos": [0.25], "sin": [0.1]}},
        sweep={"alphas": [0.0, 0.5], "kappas": [0.5, 1.0], "drift_scales": [0.0, 2.0]},
    )


def edited(*edits):
    """base_config() with each (dotted key path, value) of edits set."""
    doc = base_config()
    for path, value in edits:
        *parents, key = path.split(".")
        target = doc
        for part in parents:
            target = target.setdefault(part, {})
        target[key] = value
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_defaults_materialize(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.solver.tol_residual is None and cfg.solver.resolved(cfg.problem).tol_residual == 1e-10
        assert cfg.continuation.initial_step == 0.1
        assert cfg.diagnostics.r_values == (1.0, 2.0, 4.0)
        assert cfg.seed == 0
        resolved = cfg.resolved()
        assert resolved["solver"]["max_iters"] == 50 and resolved["solver"]["tol_residual"] is None
        assert resolved["problem"]["potential"]["a_const"] == 0.0

    def test_resolved_reparses_identically(self, tmp_path):
        for doc in (base_config(), every_key_config()):
            cfg = load_config(write_config(tmp_path, doc))
            again = parse_config(cfg.resolved())
            assert again == cfg
            assert again.resolved() == cfg.resolved()
        # the second config really leaves no solver, continuation or diagnostics default
        for options, cls in ((cfg.solver, NewtonOptions), (cfg.continuation, StepOptions),
                             (cfg.diagnostics, DiagnosticsConfig)):
            for f in fields(cls):
                assert getattr(options, f.name) != f.default, f.name

    def test_readme_example_parses_and_round_trips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(json.loads(example))
        assert parse_config(cfg.resolved()) == cfg

    def test_unknown_keys_rejected(self):
        doc = base_config()
        doc["problem"]["spacing"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)
        doc = base_config()
        doc["problem"]["potential"]["gamma"] = 1.0
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_alpha_out_of_range_rejected(self):
        doc = base_config()
        doc["problem"]["alpha"] = 1.2
        with pytest.raises(ConfigError, match="0 <= alpha < 1"):
            parse_config(doc)

    def test_drift_component_count_checked(self):
        doc = base_config()
        doc["problem"]["drift"]["components"].append({"const": 0.0, "cos": [0.0], "sin": [0.0]})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_r_values_must_exceed_alpha(self):
        doc = base_config(diagnostics={"r_values": [0.25, 2.0]})
        with pytest.raises(ConfigError, match="exceed alpha"):
            parse_config(doc)

    def test_missing_problem_rejected(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config({})

    def test_mms_section_holds_the_case_it_validates(self):
        cfg = parse_config(every_key_config())
        u, m = TrigForm(0.1, (0.2,), (0.0,)), TrigForm(1.0, (0.25,), (0.1,))
        assert cfg.mms.case == ManufacturedCase(cfg.problem, u, m)
        assert cfg.resolved()["mms"] == {"grids": [16, 32, 64], "u": {"const": 0.1, "cos": [0.2], "sin": [0.0]},
                                         "m": {"const": 1.0, "cos": [0.25], "sin": [0.1]}}

    def test_null_tolerance_stays_null_beside_mms_and_sweep_and_a_number_is_kept(self):
        # the solver resolves a null on each problem it solves: the run's, each sweep cell and each mms grid
        cfg = parse_config(every_key_config() | {"solver": {"tol_residual": None}})
        assert cfg.solver.tol_residual is None and cfg.resolved()["solver"]["tol_residual"] is None
        assert parse_config(cfg.resolved()) == cfg
        assert parse_config(edited(("problem.n", 1024), ("solver.tol_residual", 1e-12))).solver.tol_residual == 1e-12


class TestSolveCommand:
    def test_writes_outputs_and_succeeds(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["success"] is True
        assert trace["reached_lambda"] == 1.0
        u = load_field(out / "u.csv")
        m = load_field(out / "m.csv")
        assert u.grid.n == 64
        assert float(np.min(m.values)) > 0.0
        assert (out / "resolved_config.json").exists()

    @pytest.mark.parametrize("command", ["solve", "jacobian-check", "sweep"])
    def test_checks_select_the_recorded_certificates(self, tmp_path, capsys, command):
        # with no per-r check selected no power of m is taken, so r = 100000 overflows nothing
        doc = base_config(diagnostics={"checks": ["mass", "positivity", "sup"], "r_values": [100000]},
                          sweep={"alphas": [0.5], "kappas": [1.0]})
        doc["problem"]["n"] = 16
        out = tmp_path / "run"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + (["--jobs", "1"] if command == "sweep" else [])) == 0
        assert capsys.readouterr().err == ""
        if command == "solve":
            for step in json.loads((out / "trace.json").read_text())["steps"]:
                snap = step["diagnostics"]
                assert snap["inverse_moments"] == snap["cancellation_residuals"] == []
                assert snap["moment_identity_defects"] == [] and snap["min_m"] > 0

    def test_trivial_problem_lands_on_explicit_solution(self, tmp_path):
        doc = base_config()
        doc["problem"]["potential"] = {"form": "separable", "kappa": 1.0, "a_cos": [0.0], "a_sin": [0.0]}
        doc["problem"]["drift"] = {"components": [{"const": 0.0, "cos": [0.0], "sin": [0.0]}]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        u = load_field(out / "u.csv")
        assert np.max(np.abs(u.values - np.pi / 4)) <= 1e-12

    def test_bad_alpha_exits_one(self, tmp_path, capsys):
        doc = base_config()
        doc["problem"]["alpha"] = 1.2
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "0 <= alpha < 1" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/trace.json").read_bytes() == (tmp_path / "b/trace.json").read_bytes()
        assert (tmp_path / "a/u.csv").read_bytes() == (tmp_path / "b/u.csv").read_bytes()

    def test_byte_identical_reruns_2d_with_linear_solve_record(self, tmp_path):
        doc = base_config()
        doc["problem"].update(
            dim=2,
            n=16,
            potential={"form": "separable", "kappa": 1.0, "a_cos": [0.5, 0.5], "a_sin": [0.0, 0.0]},
            drift={"components": [
                {"const": 0.0, "cos": [0.0, 0.0], "sin": [0.3, 0.0]},
                {"const": 0.0, "cos": [0.0, 0.0], "sin": [0.0, 0.3]},
            ]},
        )
        cfg = write_config(tmp_path, doc)
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        raw = (tmp_path / "a/trace.json").read_bytes()
        assert raw == (tmp_path / "b/trace.json").read_bytes()
        steps = json.loads(raw)["steps"]
        newton = [st["newton"] for st in steps if st["newton"]["iterations"] > 0]
        assert newton
        for rep in newton:
            assert rep["linear_paths"] == ["krylov"] * rep["iterations"]
            assert len(rep["krylov_iterations"]) == rep["iterations"]
            assert all(k > 0 for k in rep["krylov_iterations"])

    @pytest.mark.parametrize("dim, n, sizes", [(1, 64, [64]), (2, 32, [16, 32])])
    def test_trace_records_each_steps_grid(self, tmp_path, dim, n, sizes):
        """Every step names its grid size; a 2-D trace ends with the climb to n, and no fallback ran."""
        doc = base_config()
        if dim == 2:
            doc["problem"].update(
                dim=2, n=n,
                potential={"form": "separable", "kappa": 1.0, "a_cos": [0.5, 0.5], "a_sin": [0.0, 0.0]},
                drift={"components": [{"const": 0.0, "cos": [0.0, 0.0], "sin": [0.3, 0.0]},
                                      {"const": 0.0, "cos": [0.0, 0.0], "sin": [0.0, 0.3]}]},
            )
        out = tmp_path / "run"
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["fallback"] is None
        assert sorted({step["n"] for step in trace["steps"]}) == sizes
        assert (trace["steps"][-1]["lambda"], trace["steps"][-1]["n"]) == (1.0, n)
        assert load_field(out / "u.csv").grid.n == n

    def test_resolved_config_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, base_config(output={"dump_matrix": True}))
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        assert main([
            "solve", "--config", str(tmp_path / "a/resolved_config.json"), "--out", str(tmp_path / "b"),
        ]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "jacobian_final.mtx" in names
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_former_floor_stall_solves_and_reruns_from_its_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path, edited(("problem.n", 1024)))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        resolved = json.loads((tmp_path / "a/resolved_config.json").read_text())
        assert resolved["solver"]["tol_residual"] == newton_tolerance(load_config(cfg).problem) > 1e-10
        trace = json.loads((tmp_path / "a/trace.json").read_text())
        assert trace["success"] and trace["steps"][-1]["newton"]["residual_history"][-1] <= 1e-9
        assert main(["solve", "--config", str(tmp_path / "a/resolved_config.json"), "--out", str(tmp_path / "b")]) == 0
        for name in ("trace.json", "u.csv", "m.csv", "resolved_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_stall_exits_two_with_trace(self, tmp_path, capsys):
        doc = base_config(
            solver={"max_iters": 1},
            continuation={"min_step": 1e-3},
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        trace = json.loads((out / "trace.json").read_text())
        assert trace["success"] is False
        assert len(trace["failures"]) >= 1

    def test_dump_matrix_flag(self, tmp_path):
        cfg = write_config(tmp_path, base_config(output={"dump_matrix": True}))
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "jacobian_final.mtx").exists()

    def test_overflowing_residual_in_solve_exits_two_with_one_line(self, tmp_path, capsys):
        # every trial state's residual overflows; each is a step failure until the step underflows.  The
        # tolerance is a number: the default rule overflows on this epsilon_monotone (a config error)
        doc = base_config(diagnostics={"r_values": []}, solver={"tol_residual": 1e-10})
        doc["problem"].update(n=32, epsilon_monotone=1e308)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("continuation stalled: ")
        trace = json.loads((out / "trace.json").read_text())
        errors = {f["error"] for f in trace["failures"]}  # the band LU's step can overflow before the residual
        assert trace["failures"] and errors == {"NonFiniteResidual", "LinearSolveFailure"}

    def test_majorant_overflow_in_solve_exits_one_with_one_line(self, tmp_path, capsys):
        doc = base_config()
        doc["problem"].update(n=16, potential={"form": "separable", "kappa": 1e40, "a_cos": [0.5]})
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: diagnostics.r_values: the moment majorant overflows at r = 4, "
                                   "alpha = 0.5")
        assert not (tmp_path / "x").exists()


class TestVerifyCommand:
    def test_solution_fields_pass(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        main(["solve", "--config", cfg, "--out", str(out)])
        code = main([
            "verify", "--config", cfg, "--out", str(tmp_path / "ver"),
            "--state", str(out / "u.csv"), str(out / "m.csv"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "ver/diagnostics.json").read_text())
        (entry,) = report["states"]
        assert entry["n"] == 64
        assert all(row["passed"] for row in entry["checks"])
        names = {row["check"] for row in entry["checks"]}
        assert names == {"mass", "positivity", "sup", "moment", "cancellation", "identity"}

    def test_explicit_start_passes_for_constant_homotopy_problem(self, tmp_path):
        doc = base_config()
        doc["problem"]["potential"] = {"form": "separable", "kappa": 1.0, "a_cos": [0.0], "a_sin": [0.0]}
        doc["problem"]["drift"] = {"components": [{"const": 0.0, "cos": [0.0], "sin": [0.0]}]}
        cfg = write_config(tmp_path, doc)
        from mfgtorus import GridSpec, constant_field

        grid = GridSpec(1, 64)
        save_field(constant_field(grid, np.pi / 4), tmp_path / "u.csv")
        save_field(constant_field(grid, 1.0), tmp_path / "m.csv")
        code = main([
            "verify", "--config", cfg, "--out", str(tmp_path / "ver"),
            "--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv"),
        ])
        assert code == 0

    def test_perturbed_fields_fail_identity(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        main(["solve", "--config", cfg, "--out", str(out)])
        u = load_field(out / "u.csv")
        from mfgtorus import Field

        save_field(Field(u.grid, u.values + 0.01), tmp_path / "u_bad.csv")
        code = main([
            "verify", "--config", cfg, "--out", str(tmp_path / "ver"),
            "--state", str(tmp_path / "u_bad.csv"), str(out / "m.csv"),
        ])
        assert code == 2
        report = json.loads((tmp_path / "ver/diagnostics.json").read_text())
        failed = [row for row in report["states"][0]["checks"] if not row["passed"]]
        assert any(row["check"] == "identity" for row in failed)

    def test_does_not_modify_input_fields(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        main(["solve", "--config", cfg, "--out", str(out)])
        before = (out / "u.csv").read_bytes(), (out / "m.csv").read_bytes()
        main([
            "verify", "--config", cfg, "--out", str(tmp_path / "ver"),
            "--state", str(out / "u.csv"), str(out / "m.csv"),
        ])
        assert ((out / "u.csv").read_bytes(), (out / "m.csv").read_bytes()) == before

    def test_dimension_mismatch_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, base_config())  # configured problem is 1-D
        from mfgtorus import GridSpec, constant_field

        grid = GridSpec(2, 8)
        save_field(constant_field(grid, 1.0), tmp_path / "u.csv")
        save_field(constant_field(grid, 1.0), tmp_path / "m.csv")
        code = main([
            "verify", "--config", cfg, "--out", str(tmp_path / "ver"),
            "--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv"),
        ])
        assert code == 1

    def test_fields_on_different_grids_exit_one_with_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        from mfgtorus import GridSpec, constant_field

        u, m = str(tmp_path / "u.csv"), str(tmp_path / "m.csv")
        save_field(constant_field(GridSpec(1, 64), 1.0), u)
        save_field(constant_field(GridSpec(1, 32), 1.0), m)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "ver"), "--state", u, m]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {u} and {m} live on different grids"]

    @pytest.mark.parametrize(
        "content",
        [None, "# n=64 dim=1\n" + "1.0\n" * 30, "1.0\n2.0\n", "# n=64\n" + "1.0\n" * 64],
        ids=["missing", "truncated", "no-header", "header-without-dim"],
    )
    def test_bad_state_file_exits_one_naming_it(self, tmp_path, capsys, content):
        cfg = write_config(tmp_path, base_config())
        from mfgtorus import GridSpec, constant_field

        save_field(constant_field(GridSpec(1, 64), 1.0), tmp_path / "m.csv")
        bad = tmp_path / "u.csv"
        if content is not None:
            bad.write_text(content)
        code = main([
            "verify", "--config", cfg, "--out", str(tmp_path / "ver"),
            "--state", str(bad), str(tmp_path / "m.csv"),
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: cannot read field file {bad}: ")

    def test_state_header_above_grid_cap_exits_one_before_reading_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        big = tmp_path / "u.csv"
        big.write_text("# n=1025 dim=2\n1.0\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "ver"), "--state", str(big), str(big)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot read field file {big}: n**dim must be at most 1048576, got 1025**2"]

    def test_refined_state_pairs_emit_refinement_series(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        runs = {}
        for n in (64, 128):
            doc = base_config()
            doc["problem"]["n"] = n
            cfg_n = write_config(tmp_path, doc, name=f"cfg{n}.json")
            out_n = tmp_path / f"run{n}"
            assert main(["solve", "--config", cfg_n, "--out", str(out_n)]) == 0
            runs[n] = out_n
        code = main([
            "verify", "--config", cfg, "--out", str(tmp_path / "ver"),
            "--state", str(runs[64] / "u.csv"), str(runs[64] / "m.csv"),
            "--state", str(runs[128] / "u.csv"), str(runs[128] / "m.csv"),
        ])
        assert code == 0
        lines = (tmp_path / "ver/refinement.csv").read_text().splitlines()
        assert lines[0] == "n,r,cancellation,identity_defect"
        series = {}
        for line in lines[1:]:
            n, r, cancel, ident = line.split(",")
            if r == "2":
                series[int(n)] = (abs(float(cancel)), float(ident))
        # defects shrink at second order under grid doubling
        assert series[64][0] / series[128][0] >= 3.5
        assert series[64][1] / series[128][1] >= 3.5

    def test_one_residual_per_verified_state(self, tmp_path, monkeypatch):
        from mfgtorus import diagnostics

        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        original = diagnostics.residual
        lams = []

        def counting(*args, **kwargs):
            lams.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "residual", counting)
        state = ["--state", str(out / "u.csv"), str(out / "m.csv")]
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "ver"), *state, *state]) == 0
        assert lams == [1.0, 1.0]  # one per state, whatever the number of r_values

    def test_state_with_zero_density_prints_its_failing_table(self, tmp_path, capsys):
        from mfgtorus import Field, GridSpec, constant_field

        doc = base_config()
        doc["problem"]["n"] = 16
        grid = GridSpec(1, 16)
        m = np.ones(16)
        m[3] = 0.0
        save_field(constant_field(grid, np.pi / 4), tmp_path / "u.csv")
        save_field(Field(grid, m), tmp_path / "m.csv")
        code = main(["verify", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "ver"),
                     "--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv")])
        assert code == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert "positivity           FAIL" in out
        (entry,) = json.loads((tmp_path / "ver/diagnostics.json").read_text())["states"]
        rows = {(row["check"], row["r"]): row for row in entry["checks"]}
        assert not rows[("positivity", None)]["passed"]
        per_r = [row for row in entry["checks"] if row["r"] is not None]
        assert {(row["check"], row["r"]) for row in per_r} == {
            (check, r) for check in ("moment", "cancellation", "identity") for r in (1.0, 2.0, 4.0)
        }
        assert all(not row["passed"] and row["note"] == "needs m > 0" for row in per_r)

    def test_majorant_overflow_in_verify_exits_one_with_one_line(self, tmp_path, capsys):
        from mfgtorus import GridSpec, constant_field

        doc = base_config(diagnostics={"r_values": [400]})
        doc["problem"]["n"] = 16
        cfg = write_config(tmp_path, doc)
        save_field(constant_field(GridSpec(1, 16), np.pi / 4), tmp_path / "u.csv")
        save_field(constant_field(GridSpec(1, 16), 1.0), tmp_path / "m.csv")
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "ver"),
                     "--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: diagnostics.r_values: the moment majorant overflows at r = 400, "
                                   "alpha = 0.5")
        assert not (tmp_path / "ver").exists()

    def test_overflowing_residual_in_verify_exits_two_with_one_line(self, tmp_path, capsys):
        from mfgtorus import Field, GridSpec, constant_field

        grid = GridSpec(1, 32)
        doc = base_config()
        doc["problem"]["n"] = 32
        x = np.arange(32) / 32
        save_field(Field(grid, 1e200 * np.sin(2 * np.pi * x)), tmp_path / "u.csv")
        save_field(constant_field(grid, 1.0), tmp_path / "m.csv")
        code = main(["verify", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "ver"),
                     "--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["run failed: the residual at lambda = 1 is not finite"]

    def test_overflowing_identities_exit_two_with_one_line(self, tmp_path, capsys):
        # without the moment check no majorant bounds r, and m^r leaves the float range
        doc = base_config()
        doc["problem"].update(n=16, potential={"form": "separable", "kappa": 1.0, "a_cos": [0.5]})
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        doc["diagnostics"] = {"checks": ["cancellation", "identity"], "r_values": [100000]}
        code = main(["verify", "--config", write_config(tmp_path, doc, "ver.json"), "--out", str(tmp_path / "ver"),
                     "--state", str(tmp_path / "s/u.csv"), str(tmp_path / "s/m.csv")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["run failed: the cancellation check overflows at r = 100000, alpha = 0.5"]
        for path in tmp_path.rglob("*"):
            assert not path.is_file() or b"NaN" not in path.read_bytes(), path

    def test_overflowing_inverse_moment_exits_two_with_one_line(self, tmp_path, capsys):
        # one tiny value of a stored m sends m^-(r+1-alpha) past the float range below a finite majorant
        from mfgtorus import Field

        doc = base_config()
        doc["problem"].update(n=16, potential={"form": "separable", "kappa": 1.0, "a_cos": [0.5]})
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        m = load_field(tmp_path / "s/m.csv")
        values = m.values.copy()
        values[5] = 1e-6
        save_field(Field(m.grid, values), tmp_path / "s/m.csv")
        doc["diagnostics"] = {"checks": ["moment"], "r_values": [80]}
        code = main(["verify", "--config", write_config(tmp_path, doc, "ver.json"), "--out", str(tmp_path / "ver"),
                     "--state", str(tmp_path / "s/u.csv"), str(tmp_path / "s/m.csv")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["run failed: the moment check overflows at r = 80, alpha = 0.5"]
        for path in tmp_path.rglob("*"):
            data = path.read_bytes() if path.is_file() else b""
            assert b"Infinity" not in data and b"NaN" not in data, path


class TestMmsCommand:
    def test_rates_in_second_order_window(self, tmp_path):
        doc = base_config(
            mms={
                "grids": [32, 64, 128],
                "u": {"sin": [0.1]},
                "m": {"const": 1.0, "cos": [0.5]},
            }
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "mms"
        assert main(["mms", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "rates.csv").read_text().splitlines()
        assert lines[0] == "grid,error_u,error_m,rate_u,rate_m"
        last = lines[-1].split(",")
        assert 1.8 <= float(last[3]) <= 2.2
        assert 1.8 <= float(last[4]) <= 2.2

    def test_missing_section_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["mms", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_a_finer_grid_leaves_the_coarser_rows_alone(self, tmp_path):
        # each grid solves to its own tolerance: the rule gives 1e-10 at n <= 256 and 1.5e-8 at n = 4096,
        # which stops the grids from 32 on at another iterate
        lines = {}
        for grids in ([16, 32, 64, 128], [16 * 2**k for k in range(9)]):
            doc = base_config(mms={"grids": grids, "u": {"sin": [0.1]}, "m": {"const": 1.0, "cos": [0.5]}})
            out = tmp_path / str(len(grids))
            assert main(["mms", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
            lines[len(grids)] = (out / "rates.csv").read_text().splitlines()
        assert lines[9][:5] == lines[4] and len(lines[9]) == 10

    def test_info_log_has_one_stderr_line_per_grid(self, tmp_path):
        import subprocess
        import sys

        import mfgtorus

        pkg_root = str(Path(mfgtorus.__file__).resolve().parents[1])
        doc = base_config(mms={"grids": [16, 32, 64], "u": {"sin": [0.1]}, "m": {"const": 1.0, "cos": [0.25]}})
        cfg = write_config(tmp_path, doc)
        runs = {}
        for level in ("info", "error"):
            out = tmp_path / level
            runs[level] = subprocess.run(
                [sys.executable, "-m", "mfgtorus.cli", "mms", "--config", cfg, "--out", str(out)],
                env={"MFG_LOG": level, "PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
                capture_output=True,
                text=True,
            )
            assert runs[level].returncode == 0, runs[level].stderr
        lines = runs["info"].stderr.splitlines()
        assert [line.split(":")[1] for line in lines] == [" mms n=16", " mms n=32", " mms n=64"]
        assert all("start residual" in line and "newton iterations" in line for line in lines)
        assert runs["error"].stderr == ""
        assert runs["info"].stdout == runs["error"].stdout
        assert (tmp_path / "info" / "rates.csv").read_bytes() == (tmp_path / "error" / "rates.csv").read_bytes()

    def test_overflowing_source_exits_two_with_one_line(self, tmp_path, capsys):
        doc = base_config(mms={"grids": [16, 32, 64], "u": {"sin": [1e200]}, "m": {"const": 1.0, "cos": [0.25]}})
        doc["problem"]["n"] = 32
        assert main(["mms", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "x")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["mms solve failed: the manufactured source on n = 16 is not finite"]
        assert not (tmp_path / "x" / "rates.csv").exists()


class TestJacobianCheckCommand:
    def test_stalled_continuation_exits_two_with_one_line(self, tmp_path, capsys):
        doc = base_config(solver={"max_iters": 1}, continuation={"min_step": 1e-3})
        out = tmp_path / "jac"
        assert main(["jacobian-check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("continuation stalled before the check: ")
        assert not (out / "jacobian_check.json").exists()

    def test_passes_on_suite_problem(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "jac"
        assert main(["jacobian-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "jacobian_check.json").read_text())
        assert {s["state"] for s in report["states"]} == {"initial", "mid", "final"}
        for s in report["states"]:
            assert s["fd_max_rel_error"] <= 1e-6
            if "coercivity" in s:
                assert s["coercivity"]["all_negative"] is True

    def test_dump_matrix_writes_all_states(self, tmp_path):
        doc = base_config(output={"dump_matrix": True})
        doc["problem"]["n"] = 32
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "jac"
        assert main(["jacobian-check", "--config", cfg, "--out", str(out)]) == 0
        for tag in ("initial", "mid", "final"):
            assert (out / f"jacobian_{tag}.mtx").exists()

    def test_wrong_jacobian_fails_the_fd_check(self, tmp_path, monkeypatch):
        """An A_fv block off by a factor 1 + 1e-3 exceeds FD_TOLERANCE, and the command exits 2."""
        import mfgtorus.cli as cli
        from mfgtorus import exact_initial
        from mfgtorus.linearization import FD_TOLERANCE, assemble_jacobian, fd_max_error

        from conftest import system_of

        def wrong_jacobian(spec, lam, s):
            sys_ = assemble_jacobian(spec, lam, s)
            matrix, n = sys_.matrix.copy(), spec.grid.size
            rows = np.repeat(np.arange(2 * n), np.diff(matrix.indptr))
            matrix.data[(rows >= n) & (matrix.indices < n)] *= 1.0 + 1e-3
            return system_of(matrix, s)

        doc = base_config()
        doc["problem"]["n"] = 32
        spec = parse_config(doc).problem
        s0 = exact_initial(spec)
        assert fd_max_error(spec, 0.0, wrong_jacobian(spec, 0.0, s0), np.random.default_rng(0)) > FD_TOLERANCE

        # the solve inside the command assembles through `solver`, which stays unpatched
        monkeypatch.setattr(cli, "assemble_jacobian", wrong_jacobian)
        out = tmp_path / "jac"
        assert main(["jacobian-check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        report = json.loads((out / "jacobian_check.json").read_text())
        assert all(s["fd_max_rel_error"] > FD_TOLERANCE for s in report["states"])


class TestSweepCommand:
    def test_small_sweep_serial_and_parallel_agree(self, tmp_path):
        doc = base_config(sweep={"alphas": [0.0, 0.5], "kappas": [1.0]})
        doc["problem"]["n"] = 32
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s1"), "--jobs", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s2"), "--jobs", "2"]) == 0
        csv1 = (tmp_path / "s1/sweep.csv").read_text()
        assert csv1 == (tmp_path / "s2/sweep.csv").read_text()
        lines = csv1.splitlines()
        assert lines[0] == "alpha,kappa,drift_scale,min_m,sup_u,iterations,success,error"
        assert len(lines) == 3
        assert all(line.split(",")[6] == "True" for line in lines[1:])

    def test_missing_section_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_failed_cell_is_a_row_and_exits_two(self, tmp_path, capsys):
        # with a = 0, drift scale 0 leaves a homotopy that needs no Newton iteration;
        # drift scale 1 stalls on one iteration per step
        doc = edited(("problem.potential.a_cos", [0.0]), ("solver.max_iters", 1), ("continuation.min_step", 1e-3),
                     ("sweep", {"alphas": [0.5], "kappas": [1.0], "drift_scales": [0.0, 1.0]}))
        out = tmp_path / "s"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--jobs", "1"]) == 2
        header, ok, failed = (line.split(",") for line in (out / "sweep.csv").read_text().splitlines())
        assert header == ["alpha", "kappa", "drift_scale", "min_m", "sup_u", "iterations", "success", "error"]
        assert ok[2:] == ["0.0", "1.0", "0.7853981633974483", "0", "True", ""]
        assert failed == ["0.5", "1.0", "1.0", "nan", "nan", "-1", "False", "ContinuationStalled"]
        assert capsys.readouterr().out == f"sweep: 1/2 cells succeeded -> {out / 'sweep.csv'}\n"

    def test_each_cell_solves_to_its_own_tolerance(self, tmp_path):
        # the rule gives the kappa = 1e6 cell about 2.9e-6 at n = 64; the kappa = 1 cell keeps 1e-10
        cells = [parse_config(edited(("problem.potential.kappa", kappa))).problem for kappa in (1.0, 1e6)]
        assert newton_tolerance(cells[0]) == 1e-10 and newton_tolerance(cells[1]) > 1e-6
        lines = {}
        for kappas in ([1.0], [1.0, 1e6]):
            doc = edited(("sweep", {"alphas": [0.5], "kappas": kappas}))
            out = tmp_path / str(len(kappas))
            assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--jobs", "1"]) == 0
            lines[len(kappas)] = (out / "sweep.csv").read_text().splitlines()
        assert lines[2][:2] == lines[1] and len(lines[2]) == 3

    def test_overflowing_cell_majorant_exits_one_before_any_cell_runs(self, tmp_path, capsys, monkeypatch):
        # every snapshot of the kappa = 1e40 cell raises the same MFGError, so that cell can never succeed
        import mfgtorus.cli as cli_mod

        solved = []
        monkeypatch.setattr(cli_mod, "continuation_solve", lambda *args: solved.append(args))
        doc = edited(("problem.n", 16), ("sweep", {"alphas": [0.5], "kappas": [1.0, 1e40]}))
        out = tmp_path / "s"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--jobs", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep cell alpha = 0.5, kappa = 1e+40, drift_scale = 1.0: the moment majorant overflows "
            "at r = 4, alpha = 0.5, constant C = 3.14159e+40"]
        assert not out.exists() and solved == []

    def test_overflowing_cell_majorant_allowed_without_the_moment_check(self):
        checks = [c for c in DiagnosticsConfig.checks if c != "moment"]
        doc = edited(("problem.n", 16), ("diagnostics.checks", checks),
                     ("sweep", {"alphas": [0.5], "kappas": [1.0, 1e40]}))
        assert parse_config(doc).sweep.kappas == (1.0, 1e40)

    def test_cell_majorant_is_checked_only_above_the_cells_alpha(self):
        # a snapshot of the alpha = 0.7 cell skips r = 0.5, where the majorant is undefined
        doc = edited(("problem.alpha", 0.3), ("diagnostics.r_values", [0.5, 2.0]),
                     ("sweep", {"alphas": [0.3, 0.7], "kappas": [1.0]}))
        assert parse_config(doc).sweep.cells == [(0.3, 1.0, 1.0), (0.7, 1.0, 1.0)]

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """Replace the process pool with an in-process one that records `max_workers`."""
        import mfgtorus.cli as cli_mod

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", InProcessPool)
        return started

    def test_pool_never_exceeds_cell_count(self, tmp_path, fake_pool):
        doc = base_config(sweep={"alphas": [0.0, 0.5], "kappas": [1.0]})
        doc["problem"]["n"] = 16
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--jobs", "5000"]) == 0
        assert fake_pool == [2]
        assert len((tmp_path / "s/sweep.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_one_with_one_line(self, tmp_path, capsys, fake_pool, jobs):
        cfg = write_config(tmp_path, base_config(sweep={"alphas": [0.0, 0.5], "kappas": [1.0]}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--jobs", jobs]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: --jobs must be at least 1"]
        assert fake_pool == []
        assert not (tmp_path / "s").exists()


class TestConfigHardening:
    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("continuation", {"shrink": 2}, "shrink must lie in (0, 1)"),
            ("continuation", {"min_step": 5}, "min_step must not exceed max_step"),
            ("continuation", {"initial_step": 0.9, "max_step": 0.25},
             "initial_step must not exceed max_step"),
            ("continuation", {"grow_iters": -1}, "grow_iters must be >= 0"),
            ("solver", {"max_iters": 2.5}, "solver.max_iters: expected an integer"),
            ("continuation", {"grow_iters": 1.5}, "continuation.grow_iters: expected an integer"),
            # json writes these as the extensions NaN and Infinity, and a 401-digit integer
            ("solver", {"tol_residual": float("nan")},
             "solver.tol_residual: expected a finite number, got nan"),
            ("solver", {"tol_residual": "1e-10"}, "solver.tol_residual: expected a finite number, got '1e-10'"),
            ("solver", {"tol_residual": False}, "solver.tol_residual: expected a finite number, got False"),
            ("solver", {"tol_residual": 0}, "solver: all Newton options must be positive"),
            ("solver", {"tol_residual": -1e-10}, "solver: all Newton options must be positive"),
            ("diagnostics", {"r_values": [1.0, float("inf")]},
             "diagnostics.r_values: expected a list of finite numbers"),
            ("solver", {"max_iters": 10**400}, "solver.max_iters: expected a finite number"),
            ("mms", {"grids": [16, 24, 48], "u": {"const": 0.0, "cos": [0.0], "sin": [0.1]},
                     "m": {"const": 1.0, "cos": [0.25], "sin": [0.0]}},
             "mms.grids: each grid must double the previous one"),
            ("sweep", {"alphas": [0.5], "kappas": [1.0], "drift_scales": []},
             "sweep: drift_scales must be a non-empty list"),
            ("mms", {"grids": [16, 32, 64], "u": {"const": 0.0, "cos": [0.0], "sin": [0.1]},
                     "m": {"const": 0.2, "cos": [0.5], "sin": [0.0]}},
             "mms.m: manufactured m must have constant term exceeding its harmonic amplitudes"),
            ("diagnostics", {"identity_budget_factor": -1},
             "diagnostics: identity_budget_factor must be positive"),
            ("diagnostics", {"identity_budget_factor": 0},
             "diagnostics: identity_budget_factor must be positive"),
            # with c >= 1 the Armijo test rejects every full step, and the line search halves to min_damping
            ("solver", {"min_damping": 1e-300, "armijo_c": 1000}, "solver: armijo_c must lie in (0, 1)"),
            # about 5.5 million failed steps, hours of work, before the continuation would stall
            ("continuation", {"shrink": 0.999999, "min_step": 1e-3},
             "continuation: shrink takes 5521458 failed steps from max_step to min_step, more than 200"),
            ("mms", {"grids": [2**19, 2**20, 2**21], "u": {"const": 0.0, "cos": [0.0], "sin": [0.1]},
                     "m": {"const": 1.0, "cos": [0.25], "sin": [0.0]}},
             "mms.grids: n**dim must be at most 1048576, got 2097152**1"),
        ],
        ids=["shrink-out-of-range", "min-step-above-max-step", "initial-step-above-max-step",
             "negative-grow-iters", "fractional-max-iters", "fractional-grow-iters", "nan-scalar",
             "string-tolerance", "boolean-tolerance", "zero-tolerance", "negative-tolerance",
             "infinite-list-entry", "integer-beyond-float-range", "grids-not-doubling",
             "empty-drift-scales", "bad-mms-density", "negative-budget-factor", "zero-budget-factor",
             "armijo-c-at-least-one", "shrink-near-one", "mms-grid-above-cap"],
    )
    def test_bad_value_exits_one_with_one_line(self, tmp_path, capsys, section, values, message):
        cfg = write_config(tmp_path, base_config(**{section: values}))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")
        assert message in lines[0]

    @pytest.mark.parametrize(
        "doc, message",
        [
            (edited(("solver", [])), "solver: expected an object"),
            (edited(("diagnostics.checks", ["mass", 1])), "diagnostics.checks: expected a list of strings"),
            (edited(("problem.potential.a_cos", [0.5, 0.5])), "problem.potential.a_cos: expected 1 entries, got 2"),
            (edited(("sweep", {"alphas": [0.5, 1.0], "kappas": [1.0]})),
             "sweep: every entry of alphas must satisfy 0 <= alpha < 1"),
            (edited(("sweep", {"alphas": [0.5], "kappas": [1.0, -1.0]})), "sweep: every entry of kappas must be >= 0"),
            (edited(("output.dump_matrix", 1)), "output.dump_matrix: expected a boolean"),
            (edited(("seed", -1)), "config.seed: expected a nonnegative integer"),
            (edited(("problem.potential.form", "x_only"), ("problem.potential.kappa", 0.0)),
             "problem.potential: form must be one of ('separable', 'saturating'), got 'x_only'"),
            (edited(("problem.n", 2**20 + 1)), "problem: n**dim must be at most 1048576, got 1048577**1"),
            (edited(("problem.epsilon_monotone", 1e308), ("diagnostics.r_values", [])),
             "solver.tol_residual: the tolerance rule overflows on the certified sup bound on u; set a number"),
            (edited(("sweep", {"alphas": [0.5], "kappas": [1.0, 1e308]}), ("diagnostics.r_values", [])),
             "solver.tol_residual: the tolerance rule overflows on the certified sup bound on u; set a number"),
            ('{"problem": ', "{config} is not valid JSON: "),
        ],
        ids=["section-not-an-object", "checks-not-strings", "harmonic-entry-count", "sweep-alpha-out-of-range",
             "sweep-negative-kappa", "dump-matrix-not-boolean", "negative-seed", "x-only-form",
             "n-above-grid-cap", "overflowing-tolerance-rule", "overflowing-cell-tolerance-rule", "invalid-json"],
    )
    def test_rule_exits_one_with_one_line_naming_the_key(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: " + message.format(config=cfg))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowing_majorant_exits_one_before_any_solve(self, tmp_path, capsys, command):
        # the majorant depends on (problem, r) alone, so no grid of the ladder and no retry can rescue it
        from mfgtorus import GridSpec, constant_field

        doc = reference_2d_config(32, diagnostics={"r_values": [1.0, 400.0]})
        cfg = write_config(tmp_path, doc)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "x")]
        if command == "verify":
            save_field(constant_field(GridSpec(2, 32), np.pi / 4), tmp_path / "u.csv")
            save_field(constant_field(GridSpec(2, 32), 1.0), tmp_path / "m.csv")
            argv += ["--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: diagnostics.r_values: the moment majorant overflows at r = 400, alpha = 0.5, "
            "constant C = 6.32409"]
        assert not (tmp_path / "x").exists()

    def test_overflowing_majorant_allowed_without_the_moment_check(self):
        checks = [c for c in DiagnosticsConfig.checks if c != "moment"]
        cfg = parse_config(reference_2d_config(32, diagnostics={"r_values": [1.0, 400.0], "checks": checks}))
        assert cfg.diagnostics.r_values == (1.0, 400.0)

    def test_integral_float_counts_still_accepted(self):
        cfg = parse_config(base_config(solver={"max_iters": 20.0}, continuation={"grow_iters": 2.0}))
        assert cfg.solver.max_iters == 20
        assert cfg.continuation.grow_iters == 2


class TestBoundedWork:
    """A run the schema accepts ends with bounded work: exit 2 with one line when it cannot finish."""

    @pytest.mark.parametrize("initial_step", [1e-3, 1e-6])
    def test_step_that_never_grows_stalls_at_the_attempt_cap(self, tmp_path, capsys, initial_step):
        # without the cap: 1,001 steps at 1e-3, and 10**6 steps (about 24 min and 1.4 GB of trace) at 1e-6
        doc = edited(("problem.n", 16), ("continuation", {"growth": 1.0, "initial_step": initial_step}))
        del doc["problem"]["drift"]
        out = tmp_path / "run"
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        trace = json.loads((out / "trace.json").read_text())
        assert (len(trace["steps"]), trace["failures"], trace["success"]) == (1000, [], False)
        lam = 999 * initial_step
        assert trace["reached_lambda"] == pytest.approx(lam)
        assert capsys.readouterr().err.splitlines() == [
            f"continuation stalled: 1000 Newton solves ended at lambda = {lam:.6f}"]
        assert not (out / "u.csv").exists()

    def test_failures_between_successes_stall_at_the_attempt_cap(self, tmp_path, capsys):
        # without the cap: about 15,000 steps and 9,000 failures before the step underflowed
        strong = {"const": 0.0, "cos": [30.0, 0.0], "sin": [0.0, 30.0]}
        doc = edited(("problem.dim", 2), ("problem.n", 9), ("problem.alpha", 0.9),
                     ("problem.potential.a_cos", [0.5, 0.5]), ("problem.potential.a_sin", [0.0, 0.0]),
                     ("problem.drift.components", [strong, {**strong, "cos": [0.0, 30.0], "sin": [30.0, 0.0]}]),
                     ("solver", {"max_iters": 1, "positivity_fraction": 0.999, "tol_residual": 1e-3}),
                     ("continuation", {"max_step": 1}))
        out = tmp_path / "run"
        assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["steps"]) > 1 and len(trace["failures"]) > 1
        assert len(trace["steps"]) + len(trace["failures"]) == 1000
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("continuation stalled: 1000 Newton solves ended at lambda = ")

    @pytest.mark.parametrize("command, solver, error, line", [
        ("solve", "continuation_solve", MemoryError(), "run failed: out of memory"),
        ("mms", "convergence_study", MemoryError("Unable to allocate 688. MiB for an array"),
         "run failed: out of memory: Unable to allocate 688. MiB for an array"),
    ])
    def test_out_of_memory_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch, command, solver, error, line):
        from mfgtorus import cli

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, solver, exhausted)
        cfg = write_config(tmp_path, every_key_config())
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [line]


class TestUsageErrors:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_config_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [["solve", "--dump-matrix"], ["jacobian-check", "--seed", "7"]])
    def test_flags_the_config_owns_exit_one_with_usage(self, tmp_path, capsys, argv):
        # output.dump_matrix and seed are config keys only, so resolved_config.json records them
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg, "--out", str(tmp_path / "x")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mfgtorus ")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        assert not (tmp_path / "x").exists()

    def test_parser_is_built_once_and_reused_for_usage_errors(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        cfg = write_config(tmp_path, base_config())
        bad = ["solve", "--bogus", "--config", cfg, "--out", str(tmp_path / "x")]
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 1
            errors.append(capsys.readouterr().err)
            assert main(["solve", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: mfgtorus ") and "unrecognized arguments: --bogus" in errors[0]

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## Command line\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
        commands = [line.split()[1:] for line in block.splitlines() if line.startswith("mfgtorus ")]
        assert {argv[0] for argv in commands} == {"solve", "verify", "mms", "jacobian-check", "sweep"}
        for argv in commands:
            # an optional "[--flag value]" is parsed as if given; "..." marks a repeat
            words = [w.strip("[]") for w in argv if w not in ("...]", "...")]
            build_parser().parse_args(words)

    @pytest.mark.parametrize("command", ["solve", "verify", "mms", "jacobian-check", "sweep"])
    def test_out_naming_a_file_exits_one_with_one_line(self, tmp_path, capsys, command):
        doc = base_config(mms={"grids": [16, 32, 64], "u": {"sin": [0.1]}, "m": {"const": 1.0, "cos": [0.25]}},
                          sweep={"alphas": [0.5], "kappas": [1.0]})
        cfg = write_config(tmp_path, doc)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        state = ["--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv")] if command == "verify" else []
        assert main([command, "--config", cfg, "--out", str(afile), *state]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: cannot create output directory {afile}: ")
        assert afile.read_text() == "kept\n"

    FIRST_OUTPUT = {"solve": "resolved_config.json", "verify": "diagnostics.json", "mms": "rates.csv",
                    "jacobian-check": "jacobian_check.json", "sweep": "sweep.csv"}

    @pytest.mark.parametrize("command", ["solve", "verify", "mms", "jacobian-check", "sweep"])
    def test_unwritable_output_file_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch, command):
        import mfgtorus.cli as cli_mod
        from mfgtorus import exact_initial

        solves = []
        forward = cli_mod.continuation_solve
        monkeypatch.setattr(cli_mod, "continuation_solve", lambda *a: solves.append(a) or forward(*a))

        doc = base_config(mms={"grids": [16, 32, 64], "u": {"sin": [0.1]}, "m": {"const": 1.0, "cos": [0.25]}},
                          sweep={"alphas": [0.5], "kappas": [1.0]})
        cfg = write_config(tmp_path, doc)
        s = exact_initial(load_config(cfg).problem)
        save_field(s.u, str(tmp_path / "u.csv"))
        save_field(s.m, str(tmp_path / "m.csv"))
        out = tmp_path / "out"
        blocked = out / self.FIRST_OUTPUT[command]
        blocked.mkdir(parents=True)
        state = ["--state", str(tmp_path / "u.csv"), str(tmp_path / "m.csv")] if command == "verify" else []
        jobs = ["--jobs", "1"] if command == "sweep" else []
        assert main([command, "--config", cfg, "--out", str(out), *state, *jobs]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"cannot write output: [Errno 21] Is a directory: '{blocked}'"]
        if command == "sweep":  # sweep.csv is opened before any cell runs
            assert solves == []

    def test_unreadable_config_exits_one(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 1

    def test_log_env_var_accepted(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import mfgtorus

        # The child must import the same package as this process, installed or not.
        pkg_root = str(Path(mfgtorus.__file__).resolve().parents[1])
        cfg = write_config(tmp_path, base_config())
        proc = subprocess.run(
            [sys.executable, "-m", "mfgtorus.cli", "solve", "--config", cfg, "--out", str(tmp_path / "r")],
            env={"MFG_LOG": "info", "PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "solve finished" in proc.stderr

    def test_cli_import_loads_no_heavy_modules(self):
        # the command line needs none of these, and each would add import time to every start
        import subprocess
        import sys
        from pathlib import Path

        import mfgtorus

        pkg_root = str(Path(mfgtorus.__file__).resolve().parents[1])
        heavy = ("scipy.integrate", "scipy.optimize", "scipy.stats", "sympy")
        code = f"import sys, mfgtorus.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
