import json

import numpy as np
import pytest

from qthermo import (
    DensityMatrix,
    ModelParams,
    Povm,
    analytic_steady_state,
    evolve,
    pure_state,
    thermal_state,
)
from qthermo.cli import (
    RunConfig,
    cmd_report,
    cmd_simulate,
    cmd_sweep,
    load_config,
    main,
    sweep_rows,
    SWEEP_COLUMNS,
)
from qthermo.dissipation import KET_GG, PSI_MINUS
from qthermo.io import (
    read_hamiltonian,
    read_povm,
    read_state,
    reports_json,
    write_hamiltonian,
    write_povm,
    write_state,
    write_trajectory_csv,
)
from qthermo.relations import _report


class TestStateFiles:
    def test_roundtrip_with_dims(self, tmp_path, bell_state):
        path = tmp_path / "bell.json"
        write_state(path, bell_state)
        back = read_state(path)
        assert back.dims == (2, 2)
        assert np.abs(back.matrix - bell_state.matrix).max() < 1e-12

    def test_roundtrip_without_dims(self, tmp_path):
        path = tmp_path / "mixed.json"
        write_state(path, DensityMatrix(np.eye(2, dtype=complex) / 2))
        assert read_state(path).dims is None

    def test_reader_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": None, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0] * 2] * 2}))
        with pytest.raises(ValueError, match="trace"):
            read_state(path)


class TestOperatorFiles:
    def test_povm_roundtrip(self, tmp_path):
        eye = np.eye(2, dtype=complex)
        povm = Povm([np.outer(eye[:, k], eye[:, k]) for k in range(2)])
        path = tmp_path / "povm.json"
        write_povm(path, povm)
        back = read_povm(path)
        assert len(back) == 2

    def test_hamiltonian_roundtrip(self, tmp_path, qubit_h):
        path = tmp_path / "h.json"
        write_hamiltonian(path, qubit_h)
        assert np.abs(read_hamiltonian(path).matrix - qubit_h.matrix).max() < 1e-12


class TestReportSerialization:
    def test_non_finite_values_are_strings(self):
        rep = _report("demo", -np.inf, 1.0, 1e-9, "x")
        payload = json.loads(reports_json([rep]))
        assert payload[0]["lhs"] == "-inf"
        assert payload[0]["slack"] == "inf"

    def test_finite_values_stay_numeric(self):
        rep = _report("demo", 0.25, 0.5, 1e-9, "x", near_band=0.02)
        payload = json.loads(reports_json([rep]))
        assert payload[0]["rhs"] == 0.5
        assert payload[0]["near_equality"] is False


class TestTrajectoryCsv:
    def test_header_and_rows(self, tmp_path):
        params = ModelParams()
        traj = evolve(analytic_steady_state(0.5, params), params, dt=0.005, t_max=0.05)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[-2:] == ["trace", "min_eigenvalue"]
        assert len(header) == 1 + 32 + 2
        assert len(lines) == 1 + len(traj.states)


class TestRunConfig:
    def test_default_grid(self):
        grid = RunConfig().c_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0 and abs(grid[-1] - 1.0) < 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="c_step"):
            RunConfig(c_step=0.0).c_grid()
        with pytest.raises(ValueError, match="grid"):
            RunConfig(c_start=-0.2).c_grid()

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"beta_e": 5.0, "c_step": 0.5}))
        config = load_config(str(path), omega=2.0)
        assert config.beta_e == 5.0 and config.omega == 2.0 and config.c_step == 0.5

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="unknown"):
            load_config(str(path))


class TestSweep:
    def test_deterministic_bytes(self, tmp_path):
        config_a = RunConfig(c_step=0.25, output_path=str(tmp_path / "a.csv"))
        config_b = RunConfig(c_step=0.25, output_path=str(tmp_path / "b.csv"))
        assert cmd_sweep(config_a) == 0
        assert cmd_sweep(config_b) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_columns_and_endpoint_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(RunConfig(c_step=0.5, output_path=str(out))) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        first = dict(zip(SWEEP_COLUMNS, lines[1].split(",")))
        assert abs(float(first["ergotropy"]) - 1.0) < 5e-3
        assert first["free_energy_B"] == "-inf"
        last = dict(zip(SWEEP_COLUMNS, lines[-1].split(",")))
        assert float(last["discord_A"]) <= 2e-3
        assert float(last["euler_residual"]) <= 0.02

    def test_slack2_nonnegative(self):
        rows = sweep_rows(RunConfig(c_step=0.2))
        assert all(row["slack2"] >= -1e-9 for row in rows)


class TestSimulateCommand:
    def test_singlet_is_stationary(self, tmp_path, capsys):
        state_path = tmp_path / "singlet.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        config = RunConfig(output_path=str(tmp_path / "traj.csv"), t_max=5.0)
        assert cmd_simulate(config, str(state_path)) == 0
        lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header plus the initial state: a fixed point
        out = capsys.readouterr().out
        assert "trace distance" in out
        assert (tmp_path / "traj_reports.json").exists()

    def test_generic_state_writes_temperature_free_reports(self, tmp_path, capsys, rng):
        from qthermo.random_states import random_two_qubit_state

        state_path = tmp_path / "generic.json"
        write_state(state_path, random_two_qubit_state(rng))
        config = RunConfig(output_path=str(tmp_path / "traj.csv"), t_max=1.0)
        assert cmd_simulate(config, str(state_path)) == 0
        out = capsys.readouterr().out
        assert "trace distance" in out
        assert "skipped ergotropy_bound, global_ergotropy_bound, tradeoff, euler" in out
        payload = json.loads((tmp_path / "traj_reports.json").read_text())
        assert [e["name"] for e in payload] == [
            "subadditivity",
            "holevo_closure",
            "local_gain_identity",
            "gain_split",
        ]
        assert all(e["satisfied"] for e in payload)

    def test_ground_pair_converges(self, tmp_path, capsys):
        state_path = tmp_path / "gg.json"
        write_state(state_path, pure_state(KET_GG, dims=(2, 2)))
        config = RunConfig(output_path=str(tmp_path / "traj.csv"))
        assert cmd_simulate(config, str(state_path)) == 0
        out = capsys.readouterr().out
        distance = float(out.split("steady state: ")[1].split()[0])
        assert distance < 1e-6


class TestReportCommand:
    def test_thermal_product_state(self, tmp_path, capsys, qubit_h):
        tau = thermal_state(qubit_h, 1.0)
        rho = DensityMatrix(np.kron(tau.matrix, tau.matrix), dims=(2, 2))
        state_path = tmp_path / "state.json"
        h_path = tmp_path / "h.json"
        write_state(state_path, rho)
        write_hamiltonian(h_path, qubit_h)
        config = RunConfig(output_path=str(tmp_path / "reports.json"))
        assert cmd_report(config, str(state_path), str(h_path)) == 0
        payload = json.loads((tmp_path / "reports.json").read_text())
        assert len(payload) == 8
        for entry in payload:
            assert entry["satisfied"]
            assert abs(entry["slack"]) < 1e-9

    def test_matches_sweep_row(self, tmp_path, qubit_h):
        params = ModelParams()
        c = 0.5
        rho = analytic_steady_state(c, params)
        state_path = tmp_path / "ss.json"
        h_path = tmp_path / "h.json"
        write_state(state_path, rho)
        write_hamiltonian(h_path, qubit_h)
        config = RunConfig(output_path=str(tmp_path / "reports.json"))
        assert cmd_report(config, str(state_path), str(h_path)) == 0
        payload = {e["name"]: e for e in json.loads((tmp_path / "reports.json").read_text())}
        row = sweep_rows(RunConfig(c_start=c, c_stop=c, c_step=0.01))[0]
        assert abs(payload["ergotropy_bound"]["slack"] - row["slack1"]) < 1e-9
        assert abs(payload["global_ergotropy_bound"]["slack"] - row["slack2"]) < 1e-9
        assert abs(payload["euler"]["slack"] - row["euler_residual"]) < 1e-9


class TestMainExitCodes:
    def test_sweep_success(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["--c-step", "0.5", "--out", out, "sweep"]) == 0

    def test_invalid_state_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": None, "re": [[2.0]], "im": [[0.0]]}))
        code = main(["simulate", str(bad)])
        assert code == 2
        assert json.loads(capsys.readouterr().out.strip())["error"] == "invalid_input"

    def test_not_locally_thermal_report(self, tmp_path, capsys, qubit_h):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        tau = thermal_state(qubit_h, 1.0)
        rho = DensityMatrix(np.kron(np.outer(plus, plus), tau.matrix), dims=(2, 2))
        state_path = tmp_path / "state.json"
        h_path = tmp_path / "h.json"
        write_state(state_path, rho)
        write_hamiltonian(h_path, qubit_h)
        code = main(["--out", str(tmp_path / "r.json"), "report", str(state_path), str(h_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().out.strip())["error"] == "not_locally_thermal"

    @pytest.mark.parametrize(
        "flags", [["--count", "0", "verify"], ["--count", "-5", "verify"], ["--gamma", "0", "simulate"]]
    )
    def test_bad_run_settings_rejected(self, tmp_path, capsys, flags):
        state_path = tmp_path / "singlet.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        argv = ["--out", str(tmp_path / "out")] + flags
        if flags[-1] == "simulate":
            argv.append(str(state_path))
        assert main(argv) == 2
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "invalid_input"

    def test_zero_gamma_valid_with_explicit_horizon(self, tmp_path):
        state_path = tmp_path / "singlet.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        out = str(tmp_path / "traj.csv")
        assert main(["--gamma", "0", "--t-max", "0.05", "--out", out, "simulate", str(state_path)]) == 0
        sweep_out = str(tmp_path / "sweep.csv")
        assert main(["--gamma", "0", "--c-step", "0.5", "--out", sweep_out, "sweep"]) == 0

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from qthermo.verify import SuiteResult
        import qthermo.cli as cli

        fake = [SuiteResult("demo", 5, 2, -1.0, 1e-9, "slack")]
        monkeypatch.setattr(cli, "run_suites", lambda seed, n: fake)
        code = main(["--out", str(tmp_path / "v.json"), "verify"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_success_small(self, tmp_path, capsys):
        code = main(
            ["--count", "6", "--seed", "7", "--out", str(tmp_path / "v.json"), "verify"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "v.json").read_text())
        assert all(entry["passed"] for entry in payload)
