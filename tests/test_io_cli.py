import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qthermo import (
    DensityMatrix,
    ModelParams,
    Trajectory,
    analytic_steady_state,
    evolve,
    pure_state,
    thermal_state,
)
from qthermo import dissipation
from qthermo import cli
from qthermo.cli import (
    DEFAULT_OUTPUTS,
    RunConfig,
    _flag,
    cmd_report,
    cmd_simulate,
    cmd_sweep,
    load_config,
    main,
    sweep_rows,
    SWEEP_COLUMNS,
)
from qthermo.dissipation import KET_EE, KET_EG, KET_GG, PSI_MINUS
from qthermo.io import (
    CSV_CHUNK_ROWS,
    read_hamiltonian,
    read_state,
    trajectory_header,
    write_csv,
    write_hamiltonian,
    write_reports,
    write_state,
    write_trajectory_csv,
)
from qthermo.random_states import random_two_qubit_state, random_x_state
from qthermo.relations import _report

BELL_PHI = (KET_GG + KET_EE) / np.sqrt(2.0)


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
    def test_hamiltonian_roundtrip(self, tmp_path, qubit_h):
        path = tmp_path / "h.json"
        write_hamiltonian(path, qubit_h)
        assert np.abs(read_hamiltonian(path).matrix - qubit_h.matrix).max() < 1e-12


class TestReportSerialization:
    def test_non_finite_values_are_strings(self, tmp_path):
        path = tmp_path / "reports.json"
        write_reports(path, [_report("demo", -np.inf, 1.0, 1e-9, "x")])
        payload = json.loads(path.read_text())
        assert payload[0]["lhs"] == "-inf"
        assert payload[0]["slack"] == "inf"

    def test_finite_values_stay_numeric(self, tmp_path):
        path = tmp_path / "reports.json"
        write_reports(path, [_report("demo", 0.25, 0.5, 1e-9, "x", near_band=0.02)])
        payload = json.loads(path.read_text())
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
        last = lines[-1].split(",")
        assert float(last[-1]) == float(f"{traj.min_eigenvalues[-1]:.12g}")


def fmt(x) -> str:
    """The 12-significant-digit rendering of every CSV value."""
    return f"{float(x):.12g}"


def _reference_write_trajectory_csv(path, trajectory):
    """The row-at-a-time writer that the chunked one replaced."""
    with open(path, "w") as fh:
        fh.write(",".join(trajectory_header()) + "\n")
        for t, m, lowest in zip(trajectory.times, trajectory.states, trajectory.min_eigenvalues):
            entries = [fmt(part) for z in m.reshape(16) for part in (z.real, z.imag)]
            fh.write(",".join([fmt(t), *entries, fmt(np.trace(m).real), fmt(lowest)]) + "\n")


def _first_rows(traj, n):
    return Trajectory(
        times=traj.times[:n],
        states=traj.states[:n],
        min_eigenvalues=traj.min_eigenvalues[:n],
        stop_reason=traj.stop_reason,
        final_residual=traj.final_residual,
    )


class TestTrajectoryCsvBytes:
    """The chunked writer against the row-at-a-time writer, byte for byte."""

    def _assert_same_bytes(self, tmp_path, traj):
        _reference_write_trajectory_csv(tmp_path / "expected.csv", traj)
        write_trajectory_csv(tmp_path / "actual.csv", traj)
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "actual.csv").read_bytes() == expected
        assert expected.count(b"\n") == 1 + len(traj.states)

    @pytest.mark.parametrize("x_shaped", [False, True])
    def test_full_trajectory(self, tmp_path, x_shaped):
        rng = np.random.default_rng(5)
        rho0 = random_x_state(rng) if x_shaped else random_two_qubit_state(rng)
        traj = evolve(rho0, ModelParams(), dt=0.005, t_max=50.0)
        assert traj.stop_reason == ("fixed_point" if x_shaped else "horizon")
        self._assert_same_bytes(tmp_path, traj)

    @pytest.mark.parametrize("n", [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_lengths_around_the_chunk(self, tmp_path, rng, n):
        traj = evolve(random_two_qubit_state(rng), ModelParams(), dt=0.005, t_max=5.0)
        self._assert_same_bytes(tmp_path, _first_rows(traj, n))

    def test_signed_zero_tiny_and_integral_values(self, tmp_path):
        states = np.zeros((3, 4, 4), dtype=complex)
        states[0] = np.diag([1.0, 0.0, 0.0, 0.0])
        states[0, 0, 1] = complex(-0.0, -0.0)
        states[0, 1, 0] = complex(0.0, -0.0)
        states[1] = np.diag([0.25, 0.25, 0.25, 0.25])
        states[1, 0, 3] = complex(1e-300, -1e-300)
        states[1, 3, 0] = complex(-5e-324, 2.5e-308)
        states[2] = np.diag([3.0, -2.0, 0.0, 0.0])
        states[2, 2, 3] = complex(123456789012.0, -1e12)
        traj = Trajectory(
            times=np.array([0.0, 1e-300, 7.0]),
            states=states,
            min_eigenvalues=np.array([-0.0, 1e-300, -2.0]),
            stop_reason="horizon",
            final_residual=0.0,
        )
        self._assert_same_bytes(tmp_path, traj)
        rows = (tmp_path / "actual.csv").read_text().split("\n")
        assert rows[1].split(",")[3] == "-0"
        assert rows[2].split(",")[7] == "1e-300"
        assert rows[3].split(",")[-1] == "-2"


    @pytest.mark.parametrize("n", [CSV_CHUNK_ROWS + 1, CSV_CHUNK_ROWS + 7])
    def test_constant_columns(self, tmp_path, rng, n):
        traj = _first_rows(
            evolve(random_two_qubit_state(rng), ModelParams(), dt=0.005, t_max=5.0), n
        )
        states = traj.states.copy()
        states[:, 0, 1] = complex(0.0, -0.0)  # re all +0.0, im all -0.0
        states[:, 0, 2] = 0.1 + 0.2j  # nonzero constants
        states[:, 1, 3] = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)  # equal, not same bits
        states[CSV_CHUNK_ROWS:, 2, 3] = 0.25  # constant in the second chunk only
        traj = dataclasses.replace(traj, states=states)
        self._assert_same_bytes(tmp_path, traj)
        header = trajectory_header()
        rows = [line.split(",") for line in (tmp_path / "actual.csv").read_text().splitlines()[1:]]
        columns = {name: [row[k] for row in rows] for k, name in enumerate(header)}
        assert set(columns["re_01"]) == {"0"}
        assert set(columns["im_01"]) == {"-0"}
        assert set(columns["re_02"]) == {"0.1"} and set(columns["im_02"]) == {"0.2"}
        assert columns["re_13"][:4] == ["-0", "0", "0", "-0"]
        assert set(columns["re_23"][CSV_CHUNK_ROWS:]) == {"0.25"}
        assert len(set(columns["re_23"][:CSV_CHUNK_ROWS])) > 1


def test_write_csv_renders_every_value_as_fmt(tmp_path):
    values = [0.0, -0.0, 1.0, -2.5, 1.0 / 3.0, 1e-300, 5e-324, 1.7976931348623157e308,
              np.inf, -np.inf, np.nan, 123456789012345.0, np.float64(0.1), 3, True]
    path = tmp_path / "table.csv"
    write_csv(path, ["x", "y"], [{"y": v, "x": -v} for v in values])
    expected = "x,y\n" + "".join(f"{fmt(-v)},{fmt(v)}\n" for v in values)
    assert path.read_text() == expected
    write_csv(path, ["x"], [])
    assert path.read_text() == "x\n"


def test_write_csv_formats_constant_columns_by_bits(tmp_path):
    path = tmp_path / "table.csv"
    rows = [{"x": -0.0, "y": v, "z": 1.0 / 3.0} for v in (0.0, -0.0, 2.0)]
    write_csv(path, ["x", "y", "z"], rows)
    assert path.read_text() == "x,y,z\n" + "".join(
        f"-0,{fmt(r['y'])},{fmt(1.0 / 3.0)}\n" for r in rows
    )


def test_write_csv_all_constant_table(tmp_path):
    """Every column constant by bits: the row format holds no placeholder."""
    path = tmp_path / "table.csv"
    write_csv(path, ["x", "y", "z"], [{"x": -0.0, "y": 0.5, "z": np.nan}] * 3)
    assert path.read_text() == "x,y,z\n" + "-0,0.5,nan\n" * 3
    write_csv(path, ["x"], [{"x": 1e-300}])
    assert path.read_text() == "x\n1e-300\n"


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
        # refused before anything is allocated, also where the point count is inf
        for step in (9.9e-6, 1e-12, 5e-324):
            with pytest.raises(ValueError, match="c_step"):
                RunConfig(c_step=step).c_grid()
        assert len(RunConfig(c_step=1e-5).c_grid()) == 100_001

    @pytest.mark.parametrize(
        "settings, count, last",
        [
            ({}, 101, 1.0),
            ({"c_step": 0.25}, 5, 1.0),
            # (c_stop - c_start) / c_step = 18.999999999999996 keeps c = 1
            ({"c_start": 0.05, "c_step": 0.05}, 20, 1.0),
            # no point past c_stop: not 0.6, nor 1.2 clipped to 1
            ({"c_stop": 0.5, "c_step": 0.3}, 2, 0.3),
            ({"c_step": 0.6}, 2, 0.6),
        ],
    )
    def test_grid_ends_at_or_before_c_stop(self, settings, count, last):
        config = RunConfig(**settings)
        grid = config.c_grid()
        assert len(grid) == count
        assert grid[-1] == pytest.approx(last, rel=0, abs=1e-12) and grid[-1] <= config.c_stop

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

    def test_optional_values_accept_null(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"t_max": None, "output_path": None, "dt": 1, "seed": 3}))
        config = load_config(str(path))
        assert config.t_max is None and config.dt == 1 and config.seed == 3


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

    def test_stop_reason_is_printed(self, tmp_path, capsys, rng):
        for name, rho0, t_max, reason in (
            ("x", random_x_state(rng), None, "fixed_point"),
            ("generic", random_two_qubit_state(rng), 1.0, "horizon"),
        ):
            config = RunConfig(output_path=str(tmp_path / f"{name}.csv"), t_max=t_max)
            traj = evolve(rho0, config.model_params(), config.dt, config.horizon())
            assert traj.stop_reason == reason
            assert (traj.final_residual < 1e-12) == (reason == "fixed_point")
            state_path = tmp_path / f"{name}.json"
            write_state(state_path, rho0)
            assert cmd_simulate(config, str(state_path)) == 0
            out = capsys.readouterr().out.split("\n")
            assert out[1] == (
                f"stopped at {reason}: max|L rho| of the final state = "
                f"{traj.final_residual!r}"
            )
        assert len((tmp_path / "generic.csv").read_text().split("\n")) == 1 + 201 + 1

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
    @pytest.mark.parametrize(
        "flags, cs",
        [(["--c-stop", "0.5", "--c-step", "0.3"], [0.0, 0.3]), (["--c-step", "0.6"], [0.0, 0.6])],
    )
    def test_sweep_writes_no_row_past_c_stop(self, tmp_path, flags, cs):
        out = tmp_path / "s.csv"
        assert main(flags + ["--out", str(out), "sweep"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == cs

    def test_zero_step_simulate_refused(self, tmp_path, capsys):
        # t_max / dt = 0.4 rounds to no step at the default dt = 0.005
        state_path = tmp_path / "bell.json"
        write_state(state_path, pure_state(BELL_PHI, dims=(2, 2)))
        out = tmp_path / "traj.csv"
        assert main(["--t-max", "0.002", "--out", str(out), "simulate", str(state_path)]) == 2
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "invalid_input",
            "message": "t_max = 0.002 with dt = 0.005 gives no integration step",
        }
        assert not out.exists() and not (tmp_path / "traj_reports.json").exists()

    def test_sweep_success(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["--c-step", "0.5", "--out", out, "sweep"]) == 0

    def test_repeated_calls_share_no_state(self, tmp_path, capsys):
        """One parser serves every call in a process; no flag of one call may
        reach the next."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--c-step", "0.5", "--out", str(a), "sweep"]) == 0
        assert main(["--out", str(b), "sweep"]) == 0
        assert len(a.read_text().splitlines()) == 1 + 3
        assert len(b.read_text().splitlines()) == 1 + 101
        capsys.readouterr()
        assert main(["--count", "x", "verify"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"
        assert main(["--c-step", "0.5", "--out", str(a), "sweep"]) == 0

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
        "flags",
        [
            ["--count", "0", "verify"],
            ["--count", "-5", "verify"],
            ["--gamma", "0", "simulate"],
            ["--c-step", "1e-12", "sweep"],
            ["--gamma", "-1", "sweep"],
            ["--t-max", "-1", "simulate"],
            ["--t-max", "0", "simulate"],
            ["--dt", "1e-300", "--t-max", "1e10", "simulate"],
        ],
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

    @pytest.mark.parametrize("command", ["sweep", "simulate", "verify", "report"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory", "default_is_directory"])
    def test_unwritable_out_refused_before_work(self, tmp_path, monkeypatch, capsys, qubit_h,
                                                command, where):
        state_path, h_path = tmp_path / "state.json", tmp_path / "h.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        write_hamiltonian(h_path, qubit_h)
        monkeypatch.setattr(cli, f"cmd_{command}", lambda *a: pytest.fail("work was started"))
        operands = {"simulate": [str(state_path)], "report": [str(state_path), str(h_path)]}
        argv = [command, *operands.get(command, [])]
        if where == "missing_dir":
            out = tmp_path / "missing" / "out.txt"
            argv = ["--out", str(out)] + argv
            reason = f"directory {out.parent} does not exist"
        elif where == "directory":
            out = tmp_path
            argv = ["--out", str(out)] + argv
            reason = "is a directory"
        else:
            out = DEFAULT_OUTPUTS[command]
            (tmp_path / out).mkdir()
            monkeypatch.chdir(tmp_path)
            reason = "is a directory"
        assert main(argv) == 2
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input"
        assert error["message"].startswith(f"--out {out}")
        assert error["message"].endswith(reason)

    @pytest.mark.parametrize("default_name", [False, True])
    def test_simulate_reports_file_refused_before_work(self, tmp_path, monkeypatch, capsys,
                                                       default_name):
        """simulate also writes <stem>_reports.json beside its CSV: a
        directory there is refused before the run, and no CSV is written."""
        state_path = tmp_path / "rho0.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        work = tmp_path / "d"
        work.mkdir()
        argv = ["--t-max", "1", "simulate", str(state_path)]
        if default_name:
            monkeypatch.chdir(work)
            out = DEFAULT_OUTPUTS["simulate"]
            csv = work / out
        else:
            csv = work / "traj.csv"
            out = str(csv)
            argv = ["--out", out] + argv
        reports = Path(out).with_name(Path(out).stem + "_reports.json")
        (work / reports.name).mkdir()
        assert main(argv) == 2
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input"
        assert error["message"] == f"--out {out}: its reports file {reports} is a directory"
        assert not csv.exists()

    def test_steps_past_the_cap_refused(self, tmp_path, monkeypatch, capfd):
        # t_max / dt = 1e300 is finite, but no step of dt = 1e-300 moves the
        # state, so only the cap on stored steps ends the run
        monkeypatch.setattr(dissipation, "MAX_TRAJECTORY_STEPS", 1000)
        state_path = tmp_path / "bell.json"
        write_state(state_path, pure_state(BELL_PHI, dims=(2, 2)))
        out = tmp_path / "traj.csv"
        argv = ["--dt", "1e-300", "--t-max", "1", "--out", str(out), "simulate", str(state_path)]
        assert main(argv) == 2
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1 and captured.err == ""
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input"
        assert error["message"].startswith("t_max / dt = 1e+300 steps exceeds the cap of 1000")
        assert not out.exists()

    def test_zero_gamma_valid_with_explicit_horizon(self, tmp_path):
        state_path = tmp_path / "singlet.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        out = str(tmp_path / "traj.csv")
        assert main(["--gamma", "0", "--t-max", "0.05", "--out", out, "simulate", str(state_path)]) == 0
        sweep_out = str(tmp_path / "sweep.csv")
        assert main(["--gamma", "0", "--c-step", "0.5", "--out", sweep_out, "sweep"]) == 0

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from qthermo import verify
        from qthermo.verify import SuiteResult

        fake = [SuiteResult("demo", 5, 2, -1.0, 1e-9, "slack")]
        # cli imports verify inside cmd_verify, so the fake goes on verify itself
        monkeypatch.setattr(verify, "run_suites", lambda seed, n: fake)
        code = main(["--out", str(tmp_path / "v.json"), "verify"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config, flags, field",
        [
            ({"verify_count": "5"}, ["verify"], "verify_count"),
            ({"verify_count": 5.0}, ["verify"], "verify_count"),
            ({"beta_e": "10"}, ["sweep"], "beta_e"),
            ({"c_step": None}, ["sweep"], "c_step"),
            ({"seed": True}, ["verify"], "seed"),
            ({"output_path": 3}, ["sweep"], "output_path"),
            ([1, 2], ["verify"], "JSON object"),
            (None, ["--beta-e", "inf", "sweep"], "beta_e"),
            (None, ["--beta-e", "nan", "sweep"], "beta_e"),
            (None, ["--omega", "nan", "sweep"], "omega"),
            (None, ["--dt", "nan", "simulate"], "dt"),
            (None, ["--t-max", "nan", "simulate"], "t_max"),
            # malformed command lines, rejected by argparse itself
            (None, ["--count", "5.5", "verify"], "--count"),
            (None, ["--beta-e", "abc", "sweep"], "--beta-e"),
            (None, ["--bogus", "sweep"], "--bogus"),
            (None, [], "command"),
            (None, ["report", "state.json"], "hamiltonian"),
            # appended last so that the cases above keep their parametrize ids
            ({"seed": -1}, ["verify"], "seed"),
            (None, ["--seed", "-1", "verify"], "seed"),
        ],
    )
    def test_bad_config_values_rejected(self, tmp_path, monkeypatch, capsys, config, flags, field):
        monkeypatch.chdir(tmp_path)  # no --out flag, so that output_path comes from the file
        state_path = tmp_path / "singlet.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        argv = []
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        argv += flags
        if flags[-1:] == ["simulate"]:
            argv.append(str(state_path))
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input" and field in error["message"]
        assert captured.err == ""

    def test_huge_beta_omega_simulates_quietly(self, tmp_path, capfd):
        # beta_e * omega = 800 overflows expm1 in the bath occupation
        state_path = tmp_path / "singlet.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        argv = ["--beta-e", "800", "--out", str(tmp_path / "traj.csv"), "simulate", str(state_path)]
        assert main(argv) == 0
        assert capfd.readouterr().err == ""

    def test_infinite_nbar_refused_by_name(self, tmp_path, capfd):
        # beta_e * omega underflows to 0: the bath occupation is infinite
        state_path = tmp_path / "singlet.json"
        write_state(state_path, pure_state(PSI_MINUS, dims=(2, 2)))
        flags = ["--beta-e", "1e-200", "--omega", "1e-200"]
        argv = flags + ["--out", str(tmp_path / "traj.csv"), "simulate", str(state_path)]
        assert main(argv) == 2
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1 and captured.err == ""
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input" and "beta_e * omega" in error["message"]
        # the sweep never uses the bath occupation
        argv = flags + ["--c-step", "0.5", "--out", str(tmp_path / "s.csv"), "sweep"]
        assert main(argv) == 0
        assert capfd.readouterr().err == ""

    def test_sweep_at_the_smallest_beta_is_quiet(self, tmp_path, capfd):
        # at beta_e = 1e-308 the local beta of the c = 0.01 and 0.02 rows,
        # about 4 c beta_e / 3, is subnormal, and the gain term Delta I / beta
        # overflows to -inf, as at beta = 0; the pinned CSV carries those
        # values
        out = tmp_path / "s.csv"
        grid = ["--c-stop", "0.02", "--c-step", "0.01"]
        assert main(["--beta-e", "1e-308", *grid, "--out", str(out), "sweep"]) == 0
        assert capfd.readouterr().err == ""
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "ba22e82fa90aee844a276a8b57408f3666fc94fd502d1976996ceea3dbf90cfc"

    @pytest.mark.parametrize(
        "beta_omega, code",
        [("1e-2", 0), ("0.1", 0), ("1", 0), ("10", 0), ("30", 0), ("100", 0), ("745", 2), ("1e3", 2)],
    )
    def test_sweep_over_beta_omega_range(self, tmp_path, capfd, beta_omega, code):
        # from beta_e * omega ~ 709 the c = 1 marginals are the ground state
        argv = ["--beta-e", beta_omega, "--c-step", "0.25", "--out", str(tmp_path / "s.csv"), "sweep"]
        assert main(argv) == code
        captured = capfd.readouterr()
        assert captured.err == ""
        if code == 2:
            lines = captured.out.strip().split("\n")
            assert len(lines) == 1
            message = json.loads(lines[0])["message"]
            assert f"beta_e * omega = {float(beta_omega):g}, c = 1" in message

    @pytest.mark.parametrize("omega, bound", [("1e-12", "0.000444"), ("1e-300", "4.44e+284")])
    def test_ill_conditioned_temperature_fit_is_invalid_input(self, tmp_path, capfd, omega, bound):
        # the fit's round-off bound 2 eps / omega exceeds the 1e-6 match
        # tolerance, and so does the mismatch: the fit cannot tell the state's
        # temperature, which is no evidence that the state is not thermal
        out = tmp_path / "s.csv"
        assert main(["--omega", omega, "--c-step", "0.25", "--out", str(out), "sweep"]) == 2
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1 and captured.err == ""
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input"
        assert error["message"].startswith(
            f"temperature fit is ill-conditioned at omega = {float(omega):.3g} (beta * omega = "
        )
        assert f"round-off alone can move the fitted beta by {bound}," in error["message"]
        assert not out.exists()

    def test_small_omega_with_a_resolved_fit_keeps_its_csv(self, tmp_path, capfd):
        # at omega = 1e-9 the round-off bound, 4.4e-7, is inside the tolerance
        out = tmp_path / "s.csv"
        assert main(["--omega", "1e-9", "--c-step", "0.25", "--out", str(out), "sweep"]) == 0
        assert capfd.readouterr().err == ""
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "8b8ecf57bbe0db47641d2ab7f4911ee2b20fd2eb053ea27c1f7af25156491a9d"

    @pytest.mark.parametrize(
        "ket, flags, t",
        [
            (KET_EG, ["--f", "600"], "0.005"),
            (BELL_PHI, ["--f", "600"], "0.05"),
            (BELL_PHI, ["--omega", "2000"], "0.005"),
        ],
    )
    def test_unstable_step_rejected(self, tmp_path, capfd, ket, flags, t):
        state_path = tmp_path / "rho0.json"
        write_state(state_path, pure_state(ket, dims=(2, 2)))
        argv = flags + ["--out", str(tmp_path / "traj.csv"), "simulate", str(state_path)]
        assert main(argv) == 2
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input"
        assert error["message"].startswith(f"integration failed at t = {t} with dt = 0.005")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "ket, flags",
        [(BELL_PHI, ["--omega", "1e200"]), (KET_EG, ["--f", "1e200"])],
    )
    def test_overflowing_hamiltonian_scale_rejected(self, tmp_path, capfd, ket, flags):
        # the first RK4 step overflows; no numpy warning reaches stderr
        state_path = tmp_path / "rho0.json"
        write_state(state_path, pure_state(ket, dims=(2, 2)))
        argv = flags + ["--out", str(tmp_path / "traj.csv"), "simulate", str(state_path)]
        assert main(argv) == 2
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input"
        assert error["message"] == (
            "integration failed at t = 0.005 with dt = 0.005 (reduce the step size): "
            "density matrix has non-finite entries"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_non_finite_entry_rejected(self, tmp_path, capfd, qubit_h, command):
        state = {"dims": [2, 2], "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        h = {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        # simulate gets the NaN in the state, report in the Hamiltonian
        (state if command == "simulate" else h)["re"][0][0] = "nan"
        state_path, h_path = tmp_path / "state.json", tmp_path / "h.json"
        state_path.write_text(json.dumps(state))
        h_path.write_text(json.dumps(h))
        argv = ["--out", str(tmp_path / "out"), command, str(state_path)]
        if command == "report":
            argv.append(str(h_path))
        assert main(argv) == 2
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "invalid_input" and "non-finite" in error["message"]
        assert captured.err == ""

    @pytest.mark.parametrize(
        "command, state, hamiltonian, message",
        [
            ("simulate", [1, 2], None, "JSON object, got list"),
            ("report", None, [1, 2], "JSON object, got list"),
            ("simulate", {"dims": [2]}, None, "two positive integers"),
            ("simulate", {"dims": [2, 2, 2]}, None, "two positive integers"),
            ("simulate", {"dims": [-2, -2]}, None, "two positive integers"),
            ("report", {"re": {"a": 1}}, None, "arrays of numbers"),
        ],
    )
    def test_malformed_file_rejected(
        self, tmp_path, capfd, bell_state, qubit_h, command, state, hamiltonian, message
    ):
        state_path, h_path = tmp_path / "state.json", tmp_path / "h.json"
        write_state(state_path, bell_state)
        write_hamiltonian(h_path, qubit_h)
        for path, change in ((state_path, state), (h_path, hamiltonian)):
            if isinstance(change, dict):
                path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
            elif change is not None:
                path.write_text(json.dumps(change))
        argv = ["--out", str(tmp_path / "out"), command, str(state_path)]
        if command == "report":
            argv.append(str(h_path))
        assert main(argv) == 2
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1 and captured.err == ""
        assert message in json.loads(lines[0])["message"]

    @pytest.mark.parametrize("command", ["report", "verify", "sweep"])
    def test_violated_identity_is_a_property_failure(
        self, tmp_path, monkeypatch, capsys, qubit_h, command
    ):
        """A violated internal identity exits 1 as a property failure, not 2
        as invalid input, and writes no output file."""
        import qthermo.correlations as correlations

        tau = thermal_state(qubit_h, 1.0)
        state_path, h_path = tmp_path / "state.json", tmp_path / "h.json"
        write_state(state_path, DensityMatrix(np.kron(tau.matrix, tau.matrix), dims=(2, 2)))
        write_hamiltonian(h_path, qubit_h)
        out = tmp_path / "out"
        argv = {
            "report": ["report", str(state_path), str(h_path)],
            "verify": ["--count", "2", "verify"],
            "sweep": ["--c-step", "0.5", "sweep"],
        }[command]
        monkeypatch.setattr(correlations, "SPLIT_TOL", -1.0)
        assert main(["--out", str(out)] + argv) == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "property_failure"
        assert error["message"].startswith("gain split identity violated")
        assert not out.exists() and captured.err == ""

    def test_verify_writes_non_finite_worst_as_string(self, tmp_path, monkeypatch, capsys):
        from qthermo import verify
        from qthermo.verify import SuiteResult

        fake = [SuiteResult("demo", 5, 5, np.inf, 1e-8, "residual")]
        # cli imports verify inside cmd_verify, so the fake goes on verify itself
        monkeypatch.setattr(verify, "run_suites", lambda seed, n: fake)
        out = tmp_path / "v.json"
        assert main(["--out", str(out), "verify"]) == 1

        def reject(token):
            raise ValueError(f"bare {token} in the report")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload[0]["worst"] == "inf"

    def test_verify_success_small(self, tmp_path, capsys):
        code = main(
            ["--count", "6", "--seed", "7", "--out", str(tmp_path / "v.json"), "verify"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "v.json").read_text())
        assert all(entry["passed"] for entry in payload)


def test_suites_registry_selects_by_name():
    # the benchmark times each suite alone through run_suites(names=[name])
    from qthermo.verify import SUITES, run_suites

    assert len(SUITES) == 30
    assert len({name for name, _, _ in SUITES}) == 30
    assert all(callable(run) and isinstance(scale, float) for _, run, scale in SUITES)
    full = run_suites(seed=3, n=1)
    assert [r.name for r in full] == [name for name, _, _ in SUITES]
    for expected in full:
        (alone,) = run_suites(seed=3, n=1, names=[expected.name])
        assert alone == expected


# Malformed input files for the fuzz below.  A state has at most 3 rows, so it
# can never be the 4x4 state simulate needs, nor split into two qubits for
# report; a Hamiltonian never has 2 rows, so it never fits the qubit state.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)
_ROW = st.lists(st.one_of(st.integers(), st.floats()), max_size=3)


def _matrix_file(rows):
    matrix = st.one_of(_JSON, rows.flatmap(lambda n: st.lists(_ROW, min_size=n, max_size=n)))
    fields = st.fixed_dictionaries(
        {"re": matrix, "im": matrix},
        optional={"dims": st.one_of(_JSON, st.lists(st.integers(-2, 5), max_size=3))},
    )
    return st.one_of(_JSON, fields)


_MALFORMED_STATE = _matrix_file(st.integers(0, 3))
_MALFORMED_HAMILTONIAN = _matrix_file(st.sampled_from([0, 1, 3]))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(state=_MALFORMED_STATE, hamiltonian=_MALFORMED_HAMILTONIAN)
def test_malformed_files_exit_2(tmp_path, capfd, qubit_h, bell_state, state, hamiltonian):
    """Any malformed state or Hamiltonian file ends in exit 2, one JSON line
    and an empty stderr, for report and simulate."""
    good_state, good_h = tmp_path / "good_state.json", tmp_path / "good_h.json"
    write_state(good_state, bell_state)
    write_hamiltonian(good_h, qubit_h)
    bad_state, bad_h = tmp_path / "bad_state.json", tmp_path / "bad_h.json"
    bad_state.write_text(json.dumps(state))
    bad_h.write_text(json.dumps(hamiltonian))
    out = ["--out", str(tmp_path / "out")]
    for argv in (
        out + ["report", str(bad_state), str(good_h)],
        out + ["report", str(good_state), str(bad_h)],
        ["--t-max", "0.01"] + out + ["simulate", str(bad_state)],
    ):
        code = main(argv)
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert (code, len(lines), captured.err) == (2, 1, ""), (argv, captured)
        assert "error" in json.loads(lines[0])


def _rejected_by(kind):
    def rejects(text: str) -> bool:
        try:
            kind(text)
        except ValueError:
            return True
        return False

    return rejects


def _bad_flag_value(kind):
    """Flag text that every command refuses: what the flag's type rejects,
    a non-finite float, or a float where an integer is wanted."""
    values = [st.text(max_size=6).filter(_rejected_by(kind)), st.just("")]
    if kind is float:
        values.append(st.sampled_from(["nan", "inf", "-inf"]))
    else:
        values.append(st.floats().map(repr).filter(_rejected_by(kind)))
    return st.one_of(values)


# the numeric global flags, from the RunConfig field table the parser is built from
_NUMERIC_FLAGS = [
    (name, kind) for name, kind in map(_flag, dataclasses.fields(RunConfig)) if kind is not str
]


@pytest.mark.parametrize("flag, kind", _NUMERIC_FLAGS, ids=[name for name, _ in _NUMERIC_FLAGS])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_malformed_flags_exit_2(tmp_path, capfd, qubit_h, bell_state, flag, kind, data):
    """A malformed numeric flag ends in exit 2, one invalid_input JSON line
    and an empty stderr, for every command."""
    value = data.draw(_bad_flag_value(kind), label="value")
    state, h = tmp_path / "state.json", tmp_path / "h.json"
    write_state(state, bell_state)
    write_hamiltonian(h, qubit_h)
    # cheap settings first, so a value wrongly accepted costs milliseconds;
    # "=" hands a value that starts with "-" to the flag
    head = ["--count", "1", "--c-step", "0.5", "--t-max", "0.01", "--out", str(tmp_path / "out")]
    head.append(f"{flag}={value}")
    commands = (["sweep"], ["verify"], ["simulate", str(state)], ["report", str(state), str(h)])
    for command in commands:
        code = main(head + command)
        captured = capfd.readouterr()
        lines = captured.out.strip().split("\n")
        assert (code, len(lines), captured.err) == (2, 1, ""), (head, command, captured)
        assert json.loads(lines[0])["error"] == "invalid_input"
