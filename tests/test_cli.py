import json
import os

import numpy as np
import pytest

import rhlab.runner as runner_mod
from rhlab.cli import main
from rhlab.errors import (ConfigError, IterationError, SolverError,
                          StepSizeError)


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def equilibrium_cfg(tmp_path, outdir, boundary="farfield", rho_bar=1.0):
    return write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0
boundary = {boundary}
rho_bar = {rho_bar}

[model]
kind = zero

[scenario]
name = equilibrium

[run]
t_final = 0.004
slab_length = 0.002
dt = 0.001
output_dir = {outdir}
""")


class TestRunCommand:
    def test_equilibrium_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", equilibrium_cfg(tmp_path, out)])
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "monitor.csv").exists()
        assert (out / "picard.csv").exists()
        text = (out / "summary.json").read_text()
        assert '"relative_drift": 0' in text

    def test_periodic_background_is_grid_rho_bar(self, tmp_path):
        # [grid] rho_bar is both the equilibrium's density and Phi's reference
        out = tmp_path / "out"
        assert main(["run", equilibrium_cfg(tmp_path, out, "periodic", 3.0)]) == 0
        rho = np.load(out / "snapshots" / "rho.npy")
        assert np.all(rho[0] == 3.0)
        first = (out / "monitor.csv").read_text().splitlines()[1].split(",")
        assert float(first[1]) == 1.0

    def test_monitor_csv_columns(self, tmp_path):
        out = tmp_path / "out"
        main(["run", equilibrium_cfg(tmp_path, out)])
        header = (out / "monitor.csv").read_text().splitlines()[0]
        assert header == "time,phi,theta,phi_I,phi_rho,phi_u,mass,min_rho,flags"

    def test_snapshots_readable(self, tmp_path):
        out = tmp_path / "out"
        main(["run", equilibrium_cfg(tmp_path, out)])
        snap = out / "snapshots"
        assert sorted(p.name for p in snap.iterdir()) == ["Er.npy", "rho.npy", "t.npy", "u.npy"]
        t = np.load(snap / "t.npy")
        assert np.array_equal(t, [0.0, 0.001, 0.002, 0.003, 0.004])
        rho = np.load(snap / "rho.npy")
        assert rho.shape == (5, 64) and np.all(rho == 1.0)
        assert np.load(snap / "u.npy").shape == (5, 1, 64)
        assert np.load(snap / "Er.npy").shape == (5, 64)

    def test_snapshot_stride(self, tmp_path):
        # every second state of a 1D run: t.npy holds the monitor's times
        # [::2], and each stack's density is the monitor's min_rho there
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 32
lengths = 1.0
boundary = periodic

[model]
kind = constant
sigma0 = 0.2
emission0 = 0.05

[scenario]
name = smooth-bump

[run]
t_final = 0.005
slab_length = 0.0025
dt = 0.0005
snapshot_stride = 2
output_dir = {out}
""")
        assert main(["run", cfg]) == 0
        rows = [line.split(",") for line in
                (out / "monitor.csv").read_text().splitlines()[1:]]
        assert len(rows) == 11
        times = [float(row[0]) for row in rows][::2]
        min_rhos = [float(row[7]) for row in rows][::2]
        snap = out / "snapshots"
        t, rho = np.load(snap / "t.npy"), np.load(snap / "rho.npy")
        assert np.array_equal(t, times)
        for name in ("rho", "u", "Er"):
            assert len(np.load(snap / f"{name}.npy")) == len(times) == 6
        assert [float(np.min(r)) for r in rho] == min_rhos
        assert np.load(snap / "u.npy").shape == (6, 1, 32)

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0
boundary = farfield
rho_bar = 1.0

[model]
kind = constant
sigma0 = 0.4
kernel0 = 0.1
emission0 = 0.05

[scenario]
name = smooth-bump

[run]
t_final = 0.004
slab_length = 0.002
dt = 0.001
output_dir = {out1}
""")
        assert main(["run", cfg]) == 0
        os.environ["RHLAB_OUTPUT_DIR"] = str(out2)
        try:
            assert main(["run", cfg]) == 0
        finally:
            del os.environ["RHLAB_OUTPUT_DIR"]
        snapshots = sorted(p.name for p in (out1 / "snapshots").iterdir())
        assert snapshots == sorted(p.name for p in (out2 / "snapshots").iterdir())
        for name in ["summary.json", "monitor.csv", "picard.csv"] + \
                [f"snapshots/{snap}" for snap in snapshots]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_delta_schedule_reported(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0
boundary = farfield
rho_bar = 1.0

[model]
kind = constant
sigma0 = 0.2
emission0 = 0.02

[scenario]
name = vacuum-plateau

[run]
t_final = 0.002
slab_length = 0.002
dt = 0.001
max_halvings = 4
deltas = 1e-2, 1e-3, 1e-4
output_dir = {out}
""")
        assert main(["run", cfg]) == 0
        text = (out / "summary.json").read_text()
        assert '"delta_continuation"' in text
        assert '"monotone": true' in text


class TestOtherCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("equilibrium", "smooth-bump", "vacuum-plateau",
                     "vacuum-farfield", "compat-satisfied", "compat-diverging",
                     "beam-absorption"):
            assert name in out

    def test_check_compat(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 256
lengths = 1.0
boundary = farfield
rho_bar = 1.0

[model]
kind = zero

[scenario]
name = compat-diverging

[run]
t_final = 0.002
output_dir = {out}
""")
        assert main(["check-compat", cfg]) == 0
        line = capsys.readouterr().out
        assert "diverging" in line
        result = json.loads((out / "compatibility.json").read_text())
        cells = [entry[2] for entry in result["refinement_trace"]]
        assert cells == sorted(cells, reverse=True) and cells[-1] > 0
        assert all(f"({n} cells at or below)" in line for n in cells)

    def test_validate_model(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0
boundary = farfield
rho_bar = 1.0

[model]
kind = compton
D1 = 1.0
D2 = 2.0
v0 = 1.5
theta = 1.0
kernel0 = 0.1

[scenario]
name = smooth-bump

[run]
t_final = 0.002
output_dir = {out}
""")
        assert main(["validate-model", cfg]) == 0
        printed = capsys.readouterr().out
        assert "kernel_integrability: pass" in printed
        assert (out / "validation.json").exists()


class TestExitCodes:
    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[physics]\nq = 7\n")
        assert main(["run", cfg]) == 2
        assert "q must lie in (3, 6]" in capsys.readouterr().err

    def test_initial_data_the_scenario_rejects_exit_2(self, tmp_path, capsys):
        # the config is valid key by key, but its equilibrium has no positive
        # background density: the run stops at parse, citing the name line
        out = tmp_path / "out"
        cfg = equilibrium_cfg(tmp_path, out, "periodic", 0.0)
        line = (tmp_path / "run.cfg").read_text().splitlines().index("name = equilibrium") + 1
        assert main(["run", cfg]) == 2
        assert (f"line {line}: scenario equilibrium: needs a positive "
                f"background density") in capsys.readouterr().err
        assert not out.exists()

    def test_failed_solve_leaves_no_output_dir(self, tmp_path):
        # one sweep cannot converge and halving is off: exit 5 before any
        # output is written, and no empty directory is left behind
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0
boundary = periodic

[model]
kind = constant

[scenario]
name = smooth-bump

[run]
t_final = 0.004
slab_length = 0.002
dt = 0.001
max_iters = 1
max_halvings = 0
output_dir = {out}
""")
        assert main(["run", cfg]) == 5
        assert not out.exists()

    def test_failed_solve_names_its_slab(self, tmp_path, capsys):
        # the one line of a failed fixed-point solve names the slab's start
        # time and the length of its last attempt
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0
boundary = periodic

[model]
kind = constant

[scenario]
name = smooth-bump

[run]
t_final = 0.004
slab_length = 0.002
dt = 0.001
max_iters = 1
max_halvings = 0
output_dir = {tmp_path / "out"}
""")
        assert main(["run", cfg]) == 5
        assert capsys.readouterr().err == (
            "error (IterationError): fixed-point iteration failed to converge after 0 "
            "halvings (slab from t0 = 0, last attempt of length 0.002)\n")

    def test_extrapolate_key_exit_2(self, tmp_path, capsys):
        # a run has no extrapolated output, so [run] has no extrapolate key
        cfg = write_cfg(tmp_path, "[run]\nt_final = 0.004\nextrapolate = true\n")
        assert main(["run", cfg]) == 2
        assert "line 3: unknown key 'extrapolate' in section [run]" in capsys.readouterr().err

    def test_transport_cfl_key_exit_2(self, tmp_path, capsys):
        # the transport substeps are cut at a fixed fraction of the CFL limit
        cfg = write_cfg(tmp_path, "[run]\nt_final = 0.004\ntransport_cfl = 0.5\n")
        assert main(["run", cfg]) == 2
        assert "line 3: unknown key 'transport_cfl' in section [run]" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        # a missing path, a directory and a file that is not UTF-8 are each
        # reported as a one-line config error
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("[grid]\n# caf\xe9\n".encode("latin-1"))
        for path in ("/nonexistent/path.cfg", str(tmp_path), str(latin1)):
            assert main(["run", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error (ConfigError): cannot read config file {path}: ")
            assert err.count("\n") == 1

    def test_runtime_cfl_exit_3(self, tmp_path, capsys):
        # the transport meets its CFL limit in substeps, but the initial
        # velocity breaks the finite-volume CFL bound at the first continuity
        # step
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0

[model]
kind = zero

[scenario]
name = custom
rho0 = constant
rho0_value = 1.0
u0 = sine
u0_amplitude = 50.0

[run]
t_final = 0.004
slab_length = 0.002
dt = 0.001
output_dir = {tmp_path / "out"}
""")
        assert main(["run", cfg]) == 3

    def test_dt_past_the_substep_cap_exit_3(self, tmp_path, capsys):
        # a dt above the transport CFL limit parses; one that needs more than
        # MAX_SUBSTEPS substeps (c dt / h = 6.4e5 here) fails when the
        # transport first steps, as a step-size error, and leaves no output
        cfg = write_cfg(tmp_path, f"""
[grid]
dim = 1
cells = 64
lengths = 1.0

[physics]
c = 1e6

[run]
t_final = 0.01
dt = 0.01
output_dir = {tmp_path / "out"}
""")
        assert main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (StepSizeError): transport step dt=0.01 needs ")
        assert "more than MAX_SUBSTEPS=10000" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exc,code", [
        (ConfigError("bad"), 2),
        (StepSizeError("cfl"), 3),
        (SolverError("stalled"), 4),
        (IterationError("no convergence"), 5),
    ])
    def test_error_taxonomy_exhaustive(self, tmp_path, monkeypatch, exc, code):
        cfg = equilibrium_cfg(tmp_path, tmp_path / "out")

        def boom(_cfg):
            raise exc

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        monkeypatch.setattr("rhlab.cli.run_scenario", boom)
        assert main(["run", cfg]) == code

    @pytest.mark.parametrize("positive,converged,reported", [
        (False, True, ["positivity violated"]),
        (True, False, ["a Picard slab did not converge"]),
        (False, False, ["positivity violated", "a Picard slab did not converge"]),
    ])
    def test_failed_summary_exit_6(self, tmp_path, monkeypatch, capsys,
                                   positive, converged, reported):
        cfg = equilibrium_cfg(tmp_path, tmp_path / "out")

        def finished(_cfg):
            return {"snapshots": 3, "conservation": {"relative_drift": 0.0},
                    "positivity": {"ok": positive},
                    "picard": {"all_converged": converged}}

        monkeypatch.setattr("rhlab.cli.run_scenario", finished)
        assert main(["run", cfg]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: run summary failed: ")
        for text in ("positivity violated", "a Picard slab did not converge"):
            assert (text in err) == (text in reported)
