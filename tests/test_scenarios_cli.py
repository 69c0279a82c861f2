"""Config parsing, CSV emission and command-line behaviour."""

import numpy as np
import pytest

from eswsim import cli
from eswsim.errors import ConfigError, DomainError
from eswsim.scenarios import (_CHUNK_ROWS, ScenarioConfig, _write_rows,
                              config_to_text, emit_snapshot, parse_config,
                              run_scenario)
from eswsim.state import ConservedState, Grid1D, PhysicalParams


class TestConfigParsing:
    def test_roundtrip_through_text(self, tmp_path):
        cfg = ScenarioConfig(scenario="Bump", froude=1.3, n_cells=64,
                             snapshot_times=(0.5, 1.0), t_end=2.0)
        f = tmp_path / "c.cfg"
        f.write_text(config_to_text(cfg))
        assert parse_config(f) == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# a comment\n\nphysics.froude = 1.5\n")
        assert parse_config(f).froude == 1.5

    def test_unknown_key_reports_line(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("physics.froude=1.0\nphysics.fruode=2.0\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2"):
            parse_config(f)

    def test_bad_value_reports_line(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("grid.n_cells=lots\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:1"):
            parse_config(f)

    def test_missing_equals(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("scenario BlasiusSteady\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(f)

    def test_overrides_win(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("physics.froude=1.0\ngrid.n_cells=50\n")
        cfg = parse_config(f, overrides=["physics.froude=2.0"])
        assert cfg.froude == 2.0 and cfg.n_cells == 50

    def test_snapshot_times_list(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("run.t_end=3.0\nrun.snapshot_times=0.5 1 2.5\n")
        assert parse_config(f).snapshot_times == (0.5, 1.0, 2.5)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="NoSuchThing")
        with pytest.raises(ConfigError):
            ScenarioConfig(n_cells=5)
        with pytest.raises(ConfigError):
            ScenarioConfig(snapshot_times=(2.0,), t_end=1.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(gradient_order=3)
        for cfl in (0.0, 2.0):
            with pytest.raises(ConfigError, match="cfl_number"):
                ScenarioConfig(cfl_number=cfl)
        with pytest.raises(ConfigError, match="n_layers"):
            ScenarioConfig(n_layers=0)
        for fr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="froude"):
                ScenarioConfig(froude=fr)
        for db in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="delta_bar"):
                ScenarioConfig(delta_bar=db)
        for x_max in (-1.0, 0.0, float("nan")):
            with pytest.raises(ConfigError, match="x_max"):
                ScenarioConfig(x_min=0.0, x_max=x_max)
        ScenarioConfig(delta_bar=0.0)   # the inviscid limit is valid

    def test_nonpositive_h0_is_named_before_sqrt(self):
        for h0 in (-1.0, 0.0, float("nan")):
            for mode in ("auto", "subcritical", "supercritical"):
                with pytest.raises(DomainError, match="h0"):
                    ScenarioConfig(h0=h0, boundary=mode).boundary_spec()

    def test_boundary_auto_switches_on_local_froude(self):
        from eswsim import SubcriticalInflow, SupercriticalInflow
        sub = ScenarioConfig(h0=2.0, u0=1.0).boundary_spec()
        sup = ScenarioConfig(h0=0.5, u0=1.0).boundary_spec()
        assert isinstance(sub.left, SubcriticalInflow)
        assert isinstance(sup.left, SupercriticalInflow)


class TestSnapshotCsv:
    def snapshot_bytes(self, tmp_path, name):
        n = 12
        grid = Grid1D.uniform(0.0, 1.0, n)
        W = ConservedState.from_primitive_fields(
            np.linspace(1.9, 2.1, n), np.linspace(0.9, 1.1, n),
            np.linspace(0.0, 0.3, n))
        path = tmp_path / name
        emit_snapshot(W, grid, PhysicalParams(froude=1.0, delta_bar=1e-3),
                      path)
        return path.read_bytes()

    def test_header_and_shape(self, tmp_path):
        raw = self.snapshot_bytes(tmp_path, "s.csv").decode()
        lines = raw.rstrip("\n").split("\n")
        assert lines[0] == "x,fb,h,u_e,delta1,tau_b,H,f2,Lambda1,U"
        assert len(lines) == 13
        assert all(len(l.split(",")) == 10 for l in lines[1:])

    def test_byte_determinism(self, tmp_path):
        a = self.snapshot_bytes(tmp_path, "a.csv")
        b = self.snapshot_bytes(tmp_path, "b.csv")
        assert a == b

    def test_full_precision_roundtrip(self, tmp_path):
        # %.17g is enough to reproduce the binary doubles exactly
        raw = self.snapshot_bytes(tmp_path, "s.csv").decode()
        row = raw.split("\n")[3].split(",")
        h = np.linspace(1.9, 2.1, 12)[2]
        assert float(row[2]) == h


class TestWriteRows:
    def test_bytes_match_per_value_format(self, tmp_path):
        special = [-0.0, 5e-324, 1e300, float("nan"), 0.1, -2.5e-17]
        for n in (1, _CHUNK_ROWS, _CHUNK_ROWS + 1):
            values = np.resize(special, n)
            index = np.arange(1, n + 1)
            path = tmp_path / f"rows{n}.csv"
            _write_rows(path, "v,layer_index,w", (values, index, values[::-1]))
            ref = "v,layer_index,w\n" + "".join(
                ",".join(f"{float(v):.17g}" for v in row) + "\n"
                for row in zip(values, index, values[::-1]))
            assert path.read_bytes() == ref.encode("utf-8")


class TestRunScenario:
    def test_blasius_outputs(self, tmp_path):
        cfg = ScenarioConfig(n_cells=40, t_end=0.02,
                             snapshot_times=(0.01,), out_dir=str(tmp_path))
        run = run_scenario(cfg)
        assert run.t == pytest.approx(0.02, abs=1e-12)
        assert (tmp_path / "final.csv").exists()
        assert (tmp_path / "snapshot_t0.010000.csv").exists()
        meta = (tmp_path / "metadata.txt").read_text()
        assert "code_version=" in meta
        assert "scenario=BlasiusSteady" in meta
        assert "wall_time_seconds=" in meta


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        rc = cli.main(["run", "--out", str(tmp_path / "o"),
                       "--set", "grid.n_cells=40",
                       "--set", "run.t_end=0.01"])
        assert rc == 0
        assert (tmp_path / "o" / "final.csv").exists()
        assert "done" in capsys.readouterr().out

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--set", "no.such.key=1"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        # out-of-range values are configuration errors, not failed runs
        assert cli.main(["run", "--set", "run.cfl_number=2"]) == 2
        assert cli.main(["mlsw", "--set", "scenario=MlswCompare",
                         "--set", "mlsw.n_layers=0"]) == 2
        for setting in ("physics.froude=0", "physics.froude=nan",
                        "physics.delta_bar=-1", "grid.x_max=-1"):
            assert cli.main(["run", "--set", setting]) == 2, setting

    def test_bad_config_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "c.cfg"
        f.write_text("grid.n_cells=3\n")  # fails validation
        rc = cli.main(["run", "--config", str(f)])
        assert rc == 2

    def test_missing_config_file_exit_4(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 4
        assert "I/O error" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # negative initial depth blows up immediately
        rc = cli.main(["run", "--out", str(tmp_path / "o"),
                       "--set", "init.h0=-1.0",
                       "--set", "grid.n_cells=40",
                       "--set", "run.t_end=0.01"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_analyze(self, tmp_path, capsys):
        cli.main(["run", "--out", str(tmp_path / "o"),
                  "--set", "grid.n_cells=40", "--set", "run.t_end=0.005"])
        capsys.readouterr()
        rc = cli.main(["analyze", str(tmp_path / "o" / "final.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells: 40" in out
        assert "delta1:" in out

    def test_analyze_non_snapshot_exit_2(self, tmp_path, capsys):
        f = tmp_path / "junk.csv"
        f.write_text("a,b\n1,2\n")
        rc = cli.main(["analyze", str(f)])
        assert rc == 2

    def test_converge(self, tmp_path, capsys):
        # supercritical inflow: the run becomes genuinely steady
        rc = cli.main(["converge", "--dx", "0.005", "0.0025",
                       "--out", str(tmp_path / "o"),
                       "--set", "init.h0=0.5",
                       "--set", "run.steady_tol=1e-6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("dx,error,runtime_seconds")
        rows = (tmp_path / "o" / "convergence.csv").read_text().strip()
        assert len(rows.split("\n")) == 3

    def test_mlsw_verb(self, tmp_path):
        rc = cli.main(["mlsw", "--out", str(tmp_path / "o"),
                       "--set", "scenario=MlswCompare",
                       "--set", "grid.x_max=2.0",
                       "--set", "grid.n_cells=30",
                       "--set", "mlsw.n_layers=10",
                       "--set", "run.t_end=0.02"])
        assert rc == 0
        assert (tmp_path / "o" / "final.csv").exists()
        assert (tmp_path / "o" / "final_profiles.csv").exists()
