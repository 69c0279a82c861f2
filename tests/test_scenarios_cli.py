"""Config parsing, CSV emission and command-line behaviour."""

import re
import warnings

import numpy as np
import pytest
from conftest import from_primitive_fields
from hypothesis import example, given, settings, strategies as st

from eswsim import cli, scenarios
from eswsim.analytic import ReferenceCurve, blasius_steady, l1_error
from eswsim.errors import ConfigError, DomainError, NonFiniteState
from eswsim.scenarios import (_CHUNK_ROWS, ScenarioConfig, _run_columns,
                              _segments, _write_rows, config_to_text,
                              emit_snapshot, parse_config, run_scenario)
from eswsim.state import Grid1D, PhysicalParams
from eswsim.timeloop import reached


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
        for t in (2.0, -0.5, float("nan")):
            with pytest.raises(ConfigError, match="snapshot"):
                ScenarioConfig(snapshot_times=(t, 0.5), t_end=1.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(gradient_order=3)
        with pytest.raises(ConfigError, match="n_layers"):
            ScenarioConfig(n_layers=0)
        for fr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="froude"):
                ScenarioConfig(froude=fr)
        for db in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="delta_bar"):
                ScenarioConfig(delta_bar=db)
        for x_min, x_max in ((0.0, -1.0), (0.0, 0.0), (0.0, float("nan")),
                             (0.0, float("inf")), (-1e308, 1e308)):
            with pytest.raises(ConfigError, match="x_max"):
                ScenarioConfig(x_min=x_min, x_max=x_max)
        # the multilayer run writes its final state only
        with pytest.raises(ConfigError, match="snapshot_times"):
            ScenarioConfig(scenario="MlswCompare", snapshot_times=(0.5,))
        ScenarioConfig(delta_bar=0.0)   # the inviscid limit is valid
        inf, nan = float("inf"), float("nan")
        for scenario in ("BlasiusSteady", "MlswCompare"):
            for t_end in (0.0, -1.0, nan, inf):
                with pytest.raises(ConfigError, match="t_end"):
                    ScenarioConfig(scenario=scenario, t_end=t_end)
        for scenario in ("Bump", "MlswCompare"):
            for sigma in (0.0, -0.1, nan, inf):
                with pytest.raises(ConfigError, match="sigma"):
                    ScenarioConfig(scenario=scenario, bump_sigma=sigma)
        ScenarioConfig(bump_sigma=0.0)  # no bump is built
        for scenario in ("Bump", "MlswCompare"):
            for key in ("bump_alpha", "bump_center"):
                for value in (nan, inf, -inf):
                    with pytest.raises(ConfigError,
                                       match=key.replace("_", r"\.")):
                        ScenarioConfig(scenario=scenario, **{key: value})
        ScenarioConfig(bump_alpha=nan)  # no bump is built
        ScenarioConfig(scenario="Bump", bump_alpha=-0.01)   # a dip is valid
        for H, f2 in ((0.5, 0.22), (nan, 0.22), (inf, 0.22), (2.59, nan),
                      (2.59, inf)):
            with pytest.raises(ConfigError, match="fixed"):
                ScenarioConfig(closure="fixed", fixed_H=H, fixed_f2=f2)
        ScenarioConfig(closure="fixed", fixed_H=1.0, fixed_f2=-0.1)
        ScenarioConfig(fixed_H=0.5)     # read by the fixed closure only
        # times whose snapshot files would overwrite each other
        for times in ((0.005, 0.005), (0.005, 0.0050000001), (0.0, -0.0)):
            with pytest.raises(ConfigError, match="snapshot file names"):
                ScenarioConfig(n_cells=20, t_end=0.01, snapshot_times=times)
        # the multilayer diagnostics need a viscous layer and two layers,
        # and its friction a finite delta_bar**2
        for fields in (dict(delta_bar=0.0), dict(n_layers=1),
                       dict(delta_bar=1e200)):
            with pytest.raises(ConfigError, match="for MlswCompare"):
                ScenarioConfig(scenario="MlswCompare", **fields)
            ScenarioConfig(scenario="Bump", **fields)
        ScenarioConfig(scenario="MlswCompare", delta_bar=1e150)

    DEFAULT_TEXT = """scenario=BlasiusSteady
physics.froude=1.0
physics.delta_bar=0.001
physics.closure=falkner-skan
physics.fixed_H=2.59
physics.fixed_f2=0.22
grid.x_min=0.0
grid.x_max=0.1
grid.n_cells=200
init.h0=2.0
init.u0=1.0
bump.alpha=0.01
bump.sigma=0.1
bump.center=1.0
run.t_end=1.0
run.snapshot_times=
run.gradient_order=4
mlsw.n_layers=100
output.dir=out
"""

    def test_default_text(self):
        # the key order and the defaults of every metadata.txt
        assert config_to_text(ScenarioConfig()) == self.DEFAULT_TEXT

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(scenarios.SCENARIOS),
           st.sampled_from(("falkner-skan", "fixed")),
           st.one_of(st.floats().map(repr), st.integers().map(str),
                     st.sampled_from(("1e308", "1e400", "-1e400", "5e-324",
                                      "1e-300", "0", "-0", "-1", "nan",
                                      "-nan", "inf", "-inf", "", "abc",
                                      "0x10", "1e", "0.005 0.005", "fixed",
                                      "Bump", "MlswCompare")),
                     st.text(st.characters(codec="ascii",
                                           exclude_categories=("Cc",)),
                             max_size=8)))
    def test_every_key_parses_or_is_rejected(self, scenario, closure, text):
        for line in self.DEFAULT_TEXT.splitlines():
            key = line.partition("=")[0]
            try:
                config = parse_config(overrides=[
                    f"scenario={scenario}", f"physics.closure={closure}",
                    f"{key}={text}"])
            except ConfigError:
                continue
            written = config_to_text(config)
            assert config_to_text(
                parse_config(overrides=written.splitlines())) == written

    def test_nonpositive_h0_is_named_before_sqrt(self):
        inf, nan = float("inf"), float("nan")
        for field, values in (("h0", (-1.0, 0.0, nan, inf)),
                              ("u0", (inf, -inf, nan))):
            for value in values:
                cfg = ScenarioConfig(**{field: value})
                with pytest.raises(DomainError, match=field):
                    cfg.boundary_spec()

    def test_boundary_auto_switches_on_local_froude(self):
        from eswsim import SubcriticalInflow, SupercriticalInflow
        sub = ScenarioConfig(h0=2.0, u0=1.0).boundary_spec()
        sup = ScenarioConfig(h0=0.5, u0=1.0).boundary_spec()
        assert isinstance(sub.left, SubcriticalInflow)
        assert isinstance(sup.left, SupercriticalInflow)
        # a critical inflow (local Froude number exactly 1) is subcritical
        crit = ScenarioConfig(h0=1.0, u0=1.0).boundary_spec()
        assert isinstance(crit.left, SubcriticalInflow)


class TestSnapshotCsv:
    def snapshot_bytes(self, tmp_path, name):
        n = 12
        grid = Grid1D.uniform(0.0, 1.0, n)
        W = from_primitive_fields(
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

    def test_blasius_point_tau_b(self, tmp_path):
        # delta1 = 1, u_e = 1 and a zero gradient: tau_b = f2(0)*H(0)
        n = 12
        W = from_primitive_fields(np.full(n, 2.0), np.ones(n), np.ones(n))
        path = tmp_path / "s.csv"
        emit_snapshot(W, Grid1D.uniform(0.0, 1.0, n),
                      PhysicalParams(froude=1.0, delta_bar=1e-3), path)
        snap = np.genfromtxt(path, delimiter=",", names=True)
        assert np.all(snap["Lambda1"] == 0.0) and np.all(snap["H"] == 2.59)
        assert snap["tau_b"] == pytest.approx(0.2207033 * 2.59, abs=1e-6)

    def test_x_is_formatted_once_per_grid(self, tmp_path):
        # the config's grid leaves x unformatted; its first snapshot builds
        # the text, later ones reuse it, and every file keeps its bytes
        n = 12
        grid = ScenarioConfig(scenario="ImpulsiveStart", x_max=1.0,
                              n_cells=n).grid()
        assert "x_text" not in vars(grid)
        first = self.snapshot_bytes(tmp_path, "fresh.csv")
        W = from_primitive_fields(
            np.linspace(1.9, 2.1, n), np.linspace(0.9, 1.1, n),
            np.linspace(0.0, 0.3, n))
        p = PhysicalParams(froude=1.0, delta_bar=1e-3)
        emit_snapshot(W, grid, p, tmp_path / "a.csv")
        text = vars(grid)["x_text"]
        emit_snapshot(W, grid, p, tmp_path / "b.csv")
        assert vars(grid)["x_text"] is text
        for name in ("a.csv", "b.csv"):
            assert (tmp_path / name).read_bytes() == first

    def test_full_precision_roundtrip(self, tmp_path):
        # %.17g is enough to reproduce the binary doubles exactly
        raw = self.snapshot_bytes(tmp_path, "s.csv").decode()
        row = raw.split("\n")[3].split(",")
        h = np.linspace(1.9, 2.1, 12)[2]
        assert float(row[2]) == h


INF, NAN = float("inf"), float("nan")
NEG_NAN = -np.abs(np.float64(NAN))   # a NaN with other bits
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e300, 0.1, -2.5e-17, 1.0, INF, -INF,
           NAN, NEG_NAN)


def per_value_bytes(header, columns) -> bytes:
    """The CSV _write_rows must write, one f"{v:.17g}" per value."""
    return (header + "\n" + "".join(
        ",".join(f"{float(v):.17g}" for v in row) + "\n"
        for row in zip(*columns))).encode("utf-8")


class TestWriteRows:
    def check(self, path, *columns):
        header = ",".join(f"c{j}" for j in range(len(columns)))
        _write_rows(path, header, columns)
        assert path.read_bytes() == per_value_bytes(header, columns)

    def test_bytes_match_per_value_format(self, tmp_path):
        special = [-0.0, 5e-324, 1e300, float("nan"), 0.1, -2.5e-17]
        for n in (1, _CHUNK_ROWS, _CHUNK_ROWS + 1):
            values = np.resize(special, n)
            self.check(tmp_path / f"rows{n}.csv", values,
                       np.arange(1, n + 1), values[::-1])

    def test_constant_column(self, tmp_path):
        for n in (2, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3):
            self.check(tmp_path / f"c{n}.csv", np.full(n, 0.1))
            self.check(tmp_path / f"d{n}.csv", np.full(n, -0.0),
                       np.full(n, 2.0 / 3.0))

    def test_runs_straddle_the_chunk_boundary(self, tmp_path):
        b = _CHUNK_ROWS
        lengths = [b - 5, 10, b - 7, 1, 3, b]   # breaks at b - 5 and b + 5
        values = np.repeat([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], lengths)
        self.check(tmp_path / "s.csv", values, values[::-1])

    def test_alternating_signed_zeros(self, tmp_path):
        # equal as floats, different bits: "-0" and "0" must both appear
        zeros = np.repeat(np.resize([-0.0, 0.0], 600), 7)
        self.check(tmp_path / "z.csv", zeros, np.full(zeros.size, -0.0))
        assert b"-0," in (tmp_path / "z.csv").read_bytes()

    def test_runs_of_nonfinite_and_subnormal(self, tmp_path):
        values = np.repeat([NAN, INF, -INF, NEG_NAN, NAN, 5e-324, -5e-324],
                           [9, 4, 8, 3, 5, 11, 6])
        self.check(tmp_path / "n.csv", values)
        self.check(tmp_path / "m.csv", values, np.arange(values.size) * 0.1)

    def test_integer_column(self, tmp_path):
        layer = np.repeat(np.arange(1, 6), 1000)
        self.check(tmp_path / "i.csv", layer)
        self.check(tmp_path / "j.csv", layer, np.linspace(0.0, 1.0, 5000))

    def test_mixed_chunk(self, tmp_path):
        # one chunk with run columns (x, z) beside distinct ones (u, w)
        n = 3000
        x = np.repeat(np.linspace(0.0, 1.0, 30), 100)
        u = np.sin(np.arange(n) * 0.37)
        z = np.where(np.arange(n) < 2000, 0.5, -0.0)
        self.check(tmp_path / "m.csv", x, u, z, u * 1e-300)

    def test_x_text_gives_the_same_bytes(self, tmp_path):
        # over several chunks: an all-distinct table, an impulsive-like one
        # whose columns are runs beyond a front, and an x that is a run
        # column in its first chunk (its text is then not used there)
        n = 2 * _CHUNK_ROWS + 300
        grid = Grid1D.uniform(0.0, 10.0, n)
        x = grid.cell_centers
        front = x < 3.0
        repeated = np.r_[np.repeat(x[:_CHUNK_ROWS // 8], 8),
                         x[_CHUNK_ROWS:]]
        tables = {
            "distinct": [x] + [np.sin(k * x) for k in range(1, 10)],
            "impulsive": [x, grid.topo, np.where(front, np.cos(x), 0.5),
                          np.where(front, x * 1e-3, -0.0),
                          np.where(front, np.exp(-x), 2.59), np.sqrt(x)],
            "repeated": [repeated, np.where(front, x, NAN), np.sin(x)],
        }
        for name, cols in tables.items():
            header = ",".join(f"c{j}" for j in range(len(cols)))
            text = tuple(f"{v:.17g}" for v in cols[0])
            _write_rows(tmp_path / f"{name}_text.csv", header, cols,
                        x_text=text)
            self.check(tmp_path / f"{name}.csv", *cols)
            assert (tmp_path / f"{name}_text.csv").read_bytes() == \
                (tmp_path / f"{name}.csv").read_bytes(), name

    def test_one_row(self, tmp_path):
        self.check(tmp_path / "one.csv", np.array([-0.0]), np.array([NAN]),
                   np.array([5e-324]))

    def test_run_column_threshold(self):
        # a column qualifies with at most half as many runs as rows
        m = 8
        halves = np.repeat([1.0, 2.0, 3.0, 4.0], 2)            # 4 runs
        more = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 5.0])  # 5 runs
        table = np.column_stack((np.full(m, 7.0), halves, more,
                                 np.arange(m, dtype=float)))
        breaks, runs = _run_columns(table.view(np.uint64))
        assert breaks.shape == (m - 1, 4)
        assert runs.tolist() == [True, True, False, False]
        assert _run_columns(np.zeros((1, 2), np.uint64))[1].tolist() == \
            [False, False]

    def test_segment_threshold(self):
        # the run columns stay while their breaks cut the chunk into at most
        # m/4 segments; one more segment and every row is written plain
        m = 16
        quarters = np.repeat([1.0, 2.0, 3.0, 4.0], 4)     # breaks at 4, 8, 12
        halves = np.repeat([5.0, 6.0], 8)                 # breaks at 8
        table = np.column_stack((quarters, halves, np.arange(m, dtype=float)))
        starts, runs = _segments(table.view(np.uint64))
        assert starts.tolist() == [0, 4, 8, 12]
        assert runs.tolist() == [True, True, False]
        table[:, 1] = np.repeat([5.0, 6.0], [7, 9])      # breaks at 7
        starts, runs = _segments(table.view(np.uint64))
        assert starts.tolist() == [0]
        assert runs.tolist() == [False, False, False]
        starts, runs = _segments(np.zeros((1, 2), np.uint64))
        assert starts.tolist() == [0] and runs.tolist() == [False, False]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(1, 8), st.integers(9, 1500)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.lists(st.sampled_from(SPECIAL), min_size=6,
                                       max_size=6), st.integers(0, 3)),
                    min_size=2, max_size=5),
           st.booleans())
    # chunk 0 in 2 048 segments, written plain; in 1 024 = m/4, templated
    @example([3, 5], [(SPECIAL[:6], 0), (SPECIAL[6:], 1)], True)
    @example([7, 1], [(SPECIAL[6:], 0), (SPECIAL[:6], 0)], False)
    def test_segments_across_the_chunk_boundary(self, tmp_path_factory,
                                                lengths, columns, distinct):
        # every column tiles the same run lengths, so unshifted columns break
        # on the same rows and a shifted one breaks apart from them
        n = _CHUNK_ROWS + 700
        cols = [np.roll(np.resize(np.repeat(values[:len(lengths)], lengths),
                                  n), shift) for values, shift in columns]
        if distinct:
            cols.append(np.arange(n) * 0.1)
        self.check(tmp_path_factory.mktemp("segments") / "s.csv", *cols)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(SPECIAL),
                                       st.integers(1, _CHUNK_ROWS // 2)),
                             min_size=1, max_size=6),
                    min_size=1, max_size=4))
    def test_runs_of_special_values(self, tmp_path_factory, columns):
        cols = [np.repeat([v for v, _ in runs], [k for _, k in runs])
                for runs in columns]
        n = min(c.size for c in cols)
        self.check(tmp_path_factory.mktemp("runs") / "r.csv",
                   *(c[:n] for c in cols))

    def test_solver_snapshots_round_trip(self, tmp_path):
        # the impulsive start leaves most columns as runs of one far-field
        # value; every file must hold exactly the per-value "%.17g" bytes
        out = tmp_path / "o"
        assert cli.main(["run", "--out", str(out)] + [
            arg for setting in (
                "scenario=ImpulsiveStart", "grid.x_max=10.0",
                "grid.n_cells=2000", "init.h0=0.5", "run.t_end=0.03",
                "run.snapshot_times=0.01 0.02")
            for arg in ("--set", setting)]) == 0
        names = ["snapshot_t0.010000.csv", "snapshot_t0.020000.csv",
                 "final.csv"]
        for name in names:
            raw = (out / name).read_bytes()
            header, *rows = raw.decode("utf-8").rstrip("\n").split("\n")
            table = np.array([[float(v) for v in row.split(",")]
                              for row in rows])
            assert table.shape == (2000, 10)
            assert per_value_bytes(header, table.T) == raw
            # the run path is taken on these files
            assert _run_columns(table.view(np.uint64))[1].sum() >= 5
            # and chunk 0 is written from a few segment templates
            starts, runs = _segments(table[:_CHUNK_ROWS].view(np.uint64))
            assert runs.sum() >= 5 and 1 < starts.size <= 50


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
        t_final = re.search(r"\nt_final=(\S+)\n", meta)
        assert t_final and float(t_final.group(1)) == run.t
        assert f"\nsteps={run.step_count}\n" in meta

    def test_final_state_holds_the_last_dt(self, tmp_path):
        for scenario in ("MlswCompare", "Bump"):
            cfg = ScenarioConfig(scenario=scenario, x_max=2.0, n_cells=20,
                                 n_layers=5, t_end=0.01,
                                 out_dir=str(tmp_path / scenario))
            run = run_scenario(cfg)
            assert 0.0 < run.dt, scenario
            assert reached(run.t, cfg.t_end), scenario

    def test_mlsw_failure_names_step_and_time(self, tmp_path, monkeypatch):
        real_step, steps = scenarios.mlsw_step, []

        def poisoned(*args):
            state = real_step(*args)
            steps.append(state)
            if len(steps) == 3:
                state.u[2, 4] = np.nan
            return state

        monkeypatch.setattr(scenarios, "mlsw_step", poisoned)
        cfg = ScenarioConfig(scenario="MlswCompare", x_max=2.0, n_cells=30,
                             n_layers=10, t_end=0.1, out_dir=str(tmp_path))
        with pytest.raises(NonFiniteState) as info:
            run_scenario(cfg)
        exc = info.value
        assert (exc.field, exc.cell, exc.step) == ("u", 4, 3)
        assert 0.0 < exc.t < cfg.t_end
        assert str(exc) == f"non-finite u in cell 4 (step 3, t={exc.t!r})"


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
        # deleted keys are unknown
        for setting in ("run.cfl_number=0.5", "run.dt_max=1"):
            assert cli.main(["run", "--set", setting]) == 2, setting
            assert "unknown key" in capsys.readouterr().err
        # out-of-range values are configuration errors, not failed runs
        assert cli.main(["mlsw", "--set", "scenario=MlswCompare",
                         "--set", "mlsw.n_layers=0"]) == 2
        assert cli.main(["mlsw", "--set", "run.snapshot_times=0.01"]) == 2
        # froude**2 overflowed to a traceback (exit 1) or underflowed to 0
        for setting in ("physics.froude=0", "physics.froude=nan",
                        "physics.froude=1e300", "physics.froude=1e-300",
                        "physics.delta_bar=-1", "grid.x_max=-1"):
            assert cli.main(["run", "--out", str(tmp_path / "o"),
                             "--set", setting]) == 2, setting
        # these ran every step, then exited 3 from the diagnostics; a
        # delta_bar whose square overflows exited 1 with a traceback
        for setting in ("physics.delta_bar=0", "mlsw.n_layers=1",
                        "physics.delta_bar=1e300", "physics.delta_bar=1e200"):
            assert cli.main(["mlsw", "--out", str(tmp_path / "o"),
                             "--set", setting]) == 2, setting
            assert "for MlswCompare" in capsys.readouterr().err
        # an infinite span used to run with dx = inf and write x = inf
        for settings in (["grid.x_max=inf"],
                         ["grid.x_min=-1e308", "grid.x_max=1e308"]):
            args = ["run", "--out", str(tmp_path / "o")]
            for setting in settings:
                args += ["--set", setting]
            assert cli.main(args) == 2, settings
            assert "x_max" in capsys.readouterr().err
        # these used to exit 0 after no step, or 3 from inside the run
        for verb in ("run", "mlsw"):
            for settings in (["run.t_end=nan"], ["run.t_end=-1"],
                             ["scenario=Bump", "bump.sigma=0"],
                             ["scenario=Bump", "bump.sigma=nan"],
                             ["scenario=Bump", "bump.alpha=nan"],
                             ["scenario=Bump", "bump.alpha=inf"],
                             ["scenario=Bump", "bump.center=nan"],
                             ["run.steady_tol=nan"], ["run.steady_tol=0"],
                             ["run.max_steps=0"],
                             ["run.boundary=supercritical", "init.h0=4"],
                             ["physics.closure=fixed", "physics.fixed_H=0.5"],
                             ["physics.closure=fixed",
                              "physics.fixed_f2=nan"]):
                args = [verb, "--out", str(tmp_path / "o")]
                for setting in settings:
                    args += ["--set", setting]
                assert cli.main(args) == 2, (verb, settings)
                assert "configuration error" in capsys.readouterr().err
        # the study runs to run.t_end and has no stopping keys; unknown
        # keys are rejected before any step
        for setting in ("run.steady_tol=nan", "run.steady_tol=-1",
                        "run.max_steps=0"):
            assert cli.main(["converge", "--dx", "0.01", "--out",
                             str(tmp_path / "o"), "--set", setting]) == 2
            assert "configuration error" in capsys.readouterr().err
        # a cell size that is not a finite positive number, even after a
        # valid one, is rejected before any run
        for dx in (["0"], ["nan"], ["abc"], ["inf"], ["-0.01"],
                   ["0.01", "0"]):
            assert cli.main(["converge", "--dx", *dx, "--out",
                             str(tmp_path / "o")]) == 2, dx
            assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        # a non-finite initial state is named before any step, both models
        for verb in ("run", "mlsw"):
            for setting in ("init.h0=inf", "init.u0=inf", "init.u0=nan"):
                rc = cli.main([verb, "--out", str(tmp_path / "o"),
                               "--set", setting, "--set", "grid.n_cells=40",
                               "--set", "run.t_end=0.01"])
                assert rc == 3, (verb, setting)
                err = capsys.readouterr().err
                assert f"numerical failure: {setting.split('=')[0]} = " \
                    in err, (verb, setting)

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
        # no x column, ragged rows and a header without rows (which used to
        # exit 3), and an empty or blank file (which used to exit 1, and
        # then to print NumPy's empty-input warning before the error)
        for text in ("a,b\n1,2\n", "x,h\n1,2\n3\n", "x,h\n", "", " \n\n"):
            f = tmp_path / "junk.csv"
            f.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")    # a warning fails the test
                assert cli.main(["analyze", str(f)]) == 2, text
            err = capsys.readouterr().err
            assert "configuration error" in err and str(f) in err
            if not text.strip():
                # one line, no warning before it
                assert err.count("\n") == 1 and "empty" in err.lower()
                assert err.startswith(f"configuration error: {f}: ")

    def test_unallocatable_grid_exit_2(self, tmp_path, monkeypatch, capsys):
        # a cell count NumPy refuses before allocating: no mesh runs, and
        # converge builds every grid first
        runs = []
        monkeypatch.setattr(scenarios, "advance",
                            lambda *args, **kw: runs.append(args))
        assert cli.main(["converge", "--out", str(tmp_path / "c"),
                         "--dx", "0.01", "1e-300"]) == 2
        assert "grid.n_cells" in capsys.readouterr().err
        assert runs == []

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        # the multilayer state is built before the output directory: a
        # layer count NumPy refuses before allocating, then an allocation
        # that fails (the real one would ask for 14.2 PiB)
        for n_layers in (10**18, 10**13):
            if n_layers == 10**13:
                monkeypatch.setattr(scenarios.MlswState, "uniform",
                                    no_memory)
            out = tmp_path / f"m{n_layers}"
            assert cli.main(["mlsw", "--out", str(out), "--set",
                             f"mlsw.n_layers={n_layers}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: mlsw.n_layers")
            assert err.count("\n") == 1
            assert not out.exists()

        # an allocation that fails (the real one would ask for 745 GiB)
        monkeypatch.setattr(scenarios.Grid1D, "uniform", no_memory)
        assert cli.main(["run", "--out", str(tmp_path / "r"),
                         "--set", "grid.n_cells=100000000000"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "grid.n_cells" in err
        assert not (tmp_path / "r").exists()

    def test_converge(self, tmp_path, capsys):
        # supercritical inflow: the run is steady by t = 0.5
        rc = cli.main(["converge", "--dx", "0.005", "0.0025",
                       "--out", str(tmp_path / "o"),
                       "--set", "init.h0=0.5",
                       "--set", "run.t_end=0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("dx,error,runtime_seconds")
        rows = (tmp_path / "o" / "convergence.csv").read_text().strip()
        assert len(rows.split("\n")) == 3

    def test_converge_honours_output_dir(self, tmp_path, monkeypatch,
                                         capsys):
        # like run, converge writes into output.dir when --out is absent
        out = tmp_path / "d"
        assert cli.main(["converge", "--dx", "0.01",
                         "--set", f"output.dir={out}",
                         "--set", "run.t_end=0.05"]) == 0
        assert (out / "convergence.csv").is_file()
        # the library call without out_dir writes nothing
        monkeypatch.chdir(out)
        scenarios.convergence_study(ScenarioConfig(t_end=0.05), (0.01,))
        assert [p.name for p in out.iterdir()] == ["convergence.csv"]

    def test_converge_rejects_before_any_run(self, tmp_path, monkeypatch,
                                             capsys):
        runs = []
        monkeypatch.setattr(scenarios, "advance",
                            lambda *args, **kw: runs.append(args))
        # a valid mesh before one with too few cells, a cell count that
        # overflows, and snapshot times
        for settings in (["--dx", "0.001", "0.05"], ["--dx", "0.01", "1e-320"],
                         ["--dx", "0.01", "--set", "run.snapshot_times=0.5"]):
            assert cli.main(["converge", "--out", str(tmp_path / "o"),
                             *settings]) == 2, settings
            assert "configuration error" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "o").exists()

    def test_converge_matches_run(self, tmp_path, capsys):
        # the default config ends at run.t_end; its error is the L1 gap of
        # the final.csv that eswsim run writes for the same mesh
        assert cli.main(["converge", "--dx", "0.01",
                         "--out", str(tmp_path / "c")]) == 0
        assert cli.main(["run", "--set", "grid.n_cells=10",
                         "--out", str(tmp_path / "r")]) == 0
        conv = np.genfromtxt(tmp_path / "c" / "convergence.csv",
                             delimiter=",", names=True)
        final = np.genfromtxt(tmp_path / "r" / "final.csv", delimiter=",",
                              names=True)
        x = final["x"][1:]
        ref, _ = blasius_steady(x)
        err = l1_error(ReferenceCurve(x, final["delta1"][1:]),
                       ReferenceCurve(x, ref))
        assert conv["dx"] == 0.01
        assert conv["error"] == err

    MLSW_SETTINGS = ("grid.x_max=2.0", "grid.n_cells=30", "mlsw.n_layers=10",
                     "run.t_end=0.02")

    def mlsw_args(self, verb, out, *settings):
        args = [verb, "--out", str(out)]
        for setting in (*settings, *self.MLSW_SETTINGS):
            args += ["--set", setting]
        return args

    def test_mlsw_verb(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(self.mlsw_args("mlsw", out, "scenario=MlswCompare"))
        assert rc == 0
        assert (out / "final.csv").exists()
        assert (out / "final_profiles.csv").exists()
        m = re.fullmatch(r"done: t=0\.02 steps=(\d+)\n",
                         capsys.readouterr().out)
        assert m is not None and int(m.group(1)) > 0
        meta = (out / "metadata.txt").read_text()
        assert f"\nsteps={m.group(1)}\n" in meta
        t_final = re.search(r"\nt_final=(\S+)\n", meta)
        assert t_final and float(t_final.group(1)) == pytest.approx(0.02)

    def test_mlsw_transport_failure_names_step_and_time(self, tmp_path,
                                                         monkeypatch, capsys):
        real_step, dts = scenarios.mlsw_step, []

        def too_long(state, layers, dt, *rest):
            # the second step takes 100 times the CFL step over the bump
            dts.append(dt)
            return real_step(state, layers, dt * (100 if len(dts) == 2
                                                  else 1), *rest)

        monkeypatch.setattr(scenarios, "mlsw_step", too_long)
        rc = cli.main(self.mlsw_args("mlsw", tmp_path / "o", "bump.alpha=0.5"))
        assert rc == 3
        where = re.escape(f"(step 1, t={dts[0]!r})")
        assert re.fullmatch(rf"numerical failure: h at or below the dry "
                            rf"threshold in cell \d+ {where}\n",
                            capsys.readouterr().err)

    def test_mlsw_verb_is_run_with_mlsw_scenario(self, tmp_path):
        # the verb overrides a scenario set earlier
        assert cli.main(self.mlsw_args("mlsw", tmp_path / "a",
                                       "scenario=Bump")) == 0
        assert cli.main(self.mlsw_args("run", tmp_path / "b",
                                       "scenario=MlswCompare")) == 0
        for name in ("final.csv", "final_profiles.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
