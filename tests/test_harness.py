import csv
import dataclasses
import hashlib
import json
import os
import re

import numpy as np
import pytest

from idcos import cli, harness, pde2d, problems
from idcos.cli import main
from idcos.errors import SolverError, StepperError, UsageError
from idcos.harness import (RunConfig, run_convergence, run_simulation, run_stability,
                           write_field_snapshot)
from idcos.problems import fhn
from idcos.stability import amplification_field


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def assert_all_floats(path):
    """Every cell below the header parses as a Python float."""
    rows = read_rows(path)
    assert len(rows) > 1
    for row in rows[1:]:
        for cell in row:
            float(cell)


def manifest(out_dir, name):
    with open(os.path.join(out_dir, f"{name}_run.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestRunConvergence:
    def test_tiny_ladder(self, tmp_path):
        cfg = RunConfig(problem="example1", scheme="adi", grid_n=8, nt_list=(2, 4),
                        corrections=(0, 1), out_dir=str(tmp_path))
        report = run_convergence(cfg)
        assert [(r[0], r[1]) for r in report.rows] == [(0, 2), (0, 4), (1, 2), (1, 4)]
        assert all(np.isfinite(r[2]) for r in report.rows)
        csv_path = tmp_path / "example1_adi_convergence.csv"
        rows = read_rows(csv_path)
        assert rows[0] == ["correction", "Nt", "error", "order"]
        assert len(rows) == 5
        info = manifest(tmp_path, cfg.name)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert info["artifacts"][csv_path.name]["sha256"] == digest
        assert info["failures"] == []
        assert info["metric"] == "exact"


    def test_self_metric_runs_every_half_rung(self, tmp_path):
        # 12's reference, Nt=6, is not on the ladder and not its first half
        cfg = RunConfig(problem="example2", scheme="strang", grid_n=12,
                        nt_list=(8, 12, 16), corrections=(0,), end_time=0.01,
                        out_dir=str(tmp_path))
        report = run_convergence(cfg)
        assert report.metric == "self"
        assert [r[1] for r in report.rows] == [8, 12, 16]
        assert all(np.isfinite(r[2]) and r[2] > 0 for r in report.rows)
        assert all(np.isfinite(r[3]) for r in report.rows[1:])
        assert manifest(tmp_path, cfg.name)["failures"] == []


def counting_solves(monkeypatch):
    calls = []
    solve = harness.idc_solve

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "idc_solve", counted)
    return calls


def initial_state_solves(monkeypatch):
    """Replace every ladder solve by the initial state; returns the N_t each
    solve was asked for."""
    calls = []
    monkeypatch.setattr(harness, "idc_solve",
                        lambda ivp, n, cfg: calls.append(n) or ivp.initial_state)
    return calls


class TestLadderPlan:
    """The sub-interval count each table and benchmark ladder runs, and how
    a ladder scores rungs whose error is zero or missing."""

    LADDERS = [("example1", "lie-trotter", {}), ("example2", "lie-trotter", {}),
               ("example3", "lie-trotter", {}), ("example1", "strang", {}),
               ("example2", "strang", {}), ("example3", "strang", {}),
               ("example1", "adi", {}), ("example2", "adi", {}),
               # the heat-adi-ladder and varcoef-adi-ladder benchmark workloads
               ("example1", "adi", dict(end_time=0.0125, nt_list=(30, 40, 50, 60))),
               ("example2", "adi", dict(end_time=0.05, nt_list=(40, 80, 160)))]
    SUB_INTERVALS = {"lie-trotter": {"0": 1, "1": 1, "2": 2},
                     "strang": {"0": 1, "1": 4, "2": 5},
                     "adi": {"0": 1, "1": 3, "2": 5}}

    @pytest.mark.parametrize("problem,scheme,spec", LADDERS, ids=[
        "example1-lt", "example2-lt", "example3-lt", "example1-strang", "example2-strang",
        "example3-strang", "example1-adi", "example2-adi", "heat-adi-ladder",
        "varcoef-adi-ladder"])
    def test_sub_intervals(self, tmp_path, monkeypatch, problem, scheme, spec):
        # M does not depend on the grid: a small one keeps the build cheap
        initial_state_solves(monkeypatch)
        cfg = RunConfig(problem=problem, scheme=scheme, grid_n=8, out_dir=str(tmp_path),
                        **spec)
        run_convergence(cfg)
        assert manifest(tmp_path, cfg.name)["sub_intervals"] == self.SUB_INTERVALS[scheme]

    def test_zero_self_errors_give_nan_orders(self, tmp_path, monkeypatch):
        # every rung equals its reference: errors exactly 0, no order to read
        calls = initial_state_solves(monkeypatch)
        cfg = RunConfig(problem="example2", scheme="strang", grid_n=8,
                        out_dir=str(tmp_path))
        report = run_convergence(cfg)
        assert report.metric == "self" and len(calls) == 3 * 5
        rows = read_rows(tmp_path / "example2_strang_convergence.csv")[1:]
        assert len(rows) == 3 * 4
        assert all(float(row[2]) == 0.0 and row[3] == "nan" for row in rows)
        assert manifest(tmp_path, cfg.name)["failures"] == []

    def test_counts_on_one_step_size_share_its_factors(self, tmp_path, line_factors):
        # Lie-Trotter's M is 1, 1, 2 and every rung is counted in sub-steps, so
        # each count steps a rung with T/N_t: one factor per direction and rung
        cfg = RunConfig(problem="example1", scheme="lie-trotter", grid_n=8,
                        out_dir=str(tmp_path))
        run_convergence(cfg)
        assert len(line_factors) == 2 * len(cfg.nt_list)

    def test_failures_are_listed_by_count_then_rung(self, tmp_path, monkeypatch):
        def failing(ivp, n, cfg):
            raise SolverError(f"stalled at {n} macro steps")

        monkeypatch.setattr(harness, "idc_solve", failing)
        cfg = RunConfig(problem="example2", scheme="strang", grid_n=8, nt_list=(8, 16),
                        corrections=(1, 0), end_time=0.01, out_dir=str(tmp_path))
        with pytest.raises(SolverError, match="6 ladder cells failed"):
            run_convergence(cfg)
        assert manifest(tmp_path, cfg.name)["failures"] == [
            "cs=1 Nt=4: stalled at 1 macro steps", "cs=1 Nt=8: stalled at 2 macro steps",
            "cs=1 Nt=16: stalled at 4 macro steps", "cs=0 Nt=4: stalled at 4 macro steps",
            "cs=0 Nt=8: stalled at 8 macro steps", "cs=0 Nt=16: stalled at 16 macro steps"]
        rows = read_rows(tmp_path / "example2_strang_convergence.csv")[1:]
        assert [row[:2] for row in rows] == [["1", "8"], ["1", "16"], ["0", "8"], ["0", "16"]]
        assert all(row[2] == row[3] == "nan" for row in rows)

    # past the node cap the message names the ladder's M, max(target - 1, 1)
    @pytest.mark.parametrize("flags,message", [
        (["--nt", "17,19", "--corrections", "1"], "of M=16"),
        (["--corrections", "20"], "M=41 exceeds the uniform-node cap 16"),
        (["--scheme", "lie-trotter", "--corrections", "20"],
         "M=20 exceeds the uniform-node cap 16")],
        ids=["no-admissible-M", "order-past-node-cap", "lie-trotter-past-node-cap"])
    def test_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys, flags, message):
        calls = counting_solves(monkeypatch)
        assert main(TestCli.LADDER + flags + ["--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_failed_rungs_are_named_once_and_written_as_nan(self, tmp_path, monkeypatch):
        solve = harness.idc_solve

        def failing(ivp, n, cfg):
            if n == 8:
                raise SolverError("stalled")
            if n == 12:  # the march fails a step whose state ends non-finite
                raise StepperError("macro step 2 at t=0.0025: non-finite state at node (0, 0)",
                                   time=0.0025, macro_step=2)
            return solve(ivp, n, cfg)

        monkeypatch.setattr(harness, "idc_solve", failing)
        cfg = RunConfig(problem="example1", scheme="strang", grid_n=8,
                        nt_list=(4, 8, 12, 16, 20), corrections=(0,), end_time=0.01,
                        out_dir=str(tmp_path))
        with pytest.raises(SolverError, match="2 ladder cells failed"):
            run_convergence(cfg)
        assert manifest(tmp_path, cfg.name)["failures"] == [
            "cs=0 Nt=8: stalled",
            "cs=0 Nt=12: macro step 2 at t=0.0025: non-finite state at node (0, 0)"]
        rows = [[float(cell) for cell in row[2:]]
                for row in read_rows(tmp_path / "example1_strang_convergence.csv")[1:]]
        errors, orders = zip(*rows)
        assert np.isfinite([errors[0], errors[3], errors[4]]).all()
        assert np.isnan([errors[1], errors[2]]).all()
        # the first rung has no predecessor, and 8, 12 and 16 read a failed rung
        assert np.isnan(orders[:4]).all() and np.isfinite(orders[4])


def test_fhn_strang_newton_stalls_name_their_step_and_time(tmp_path):
    # Strang FHN on a 16x16 grid to T=0.5: the coarse Newton solves stall
    assert main(["convergence", "--problem", "fhn", "--scheme", "strang", "--grid", "16",
                 "--nt", "12,24", "--end-time", "0.5", "--out", str(tmp_path)]) == 3
    failures = manifest(tmp_path, "fhn_strang")["failures"]
    assert [f.split(": ")[0] for f in failures] == [
        "cs=0 Nt=6", "cs=1 Nt=6", "cs=2 Nt=6", "cs=2 Nt=12"]
    for failure in failures:
        assert re.search(r": macro step \d+ at t=[0-9.]+: .*pointwise Newton stalled", failure)


class TestSpatialOrder:
    @pytest.mark.parametrize("order", [2, 4])
    def test_ladder_builds_requested_order(self, tmp_path, monkeypatch, order):
        built = []
        build = pde2d.build_stencil
        monkeypatch.setattr(pde2d, "build_stencil",
                            lambda *args: built.append(build(*args)) or built[-1])
        assert main(["convergence", "--problem", "example1", "--scheme", "strang",
                     "--grid", "8", "--nt", "4,8", "--corrections", "0",
                     "--end-time", "0.01", "--order-space", str(order),
                     "--out", str(tmp_path)]) == 0
        assert len(built) == 2 and {st.order for st in built} == {order}
        # an interior row holds the order + 1 weights of the centered stencil
        assert all(np.count_nonzero(st.matrix[4]) == order + 1 for st in built)
        info = manifest(tmp_path, "example1_strang")
        assert info["config"]["order_space"] == order
        assert info["failures"] == []


class TestRunSimulation:
    def test_fhn_snapshot(self, tmp_path):
        cfg = RunConfig(experiment="simulate", problem="fhn", grid_n=8,
                        corrections=(1,), dt=0.005, snap_times=(0.01,),
                        end_time=0.01, out_dir=str(tmp_path))
        summaries = run_simulation(cfg)
        assert len(summaries) == 1
        assert np.isfinite(summaries[0]["min"]).all()
        assert np.isfinite(summaries[0]["max"]).all()
        snap = tmp_path / "fhn_lietrotter_t0.01.csv"
        rows = read_rows(snap)
        assert rows[0] == ["x", "y", "u", "v"]
        assert len(rows) == 1 + 8 * 8
        assert_all_floats(snap)
        assert manifest(tmp_path, "fhn_lietrotter")["failures"] == []

    def test_initial_and_intermediate_snapshots(self, tmp_path):
        runs = {"all": (0.0, 0.005, 0.01), "last": (0.01,)}
        for name, snaps in runs.items():
            run_simulation(RunConfig(experiment="simulate", problem="fhn", grid_n=8,
                                     corrections=(1,), dt=0.005, snap_times=snaps,
                                     out_dir=str(tmp_path / name)))
        prob = fhn(N=8)
        write_field_snapshot(tmp_path / "initial.csv", prob.grid, prob.initial)
        all_dir = tmp_path / "all"
        assert (all_dir / "fhn_lietrotter_t0.csv").read_bytes() == \
            (tmp_path / "initial.csv").read_bytes()
        assert (all_dir / "fhn_lietrotter_t0.005.csv").exists()
        assert (all_dir / "fhn_lietrotter_t0.01.csv").read_bytes() == \
            (tmp_path / "last" / "fhn_lietrotter_t0.01.csv").read_bytes()

    def test_overflow_names_time_and_node(self, tmp_path, monkeypatch):
        build = problems.PROBLEM_BUILDERS["example2"]

        def huge(**kwargs):
            prob = build(**kwargs)
            return dataclasses.replace(prob, initial=prob.initial * 1e308)

        monkeypatch.setitem(problems.PROBLEM_BUILDERS, "example2", huge)
        cfg = RunConfig(experiment="simulate", problem="example2", scheme="adi",
                        grid_n=8, corrections=(0,), dt=0.01, snap_times=(0.0, 0.02),
                        out_dir=str(tmp_path))
        with pytest.raises(StepperError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                run_simulation(cfg)
        assert str(err.value) == "macro step 0 at t=0.01: non-finite state at node (0, 0)"
        assert (err.value.macro_step, err.value.time) == (0, 0.01)
        assert not (tmp_path / "example2_adi_t0.02.csv").exists()
        # the manifest is written before the error is raised again
        info = manifest(tmp_path, "example2_adi")
        assert info["failures"] == [str(err.value)]
        assert [snap["time"] for snap in info["snapshots"]] == [0.0]
        assert list(info["artifacts"]) == ["example2_adi_t0.csv"]

    @pytest.mark.parametrize("cs", [1, 2])
    def test_overflow_is_a_stepper_error_not_a_warning(self, tmp_path, monkeypatch, cs):
        # no np.errstate: warnings are errors under pytest.  At this scale the
        # prediction stays finite and the correction sweep overflows in numpy
        # arithmetic; its warning must not escape the march before the record
        build = problems.PROBLEM_BUILDERS["example2"]

        def huge(**kwargs):
            prob = build(**kwargs)
            return dataclasses.replace(prob, initial=prob.initial * 2e307)

        monkeypatch.setitem(problems.PROBLEM_BUILDERS, "example2", huge)
        cfg = RunConfig(experiment="simulate", problem="example2", scheme="adi",
                        grid_n=8, corrections=(cs,), dt=0.01, snap_times=(0.02,),
                        out_dir=str(tmp_path))
        with pytest.raises(StepperError) as err:
            run_simulation(cfg)
        assert str(err.value) == "macro step 0 at t=0.01: non-finite state at node (0, 0)"
        assert manifest(tmp_path, "example2_adi")["failures"] == [str(err.value)]

    def test_newton_failure_names_macro_step(self, tmp_path, monkeypatch):
        build = problems.PROBLEM_BUILDERS["fhn"]

        def huge(**kwargs):
            prob = build(**kwargs)
            return dataclasses.replace(prob, initial=prob.initial * 1e20)

        monkeypatch.setitem(problems.PROBLEM_BUILDERS, "fhn", huge)
        cfg = RunConfig(experiment="simulate", problem="fhn", grid_n=8, corrections=(1,),
                        dt=0.005, snap_times=(0.005, 0.01), out_dir=str(tmp_path))
        with pytest.raises(StepperError, match="Newton residual is non-finite") as err:
            with np.errstate(over="ignore", invalid="ignore"):
                run_simulation(cfg)
        assert err.value.macro_step == 1
        info = manifest(tmp_path, "fhn_lietrotter")
        assert str(err.value).startswith("macro step 1 at t=0.005: correction sweep 1 failed")
        assert info["failures"] == [str(err.value)]
        assert [snap["time"] for snap in info["snapshots"]] == [0.005]
        assert list(info["artifacts"]) == ["fhn_lietrotter_t0.005.csv"]

    def test_one_correction_count(self, tmp_path):
        cfg = RunConfig(experiment="simulate", problem="fhn", grid_n=8, dt=0.01,
                        snap_times=(0.02,), corrections=(0, 1, 2),
                        out_dir=str(tmp_path / "out"))
        with pytest.raises(UsageError, match=r"one correction count, got \[0, 1, 2\]"):
            run_simulation(cfg)
        assert main(["simulate", "--problem", "fhn", "--grid", "8", "--dt", "0.01",
                     "--snap-times", "0.02", "--corrections", "0,1,2",
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_default_correction_count(self, tmp_path):
        # convergence studies and stability maps default to three counts,
        # a simulation to the one count it runs
        assert RunConfig().corrections == (0, 1, 2)
        assert RunConfig(experiment="stability").corrections == (0, 1, 2)
        assert main(["simulate", "--problem", "fhn", "--grid", "8", "--dt", "0.01",
                     "--snap-times", "0.02", "--out", str(tmp_path)]) == 0
        assert manifest(tmp_path, "fhn_lietrotter")["config"]["corrections"] == [2]


class TestRunStability:
    def test_tiny_scan(self, tmp_path):
        cfg = RunConfig(experiment="stability", scheme="strang", corrections=(0, 1),
                        resolution=(5, 5), out_dir=str(tmp_path))
        scans = run_stability(cfg)
        assert [s.corrections for s in scans] == [0, 1]
        for cs in (0, 1):
            field = tmp_path / f"{cfg.name}_cs{cs}_field.csv"
            contour = tmp_path / f"{cfg.name}_cs{cs}_contour.csv"
            assert len(read_rows(field)) == 1 + 25
            assert_all_floats(field)
            assert_all_floats(contour)
        assert set(manifest(tmp_path, cfg.name)["artifacts"]) == {
            f"{cfg.name}_cs{cs}_{kind}.csv" for cs in (0, 1)
            for kind in ("field", "contour")}


class TestResidualDefault:
    """A scan integrates the residual as the ladders and simulations do,
    unless it asks for the oversampled grid."""

    SCAN = ["stability", "--scheme", "strang", "--corrections", "1,2",
            "--resolution", "9,7"]

    def scan(self, out, *flags):
        assert main(self.SCAN + ["--out", str(out), *flags]) == 0
        return manifest(out, "strang")

    def field(self, out, cs):
        """The field CSV's |amp| as the (re, im) grid; rows run im outer."""
        rows = read_rows(out / f"strang_cs{cs}_field.csv")[1:]
        return np.array([float(r[2]) for r in rows]).reshape(7, 9).T

    def test_default_is_interpolant(self, tmp_path):
        default = self.scan(tmp_path / "default")
        explicit = self.scan(tmp_path / "explicit", "--residual-mode", "interpolant")
        assert default["config"]["residual_mode"] == "interpolant"
        assert default["artifacts"] == explicit["artifacts"]
        for name in default["artifacts"]:
            assert (tmp_path / "default" / name).read_bytes() \
                == (tmp_path / "explicit" / name).read_bytes()

    def test_oversampled_is_honoured(self, tmp_path):
        out = tmp_path / "oversampled"
        info = self.scan(out, "--residual-mode", "oversampled(13)")
        assert info["config"]["residual_mode"] == "oversampled(13)"
        re, im = np.linspace(-20.0, 4.0, 9), np.linspace(-12.0, 12.0, 7)
        for cs in (1, 2):
            field = self.field(out, cs)
            assert np.array_equal(field, amplification_field(
                np.ix_(re, im), "strang", cs, residual_mode="oversampled(13)"))
            # the two quadratures differ at roundoff, so the mode was read
            assert not np.array_equal(field, amplification_field(np.ix_(re, im), "strang", cs))

    def test_no_mode_is_rejected(self, tmp_path):
        # the default is the field's own: None is no mode, not "unset"
        cfg = RunConfig(experiment="stability", residual_mode=None, out_dir=str(tmp_path))
        with pytest.raises(UsageError, match="unknown residual mode None"):
            run_stability(cfg)
        assert not os.listdir(tmp_path)


class TestManifest:
    """The manifest's config echo holds the resolved defaults, and ladders,
    scans and simulations record the M each correction count ran."""

    def test_resolved_at_construction(self):
        cfg = RunConfig(problem="example2", scheme="adi")
        assert (cfg.grid_n, cfg.end_time, cfg.nt_list) == (200, 0.05, (40, 80, 160, 320))
        assert (cfg.nt_unit, cfg.residual_mode) == ("macro", "interpolant")
        assert RunConfig(scheme="strang").nt_unit == "substep"
        scan = RunConfig(experiment="stability", problem="example2", scheme="adi")
        assert (scan.residual_mode, scan.nt_unit, scan.grid_n) == ("interpolant", None, None)
        sim = RunConfig(experiment="simulate", problem="fhn")
        assert (sim.dt, sim.snap_times, sim.nt_unit) == (0.005, (2.0, 5.0, 10.0), None)
        # set fields win over the table and the defaults
        cfg = RunConfig(problem="example2", scheme="adi", grid_n=8, nt_unit="substep",
                        residual_mode="oversampled(5)")
        assert (cfg.grid_n, cfg.end_time) == (8, 0.05)
        assert (cfg.nt_unit, cfg.residual_mode) == ("substep", "oversampled(5)")

    def test_echoes_only_what_the_run_reads(self, tmp_path):
        # a simulation climbs no N_t ladder and scans no window; a ladder
        # takes no snapshots; a scan resolves its window; a set value is echoed
        assert main(["simulate", "--problem", "example2", "--scheme", "strang",
                     "--grid", "8", "--dt", "0.005", "--snap-times", "0.01",
                     "--corrections", "0", "--out", str(tmp_path / "sim")]) == 0
        config = manifest(tmp_path / "sim", "example2_strang")["config"]
        assert (config["grid_n"], config["end_time"], config["nt_list"]) == (8, 0.025, [])
        assert [config[k] for k in ("re_range", "im_range", "resolution")] == [None] * 3
        assert main(["stability", "--scheme", "strang", "--corrections", "0",
                     "--resolution", "5,5", "--out", str(tmp_path / "scan")]) == 0
        config = manifest(tmp_path / "scan", "strang")["config"]
        assert [config[k] for k in ("re_range", "im_range", "resolution")] == [
            [-20.0, 4.0], [-12.0, 12.0], [5, 5]]
        assert (config["nt_list"], config["grid_n"], config["dt"]) == ([], None, None)
        # a scan builds no problem and no stencil
        assert (config["problem"], config["order_space"]) == (None, None)
        ladder = RunConfig(problem="fhn")
        assert (ladder.grid_n, ladder.dt, ladder.snap_times) == (200, None, ())
        assert RunConfig(experiment="simulate", problem="fhn", resolution=(5, 5)).resolution \
            == (5, 5)
        for experiment in ("convergence", "simulate"):
            run = RunConfig(experiment=experiment)
            assert (run.problem, run.order_space) == ("example1", 6)
        scan = RunConfig(experiment="stability", problem="fhn", order_space=4)
        assert (scan.problem, scan.order_space) == ("fhn", 4)

    def test_scan(self, tmp_path):
        assert main(["stability", "--scheme", "strang", "--corrections", "0",
                     "--resolution", "5,5", "--out", str(tmp_path)]) == 0
        config = manifest(tmp_path, "strang")["config"]
        assert config["residual_mode"] == "interpolant"

    @pytest.mark.parametrize("flags,sub_intervals", [
        ([], {"0": 3, "1": 4, "2": 6}), (["--sub-intervals", "5"], {"0": 5, "1": 5, "2": 5})])
    def test_scan_sub_intervals(self, tmp_path, flags, sub_intervals):
        assert main(["stability", "--scheme", "strang", "--resolution", "5,5",
                     "--out", str(tmp_path)] + flags) == 0
        assert manifest(tmp_path, "strang")["sub_intervals"] == sub_intervals

    @pytest.mark.parametrize("scheme,unit,sub_intervals", [
        ("adi", "macro", {"0": 1, "1": 3}), ("strang", "substep", {"0": 1, "1": 4})])
    def test_ladder(self, tmp_path, scheme, unit, sub_intervals):
        # order 4 needs M >= 3; counted in sub-steps, M must also divide 4 and 8
        assert main(["convergence", "--problem", "example1", "--scheme", scheme,
                     "--grid", "8", "--nt", "4,8", "--corrections", "0,1",
                     "--end-time", "0.01", "--out", str(tmp_path)]) == 0
        info = manifest(tmp_path, f"example1_{scheme.replace('-', '')}")
        assert info["config"]["residual_mode"] == "interpolant"
        assert info["config"]["nt_unit"] == unit
        assert info["sub_intervals"] == sub_intervals

    @pytest.mark.parametrize("counts,sub_intervals", [("0", {"0": 1}), ("2", {"2": 3})])
    def test_simulation(self, tmp_path, counts, sub_intervals):
        assert main(["simulate", "--problem", "fhn", "--grid", "8", "--dt", "0.01",
                     "--snap-times", "0.02", "--corrections", counts,
                     "--out", str(tmp_path)]) == 0
        info = manifest(tmp_path, "fhn_lietrotter")
        assert info["config"]["residual_mode"] == "interpolant"
        assert info["sub_intervals"] == sub_intervals

    def test_config_file_tuples(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nscheme = strang\ncorrections = 0,1\nresolution = 5,3\n"
                       "re_range = -2,1.5\nim-range = -1,1\n")
        assert main(["stability", "--config", str(ini), "--out", str(tmp_path)]) == 0
        info = manifest(tmp_path, "strang")
        assert {k: info["config"][k] for k in
                ("corrections", "resolution", "re_range", "im_range")} == {
            "corrections": [0, 1], "resolution": [5, 3],
            "re_range": [-2.0, 1.5], "im_range": [-1.0, 1.0]}
        rows = read_rows(tmp_path / "strang_cs1_field.csv")
        assert len(rows) == 1 + 5 * 3
        assert (rows[1][:2], rows[-1][:2]) == (["-2.0", "-1.0"], ["1.5", "1.0"])

    def test_config_file_sets_M(self, tmp_path):
        # configparser lowercases keys; they still match the field M
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nproblem = example1\nscheme = strang\nM = 2\ngrid_n = 8\n"
                       "nt_list = 4,8\ncorrections = 0\nend_time = 0.01\n")
        assert main(["convergence", "--config", str(ini), "--out", str(tmp_path)]) == 0
        info = manifest(tmp_path, "example1_strang")
        assert info["config"]["M"] == 2
        assert info["sub_intervals"] == {"0": 2}

    def test_unreadable_config_value(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nresolution = 5,x\n")
        assert main(["stability", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,why", [
        (b"problem = example1\n", "no section headers"),
        (b"[run]\nproblem = example1\nproblem = example2\n", "already exists"),
        (b"[run]\nproblem = \xff\n", "can't decode"),
    ], ids=["no-section", "duplicate-key", "not-utf8"])
    def test_malformed_config_file(self, tmp_path, capsys, text, why):
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        assert main(["convergence", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"cannot parse config file {ini}" in err and why in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_percent_in_config_value_is_literal(self, tmp_path, monkeypatch):
        # configparser's default interpolation rejects a lone %
        runs = []
        monkeypatch.setattr(cli, "run_convergence", lambda cfg: runs.append(cfg) or
                            harness.ConvergenceReport(metric="exact", rows=()))
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nproblem = example1\nrun_name = a%b\ncorrections = 0\n")
        assert main(["convergence", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == 0
        assert [cfg.run_name for cfg in runs] == ["a%b"]
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_tiny_run_succeeds(self, tmp_path, capsys):
        code = main(["convergence", "--problem", "example1", "--scheme", "adi",
                     "--grid", "8", "--nt", "2,4", "--corrections", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "orders" in capsys.readouterr().out

    def test_unknown_problem(self, tmp_path):
        assert main(["convergence", "--problem", "nope",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_scheme(self, tmp_path):
        with pytest.raises(UsageError):
            RunConfig(scheme="euler")
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--scheme", "euler", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_end_time(self, tmp_path):
        # fhn has no Strang convergence table to take an end time from
        assert main(["convergence", "--problem", "fhn", "--scheme", "strang",
                     "--grid", "8", "--nt", "2,4", "--corrections", "0",
                     "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("M", ["0", "-2"])
    @pytest.mark.parametrize("flags", [
        ["convergence", "--nt", "2,4"],
        ["simulate", "--dt", "0.01", "--snap-times", "0.02"]],
        ids=["convergence", "simulate"])
    def test_sub_intervals_below_one(self, tmp_path, recwarn, flags, M):
        assert main([*flags, "--problem", "example1", "--scheme", "adi",
                     "--grid", "8", "--corrections", "0", "--sub-intervals", M,
                     "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())
        assert not recwarn.list

    def test_bad_rung_stops_before_any_solve(self, tmp_path, monkeypatch):
        # M=2 divides 4 and 6, not 3
        calls = counting_solves(monkeypatch)
        assert main(["convergence", "--problem", "example1", "--scheme", "lie-trotter",
                     "--grid", "8", "--nt", "4,6,3", "--corrections", "0,1",
                     "--nt-unit", "substep", "--sub-intervals", "2",
                     "--end-time", "0.01", "--out", str(tmp_path)]) == 2
        assert calls == []
        assert not list(tmp_path.glob("*.csv"))

    def test_odd_rung_under_self_metric(self, tmp_path, monkeypatch):
        calls = counting_solves(monkeypatch)
        assert main(["convergence", "--problem", "example2", "--scheme", "strang",
                     "--grid", "12", "--nt", "8,9,16", "--corrections", "0",
                     "--end-time", "0.01", "--out", str(tmp_path)]) == 2
        assert calls == []
        assert not list(tmp_path.glob("*.csv"))

    def test_doubling_self_ladder_rungs(self, tmp_path, monkeypatch):
        # the reference rung below the ladder and no other extra run
        calls = counting_solves(monkeypatch)
        assert main(["convergence", "--problem", "example2", "--scheme", "adi",
                     "--grid", "8", "--nt", "4,8,16", "--corrections", "0",
                     "--end-time", "0.01", "--out", str(tmp_path)]) == 0
        assert calls == [2, 4, 8, 16]

    @pytest.mark.parametrize("counts", [(), [], (-1,), (0, -1), (1.5,), ("1",), 2, (1, 0, 1)],
                             ids=["empty-tuple", "empty-list", "negative", "one-negative",
                                  "float", "string", "no-sequence", "repeated"])
    def test_bad_correction_counts(self, counts):
        with pytest.raises(UsageError, match="corrections must be"):
            RunConfig(corrections=counts)

    def test_repeated_rung(self):
        with pytest.raises(UsageError, match=r"repeats a rung: \[4, 8, 4\]"):
            RunConfig(nt_list=(4, 8, 4))

    @pytest.mark.parametrize("flags", [
        ["convergence", "--problem", "example1", "--scheme", "lie-trotter",
         "--grid", "8", "--nt", "4,8", "--end-time", "0.01"],
        ["stability", "--scheme", "strang", "--resolution", "11,11"]],
        ids=["convergence", "stability"])
    def test_negative_correction_count_stops_before_any_work(self, tmp_path,
                                                              monkeypatch, flags):
        solves = counting_solves(monkeypatch)
        scans = []
        scan_region = harness.scan_region
        monkeypatch.setattr(harness, "scan_region",
                            lambda scan: scans.append(scan) or scan_region(scan))
        assert main([*flags, "--corrections", "0,-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert solves == [] and scans == []
        assert not (tmp_path / "out").exists()

    SCAN = ["stability", "--scheme", "strang", "--corrections", "0", "--resolution", "5,5"]
    LADDER = ["convergence", "--problem", "example1", "--scheme", "strang", "--grid", "8",
              "--nt", "4,8", "--corrections", "0", "--end-time", "0.01"]
    SIMULATION = ["simulate", "--problem", "example1", "--scheme", "adi", "--grid", "8",
                  "--corrections", "0", "--dt", "0.01", "--snap-times", "0.02"]

    @pytest.mark.parametrize("flags", [
        ["convergence", "--problem", "example1", "--scheme", "strang", "--grid", "8",
         "--nt", "4,8", "--corrections", "0", "--end-time", "-1"],
        ["stability", "--scheme", "strang", "--corrections", "0",
         "--resolution", "1,1"],
        SCAN + ["--residual-mode", "bogus"],
        SCAN + ["--sub-intervals", "99"],
        LADDER + ["--residual-mode", "bogus"],
        SIMULATION + ["--residual-mode", "bogus"],
        SIMULATION + ["--sub-intervals", "99"],
        SIMULATION + ["--grid", "0"],
        LADDER + ["--problem", "example3", "--scheme", "adi"],
        SIMULATION + ["--problem", "fhn"],
        SIMULATION + ["--problem", "example3", "--snap-times", "0,0.02"],
        LADDER + ["--nt", "4,4"],
        SCAN + ["--corrections", "0,0"],
        LADDER + ["--end-time", "inf"],
        SCAN + ["--im-range=-1,inf"],
        SCAN + ["--re-range=nan,1"],
        SIMULATION + ["--dt", "inf"],
        SIMULATION + ["--snap-times", "nan"],
        SIMULATION + ["--problem", "fhn", "--scheme", "strang", "--snap-times", "inf"]],
        ids=["negative-end-time", "one-sample-scan", "scan-residual-mode",
             "scan-sub-intervals", "ladder-residual-mode", "simulation-residual-mode",
             "simulation-sub-intervals", "simulation-empty-grid", "ladder-operator-count",
             "simulation-operator-count", "initial-snapshot-operator-count",
             "repeated-rung", "repeated-correction-count", "infinite-end-time",
             "infinite-scan-window", "nan-scan-window", "infinite-dt", "nan-snapshot-time",
             "infinite-snapshot-time"])
    def test_rejected_run_leaves_no_directory(self, tmp_path, flags):
        assert main([*flags, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_snapshot_not_multiple_of_dt(self, tmp_path):
        assert main(["simulate", "--problem", "fhn", "--grid", "8",
                     "--corrections", "0", "--dt", "0.005",
                     "--snap-times", "0.0123", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("dt,snaps", [
        ("0.005", "-0.005"), ("0.005", "0.015"), ("0.005", "0.005,0.005"),
        ("0", "0.005")], ids=["negative", "after-end", "duplicate", "zero-dt"])
    def test_bad_snapshot_times(self, tmp_path, dt, snaps):
        assert main(["simulate", "--problem", "fhn", "--grid", "8",
                     "--corrections", "0", "--dt", dt, "--end-time", "0.01",
                     "--snap-times", snaps, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_snapshot_times_with_one_file_name(self, tmp_path, monkeypatch, capsys):
        # two steps of dt apart, but both print as 123.456 in the file name
        marches = []
        monkeypatch.setattr(harness, "idc_march",
                            lambda *args: marches.append(args) or iter(()))
        out = tmp_path / "out"
        assert main(["simulate", "--problem", "fhn", "--grid", "8", "--corrections", "0",
                     "--dt", "0.0001", "--snap-times", "123.4561,123.4562",
                     "--end-time", "123.4562", "--out", str(out)]) == 2
        assert "123.4561 and 123.4562" in capsys.readouterr().err
        assert marches == [] and not out.exists()

    def test_removed_residual_split_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--residual-split", "argument",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_removed_residual_split_key(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nproblem = example1\nresidual_split = argument\n")
        assert main(["convergence", "--config", str(ini),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flags", [
        ["--re-range=-2", "--resolution", "11,11"],
        ["--re-range=-2,1,5"],
        ["--resolution", "11,11,3"]], ids=["one-bound", "three-bounds", "three-counts"])
    def test_malformed_scan_window(self, tmp_path, flags):
        assert main(["stability", "--scheme", "strang", "--corrections", "0",
                     *flags, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))
