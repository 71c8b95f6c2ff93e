"""End-to-end checks of the command-line front end.

Everything runs on small crystals through ``cli.main`` so the exit codes
and emitted files are exercised exactly as a shell user would see them.
"""

import dataclasses
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gatelab import cli
from gatelab import crystal as cr
from gatelab import gate as gt
from gatelab import modes as md
from gatelab import optimizer as op
from gatelab._textio import read_rows

BASE_CONFIG = """\
# small crystal exercising every subcommand
ion_count = 7
omega_r_hz = 0.2e6
omega_z_hz = 10e6
n_series = 7, 10, 19
stability_n_series = 7, 19
beta_values = 50, 20
dmin_targets_m = 5e-6
pair = 0, 3
tau_s = 50e-6
segments = 4
mu_grid_points = 7
mu_below_hz = 0.02e6
mu_above_hz = 0.06e6
"""


def write_config(directory, text=BASE_CONFIG, name="run.cfg"):
    path = os.path.join(str(directory), name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def load_summary(out_dir):
    with open(os.path.join(str(out_dir), "summary.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One run of every subcommand, shared by the read-back tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root)
    cache = str(root / "cache")
    outs = {}
    for command in ("equilibrium", "scaling", "modes", "optimize"):
        out = str(root / command)
        code = cli.main([command, "--config", config,
                         "--out", out, "--cache", cache])
        assert code == 0, command
        outs[command] = out
    gate_out = str(root / "gate")
    code = cli.main(["gate", "--config", config, "--out", gate_out,
                     "--cache", cache,
                     "--schedule", os.path.join(outs["optimize"],
                                                "best_schedule.tsv")])
    assert code == 0
    outs["gate"] = gate_out
    return {"root": root, "config": config, "cache": cache, "outs": outs}


class TestArtifacts:
    def test_equilibrium_outputs(self, workspace):
        out = workspace["outs"]["equilibrium"]
        summary = load_summary(out)
        assert summary["command"] == "equilibrium"
        assert summary["ion_count"] == 7
        assert summary["u_min"] > 1.0
        crystal = cr.read_crystal(os.path.join(out, "crystal.tsv"))
        assert crystal.ion_count == 7
        meta, rows = read_rows(os.path.join(out, "positions.tsv"))
        coords = np.array([[float(r[3]), float(r[4])] for r in rows])
        assert coords.shape == (7, 2)
        np.testing.assert_allclose(cr.min_spacing(coords),
                                   summary["u_min"], rtol=1e-12)
        assert float(meta["u_min"]) == pytest.approx(summary["u_min"])
        assert max(float(r[5]) for r in rows) == pytest.approx(
            summary["max_lattice_deviation_u"])

    def test_scaling_outputs(self, workspace):
        out = workspace["outs"]["scaling"]
        summary = load_summary(out)
        assert summary["fit_exponent"] < 0
        meta, rows = read_rows(os.path.join(out, "spacing_scan.tsv"))
        assert [int(r[0]) for r in rows] == [7, 10, 19]
        u = [float(r[1]) for r in rows]
        # shrinks across closed shells; intermediate counts may dip below
        assert u[0] > u[2] > 0
        assert float(meta["fit_exponent"]) == pytest.approx(
            summary["fit_exponent"])
        meta, rows = read_rows(os.path.join(out, "required_omega_r.tsv"))
        assert len(rows) == 3  # one target, three ion numbers
        assert all(float(r[2]) > 0 for r in rows)

    def test_required_omega_r_hits_target(self, workspace):
        out = workspace["outs"]["scaling"]
        _, rows = read_rows(os.path.join(out, "required_omega_r.tsv"))
        n, target, omega_hz = (int(rows[0][0]), float(rows[0][1]),
                               float(rows[0][2]))
        _, scan_rows = read_rows(os.path.join(out, "spacing_scan.tsv"))
        u_min = float(scan_rows[0][1])
        trap = cr.TrapConfig(n, omega_r=2 * math.pi * omega_hz,
                             omega_z=2 * math.pi * 10e6)
        assert u_min * cr.length_scale(trap) == pytest.approx(target,
                                                              rel=1e-9)

    def test_modes_outputs(self, workspace):
        out = workspace["outs"]["modes"]
        summary = load_summary(out)
        assert summary["stable"] is True
        assert summary["flagged"] == []
        _, rows = read_rows(os.path.join(out, "spectrum.tsv"))
        assert len(rows) == 7
        assert summary["band_low_hz"] == pytest.approx(
            min(float(r[1]) for r in rows))
        assert summary["band_high_hz"] == pytest.approx(10e6, rel=1e-9)
        meta, rows = read_rows(os.path.join(out, "critical_beta.tsv"))
        betas = {int(r[0]): float(r[1]) for r in rows}
        assert set(betas) == {7, 19}
        assert betas[19] > betas[7] > 0
        meta, rows = read_rows(os.path.join(out, "com_gap.tsv"))
        gaps = {float(r[0]): float(r[1]) for r in rows}
        # the uniform-mode gap narrows as the axial trap stiffens
        assert gaps[50.0] < gaps[20.0]

    def test_optimize_outputs(self, workspace):
        out = workspace["outs"]["optimize"]
        summary = load_summary(out)
        assert summary["feasible"] is True
        assert 0.9 < summary["best_fidelity"] <= 1.0
        _, rows = read_rows(os.path.join(out, "scan.tsv"))
        assert len(rows) == 7
        best = max(rows, key=lambda r: float(r[1]))
        assert float(best[1]) == pytest.approx(summary["best_fidelity"])
        assert float(best[0]) == pytest.approx(summary["best_mu_hz"])
        schedule = gt.read_schedule(os.path.join(out, "best_schedule.tsv"))
        assert schedule.target_pair == (0, 3)
        meta, _ = read_rows(os.path.join(out, "best_report.tsv"))
        assert float(meta["fidelity"]) == pytest.approx(
            summary["best_fidelity"])

    def test_gate_matches_optimizer(self, workspace):
        """Evaluating the saved winner reproduces the scan's fidelity."""
        summary = load_summary(workspace["outs"]["gate"])
        best = load_summary(workspace["outs"]["optimize"])
        assert summary["pair"] == best["pair"]
        assert summary["fidelity"] == pytest.approx(best["best_fidelity"],
                                                    rel=1e-12)
        assert abs(summary["entangling_phase_rad"]) == pytest.approx(
            math.pi / 4, rel=1e-9)

    def test_gate_reproduces_best_report(self, workspace):
        """optimize reports the schedule file it ships, so evaluating that
        file rebuilds its report byte for byte."""
        outs = workspace["outs"]
        assert filecmp.cmp(os.path.join(outs["optimize"], "best_report.tsv"),
                           os.path.join(outs["gate"], "report.tsv"),
                           shallow=False)


class TestDeterminism:
    def test_byte_identical_reruns(self, workspace):
        """Same config and seed give byte-identical artifacts."""
        root = workspace["root"]
        schedule = os.path.join(workspace["outs"]["optimize"],
                                "best_schedule.tsv")
        for command in ("scaling", "modes", "optimize", "gate"):
            out2 = str(root / (command + "-again"))
            extra = ["--schedule", schedule] if command == "gate" else []
            code = cli.main([command, "--config", workspace["config"],
                             "--out", out2, "--cache", workspace["cache"]]
                            + extra)
            assert code == 0, command
            first = workspace["outs"][command]
            names = sorted(os.listdir(first))
            assert names == sorted(os.listdir(out2)), command
            assert "summary.json" in names and len(names) >= 2, command
            for name in names:
                assert filecmp.cmp(os.path.join(first, name),
                                   os.path.join(out2, name),
                                   shallow=False), (command, name)

    def test_cache_coherence(self, workspace):
        """Cache hits and fresh solves produce identical artifacts."""
        root = workspace["root"]
        out_cold = str(root / "eq-cold")
        code = cli.main(["equilibrium", "--config", workspace["config"],
                         "--out", out_cold])  # no cache: fresh solve
        assert code == 0
        out_warm = str(root / "eq-warm")
        code = cli.main(["equilibrium", "--config", workspace["config"],
                         "--out", out_warm,
                         "--cache", workspace["cache"]])  # cache hit
        assert code == 0
        for name in ("crystal.tsv", "positions.tsv", "summary.json"):
            reference = os.path.join(workspace["outs"]["equilibrium"], name)
            assert filecmp.cmp(reference, os.path.join(out_cold, name),
                               shallow=False), name
            assert filecmp.cmp(reference, os.path.join(out_warm, name),
                               shallow=False), name

    def test_table_reuses_the_run_crystal(self, tmp_path, monkeypatch):
        """``optimize`` with the benchmark table solves one equilibrium;
        the table re-dresses that crystal for each radial trap."""
        solves = []
        original = cr.solve_equilibrium

        def counting(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        # patch every binding the package could look the solver up through
        monkeypatch.setattr(cr, "solve_equilibrium", counting)
        monkeypatch.setattr(op, "solve_equilibrium", counting, raising=False)
        config = write_config(
            tmp_path, "ion_count = 19\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\nsegments = 4\n"
                      "mu_grid_points = 3\ntable = true\npair_count = 2\n")
        out = str(tmp_path / "out")
        assert cli.main(["optimize", "--config", config, "--out", out]) == 0
        assert len(solves) == 1
        _, rows = read_rows(os.path.join(out, "table.tsv"))
        assert len(rows) == 4  # two pairs in each of the two default traps

    def test_modes_solves_its_own_crystal_once(self, tmp_path, monkeypatch):
        """``modes`` without a cache reuses the run's crystal for its own
        ion count in the stability series."""
        solves = []
        original = cr.solve_equilibrium

        def counting(trap, **kwargs):
            solves.append(trap.ion_count)
            return original(trap, **kwargs)

        monkeypatch.setattr(cr, "solve_equilibrium", counting)
        config = write_config(
            tmp_path, "ion_count = 19\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\nstability_n_series = 7, 19\n")
        out = str(tmp_path / "out")
        assert cli.main(["modes", "--config", config, "--out", out]) == 0
        assert solves == [19, 7]
        _, rows = read_rows(os.path.join(out, "critical_beta.tsv"))
        assert [row[0] for row in rows] == ["7", "19"]

    def test_table_builds_one_gate_report(self, tmp_path, monkeypatch):
        """Only the main scan's best point gets a gate report; the table's
        scans build none."""
        reports = []
        original = gt.gate_report

        def counting(*args, **kwargs):
            reports.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gt, "gate_report", counting)
        config = write_config(
            tmp_path, "ion_count = 19\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\nsegments = 4\n"
                      "mu_grid_points = 3\ntable = true\npair_count = 2\n")
        out = str(tmp_path / "out")
        assert cli.main(["optimize", "--config", config, "--out", out]) == 0
        assert len(reports) == 1
        _, rows = read_rows(os.path.join(out, "table.tsv"))
        assert len(rows) == 4
        # every row has a feasible point, so none is reported
        assert all(float(row[5]) > 0 for row in rows)
        assert load_summary(out)["diagnostics"] == {
            "table": {"infeasible_rows": []}}

    @pytest.mark.parametrize("threads", [None, "1", "2"])
    def test_summary_records_threads_and_solve_route(self, tmp_path,
                                                     monkeypatch, threads):
        # the two settings besides the config that the bytes depend on
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        config = write_config(tmp_path)
        route = "numpy cholesky" if cr._DPOSV is None else "bundled dposv"
        for binding in (cr._DPOSV, None):
            monkeypatch.setattr(cr, "_DPOSV", binding)
            out = str(tmp_path / str(binding is None))
            assert cli.main(["equilibrium", "--config", config,
                             "--out", out]) == 0
            summary = load_summary(out)
            assert summary["openblas_num_threads"] == threads
            assert summary["shifted_solve"] == route
            route = "numpy cholesky"

    def test_seed_is_set_by_the_config(self, tmp_path, capsys):
        # the config key names the cache entry and reaches the summary;
        # there is no --seed flag beside it
        config = write_config(tmp_path, BASE_CONFIG + "seed = 3\n")
        out = str(tmp_path / "seeded")
        cache = tmp_path / "cache"
        code = cli.main(["equilibrium", "--config", config, "--out", out,
                         "--cache", str(cache)])
        assert code == 0
        assert load_summary(out)["seed"] == 3
        assert os.listdir(cache) == ["crystal-n7-seed3.tsv"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["equilibrium", "--config", config, "--out", out,
                      "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def _drop_last_rows(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))


def _cut_header(path):
    path.write_bytes(path.read_bytes()[:300])


def _perturb_positions(path):
    crystal = cr.read_crystal(path)
    moved = crystal.positions.copy()
    moved[2, 0] += 1e-3
    cr.write_crystal(dataclasses.replace(crystal, positions=moved), path)


def _edit_derived_header(path):
    edited = {"u_min": "0.5", "energy": "1.0", "residual": "0.0"}
    lines = []
    for line in path.read_text().splitlines(keepends=True):
        key = line[2:].split("\t")[0] if line.startswith("# ") else None
        lines.append("# %s\t%s\n" % (key, edited[key])
                     if key in edited else line)
    path.write_text("".join(lines))


def _per_mode_nbar(path):
    # the trap holds one occupation; a per-mode list does not read back
    lines = [("# nbar\t%s\n" % ",".join(["0.1"] * 7))
             if line.startswith("# nbar\t") else line
             for line in path.read_text().splitlines(keepends=True)]
    path.write_text("".join(lines))


def _other_ion_count(path):
    trap = cr.TrapConfig(8, omega_r=2 * math.pi * 0.2e6,
                         omega_z=2 * math.pi * 10e6)
    cr.write_crystal(cr.solve_equilibrium(trap), path)


class TestCacheValidation:
    """A cache entry is trusted only if it reads back whole, holds the
    right ion count and is at rest; otherwise it is solved again."""

    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fresh")
        config = write_config(root)
        cache = str(root / "cache")
        out = str(root / "out")
        assert cli.main(["equilibrium", "--config", config, "--out", out,
                         "--cache", cache]) == 0
        return config, out, os.path.join(cache, "crystal-n7-seed0.tsv")

    @pytest.mark.parametrize("corrupt", [_drop_last_rows, _cut_header,
                                         _perturb_positions,
                                         _other_ion_count, _per_mode_nbar],
                             ids=["missing-rows", "cut-header",
                                  "perturbed-positions", "ion-count",
                                  "per-mode-nbar"])
    def test_corrupt_entry_is_solved_again(self, fresh, tmp_path, corrupt):
        config, fresh_out, fresh_entry = fresh
        cache = tmp_path / "cache"
        cache.mkdir()
        entry = cache / "crystal-n7-seed0.tsv"
        shutil.copyfile(fresh_entry, entry)
        corrupt(entry)
        assert not filecmp.cmp(fresh_entry, entry, shallow=False)
        out = str(tmp_path / "out")
        assert cli.main(["equilibrium", "--config", config, "--out", out,
                         "--cache", str(cache)]) == 0
        for name in ("crystal.tsv", "positions.tsv", "summary.json"):
            assert filecmp.cmp(os.path.join(fresh_out, name),
                               os.path.join(out, name), shallow=False), name
        # the entry is overwritten with the fresh solve
        assert filecmp.cmp(fresh_entry, entry, shallow=False)

    def test_derived_header_values_are_not_read(self, fresh, tmp_path):
        """u_min, energy and residual in an entry's header are there for
        people; a run recomputes them from the positions and the trap."""
        config, fresh_out, fresh_entry = fresh
        cache = tmp_path / "cache"
        cache.mkdir()
        entry = cache / "crystal-n7-seed0.tsv"
        shutil.copyfile(fresh_entry, entry)
        _edit_derived_header(entry)
        assert not filecmp.cmp(fresh_entry, entry, shallow=False)
        expected = {"equilibrium": fresh_out,
                    "scaling": str(tmp_path / "scaling-fresh")}
        assert cli.main(["scaling", "--config", config,
                         "--out", expected["scaling"]]) == 0
        for command, reference in expected.items():
            out = str(tmp_path / command)
            assert cli.main([command, "--config", config, "--out", out,
                             "--cache", str(cache)]) == 0
            names = sorted(os.listdir(reference))
            assert sorted(os.listdir(out)) == names
            for name in names:
                assert filecmp.cmp(os.path.join(reference, name),
                                   os.path.join(out, name),
                                   shallow=False), (command, name)

    @pytest.mark.parametrize("corrupt, message", [
        (_drop_last_rows, "cover ions"), (_perturb_positions, "not at rest")],
        ids=["missing-rows", "perturbed-positions"])
    def test_read_crystal_rejects(self, fresh, tmp_path, corrupt, message):
        path = tmp_path / "crystal.tsv"
        shutil.copyfile(fresh[2], path)
        corrupt(path)
        with pytest.raises(ValueError, match=message):
            cr.read_crystal(path)


class TestPairValidation:
    @pytest.mark.parametrize("command, pair, target_pair, named", [
        ("optimize", "0, 9", None, "'pair'"),
        ("optimize", "2, 2", None, "'pair'"),
        ("optimize", "0, -1", None, "'pair'"),
        ("gate", "0, 3", (0, 9), "'pair'"),
        # refused as the file is read, by the schedule's own pair rule
        ("gate", "0, 3", (0, -1), "target pair needs"),
        ("gate", "7, 1", None, "'pair'")],
        ids=["optimize-out-of-range", "optimize-same-ion",
             "optimize-negative", "gate-schedule-out-of-range",
             "gate-schedule-negative", "gate-config-out-of-range"])
    def test_bad_pair_is_config_error(self, tmp_path, capsys, command, pair,
                                      target_pair, named):
        config = write_config(tmp_path, BASE_CONFIG.replace(
            "pair = 0, 3", "pair = " + pair))
        # no schedule holds a negative target pair: write (0, 3) and edit
        # the file
        negative = target_pair is not None and min(target_pair) < 0
        schedule = dataclasses.replace(gt.PulseSchedule.uniform(
            50e-6, 2 * math.pi * np.array([0.1e6, -0.2e6]),
            2 * math.pi * 10.04e6),
            target_pair=(0, 3) if negative else target_pair)
        path = tmp_path / "schedule.tsv"
        gt.write_schedule(schedule, str(path))
        if negative:
            path.write_text(path.read_text().replace(
                "target_pair\t0,3", "target_pair\t%d,%d" % target_pair))
        extra = ["--schedule", str(path)] if command == "gate" else []
        code = cli.main([command, "--config", config,
                         "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize("pair_line, target_pair, expected", [
        ("pair = 1, 2", (0, 3), None), ("pair = 0, 3", (0, 3), [0, 3]),
        ("", (0, 3), [0, 3]), ("pair = 1, 2", None, [1, 2])],
        ids=["conflict", "agree", "schedule-only", "key-only"])
    def test_gate_pair_stated_twice_must_agree(self, tmp_path, capsys,
                                               pair_line, target_pair,
                                               expected):
        # a pair key that names another pair than the schedule's is a
        # config error naming both, not silently overridden
        config = write_config(tmp_path, BASE_CONFIG.replace(
            "pair = 0, 3", pair_line))
        schedule = dataclasses.replace(gt.PulseSchedule.uniform(
            50e-6, 2 * math.pi * np.array([0.1e6, -0.2e6]),
            2 * math.pi * 10.04e6), target_pair=target_pair)
        path = str(tmp_path / "schedule.tsv")
        gt.write_schedule(schedule, path)
        out = tmp_path / "out"
        code = cli.main(["gate", "--config", config, "--out", str(out),
                         "--schedule", path])
        if expected is None:
            assert code == 2
            err = capsys.readouterr().err
            assert ("config error: 'pair' = 1, 2 conflicts with the "
                    "schedule's target pair 0, 3") in err
            assert not (out / "report.tsv").exists()
        else:
            assert code == 0
            assert load_summary(out)["pair"] == expected
            meta, _ = read_rows(out / "report.tsv")
            assert meta["pair"] == "%d,%d" % tuple(expected)


class TestOptimizePairs:
    """optimize picks every pair it needs before it writes anything."""

    def test_default_pair_needs_one_separation(self, tmp_path):
        # N=37 has fewer than 10 distinct centre separations; without the
        # table only the nearest-neighbour pair is needed
        config = write_config(tmp_path, BASE_CONFIG.replace(
            "ion_count = 7", "ion_count = 37").replace("pair = 0, 3\n", ""))
        out = str(tmp_path / "out")
        assert cli.main(["optimize", "--config", config, "--out", out]) == 0
        run = cli.parse_config(config)
        crystal = cli.cached_crystal(run, "", run.ion_count)
        expected = op.default_pair_list(crystal, 1)[0]
        assert tuple(load_summary(out)["pair"]) == expected

    def test_table_pairs_checked_before_any_output(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG.replace(
            "ion_count = 7", "ion_count = 37").replace(
            "pair = 0, 3", "pair = 0, 1\ntable = true"))
        out = tmp_path / "out"
        code = cli.main(["optimize", "--config", config, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'pair_count'" in err
        assert os.listdir(out) == []

    def test_unstable_table_trap_writes_nothing(self, tmp_path, capsys):
        # the run's own trap is stable, the table's 5 MHz trap is not: the
        # table is solved before the first write, so its failure leaves
        # the output directory empty
        config = write_config(
            tmp_path, "ion_count = 19\nomega_r_hz = 1e6\n"
                      "omega_z_hz = 10e6\nmu_grid_points = 5\n"
                      "table = true\npair_count = 3\n"
                      "omega_r_table_hz = 1e6, 5e6\n")
        out = tmp_path / "out"
        code = cli.main(["optimize", "--config", config, "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "axial branch unstable at beta=2" in err and "beta_c" in err
        assert os.listdir(out) == []

    def test_table_runs_the_run_problem(self, tmp_path):
        # the table scans the problem of the run, amplitude bound and nbar
        # included; its row of the run's own pair and trap is the scan
        config = write_config(
            tmp_path, "ion_count = 19\nomega_r_hz = 1e6\n"
                      "omega_z_hz = 10e6\nmu_grid_points = 11\n"
                      "mu_below_hz = 0\nmu_above_hz = 0.1e6\nnbar = 0.3\n"
                      "table = true\npair_count = 3\n"
                      "amplitude_bound_hz = 100e3\n")
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", config,
                         "--out", str(out)]) == 0
        _, rows = read_rows(out / "table.tsv")
        assert len(rows) == 6
        assert all(float(row[7]) <= 100e3 for row in rows)
        summary = load_summary(out)
        own = [row for row in rows
               if row[0] == "1" and float(row[4]) == pytest.approx(1e6)]
        assert len(own) == 1
        assert [int(own[0][1]), int(own[0][2])] == summary["pair"]
        assert float(own[0][6]) == summary["best_fidelity"]
        # the bound leaves two rows at 0.2 MHz with no feasible point; the
        # summary names them
        infeasible = [(int(row[0]), [int(row[1]), int(row[2])])
                      for row in rows if float(row[5]) == 0]
        assert infeasible == [(2, [0, 9]), (3, [0, 18])]
        assert summary["diagnostics"]["table"]["infeasible_rows"] == [
            {"rank": rank, "pair": pair, "omega_r_hz": 200000.0}
            for rank, pair in infeasible]

    def test_library_defaults(self, tmp_path, monkeypatch):
        # a config without grid, segment, pair_count or nbar keys runs the
        # library's default problem; nbar is stated once, in the trap
        seen = {}
        scan = op.detuning_scan

        def scanning(spectrum, problem):
            seen["spectrum"], seen["problem"] = spectrum, problem
            return scan(spectrum, problem)

        def table(crystal, problem, pairs, omega_r_values):
            seen["pairs"] = pairs
            return []  # the table's own scans are tested elsewhere

        monkeypatch.setattr(op, "detuning_scan", scanning)
        monkeypatch.setattr(op, "table_one", table)
        config = write_config(tmp_path, "ion_count = 91\nomega_r_hz = 0.2e6\n"
                                        "omega_z_hz = 10e6\ntable = true\n")
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", config,
                         "--out", str(out)]) == 0
        problem, spectrum = seen["problem"], seen["spectrum"]
        grid = op.default_mu_grid(2 * math.pi * 10e6)
        assert problem.mu_grid.tobytes() == grid.tobytes()
        assert problem.segment_count == op.SEGMENT_COUNT == 5
        assert problem.nbar is None
        trap = cr.TrapConfig(91, omega_r=1.0, omega_z=1.0)
        assert spectrum.config.temperature_nbar == trap.temperature_nbar
        assert len(seen["pairs"]) == op.PAIR_COUNT == 10
        crystal = cr.with_trap(cr.solve_equilibrium(trap), spectrum.config)
        assert seen["pairs"] == op.default_pair_list(crystal)
        # the report's response holds gate_report's default samples
        report = gt.gate_report(gt.read_schedule(out / "best_schedule.tsv"),
                                spectrum, tuple(load_summary(out)["pair"]))
        _, rows = read_rows(out / "best_report.tsv")
        assert np.array_equal(
            [float(r[2]) for r in rows if r[0] == "ion"],
            report.response_peak)

    def test_gate_reproduces_n19_report(self, tmp_path):
        # at N=19 a report built from the in-memory winner, not the file
        # as written, differs in the last digits
        config = write_config(tmp_path, BASE_CONFIG.replace(
            "ion_count = 7", "ion_count = 19"))
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", config,
                         "--out", str(out)]) == 0
        gate_out = tmp_path / "gate"
        assert cli.main(["gate", "--config", config, "--out", str(gate_out),
                         "--schedule", str(out / "best_schedule.tsv")]) == 0
        assert ((gate_out / "report.tsv").read_bytes()
                == (out / "best_report.tsv").read_bytes())
        run = cli.parse_config(config)
        spectrum = md.axial_spectrum(cli.cached_crystal(run, "",
                                                        run.ion_count))
        schedule = gt.read_schedule(out / "best_schedule.tsv")
        _, rows = read_rows(out / "best_report.tsv")
        peak = np.array([float(r[2]) for r in rows if r[0] == "ion"])
        report = gt.gate_report(schedule, spectrum, run.pair)
        assert np.array_equal(peak, report.response_peak)


class TestConfigParsing:
    def test_every_key_non_default(self, tmp_path):
        text = """\
ion_count = 0x13
omega_r_hz = 0.25e6
omega_z_hz = 12e6
ion_mass_kg = 6.6e-26
charge_c = 3.2e-19
nbar = 0.5
n_series = 7, 0x13
stability_n_series = 19
beta_values = 30, 40.5
dmin_targets_m = 6e-6
pair = 1, 4
tau_s = 60e-6
segments = 7
mu_grid_points = 11
mu_below_hz = 0.05e6
mu_above_hz = 0.15e6
amplitude_bound_hz = 1e6
table = yes
pair_count = 3
omega_r_table_hz = 0.5e6
seed = 4
"""
        config = cli.parse_config(write_config(tmp_path, text))
        want = cli.RunConfig(
            ion_count=19, omega_r_hz=0.25e6, omega_z_hz=12e6,
            ion_mass_kg=6.6e-26, charge_c=3.2e-19, nbar=0.5,
            n_series=(7, 19), stability_n_series=(19,),
            beta_values=(30.0, 40.5), dmin_targets_m=(6e-6,), pair=(1, 4),
            tau_s=60e-6, segments=7, mu_grid_points=11, mu_below_hz=0.05e6,
            mu_above_hz=0.15e6, amplitude_bound_hz=1e6, table=True,
            pair_count=3, omega_r_table_hz=(0.5e6,), seed=4)
        assert config == want
        defaults = cli.RunConfig()
        for key in vars(want):
            assert getattr(want, key) != getattr(defaults, key), key
        assert all(type(v) is float for v in config.beta_values)
        assert all(type(v) is int for v in config.n_series)


class TestConfigErrors:
    def run(self, tmp_path, capsys, text, command="equilibrium"):
        config = write_config(tmp_path, text, name="bad.cfg")
        code = cli.main([command, "--config", config,
                         "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_unknown_key_line_number(self, tmp_path, capsys):
        text = BASE_CONFIG + "omega_rr_hz = 1.0\n"
        lineno = text.count("\n")
        code, err = self.run(tmp_path, capsys, text)
        assert code == 2
        assert ("line %d" % lineno) in err
        assert "omega_rr_hz" in err

    @pytest.mark.parametrize("key", ["output_dir", "cache_dir",
                                     "schedule_file"])
    def test_run_location_key_is_unknown(self, tmp_path, capsys, key):
        # where a run reads and writes is set by --out, --cache and
        # --schedule alone
        text = BASE_CONFIG + "%s = somewhere\n" % key
        code, err = self.run(tmp_path, capsys, text)
        assert code == 2
        assert ("line %d: unknown key '%s'" % (text.count("\n"), key)) in err

    def test_response_samples_key_is_unknown(self, tmp_path, capsys):
        # a report's sample count is fixed, not a setting
        text = BASE_CONFIG + "response_samples = 500\n"
        code, err = self.run(tmp_path, capsys, text, command="optimize")
        assert code == 2
        assert ("line %d: unknown key 'response_samples'"
                % text.count("\n")) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["", "a-file"])
    def test_unusable_out_directory(self, tmp_path, capsys, out):
        # an empty --out, or one naming a file, is a config error
        (tmp_path / "a-file").write_text("")
        config = write_config(tmp_path)
        code = cli.main(["equilibrium", "--config", config, "--out",
                         out and str(tmp_path / out)])
        assert code == 2
        assert "cannot create '--out' directory" in capsys.readouterr().err

    def test_cache_that_is_a_file(self, tmp_path, capsys):
        # a cache entry that cannot be written is a config error naming
        # the path, not a traceback
        cache = tmp_path / "a-file"
        cache.write_text("")
        code = cli.main(["equilibrium", "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "out"), "--cache",
                         str(cache)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: cannot write" in err and str(cache) in err
        assert cache.read_text() == ""

    @pytest.mark.parametrize("command", ["equilibrium", "modes"])
    def test_cache_that_is_a_file_fails_before_the_solve(
            self, tmp_path, capsys, monkeypatch, command):
        # the --cache directory is made with --out, before any crystal is
        # solved, and its failure names --cache
        def refuse(*args, **kwargs):
            raise AssertionError("crystal solved under an unusable cache")

        monkeypatch.setattr(cr, "solve_equilibrium", refuse)
        cache = tmp_path / "a-file"
        cache.write_text("")
        code = cli.main([command, "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "out"), "--cache",
                         str(cache)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'--cache'" in err and str(cache) in err
        assert cache.read_text() == ""

    def test_artifact_path_that_is_a_directory(self, tmp_path, capsys):
        # so is an artifact whose path holds a directory; no temporary
        # file is left behind
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        code = cli.main(["equilibrium", "--config", write_config(tmp_path),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: cannot write" in err
        assert str(out / "summary.json") in err
        assert sorted(os.listdir(out)) == ["crystal.tsv", "positions.tsv",
                                           "summary.json"]

    def test_missing_separator_line_number(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys,
                             "ion_count = 7\nomega_r_hz 0.2e6\n")
        assert code == 2
        assert "line 2" in err

    def test_duplicate_key(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys,
                             "ion_count = 7\nion_count = 9\n")
        assert code == 2
        assert "line 2" in err and "duplicate" in err

    def test_bad_value_type(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, BASE_CONFIG + "pair = 0, x\n")
        assert code == 2
        assert "pair" in err
        # a float in an integer list is a bad value too
        code, err = self.run(tmp_path, capsys, BASE_CONFIG.replace(
            "pair = 0, 3", "pair = 0, 1.5"))
        assert code == 2
        assert "pair" in err and "bad value" in err

    def test_negative_frequency(self, tmp_path, capsys):
        code, err = self.run(
            tmp_path, capsys,
            "ion_count = 7\nomega_r_hz = -1\nomega_z_hz = 10e6\n")
        assert code == 2
        assert "omega_r_hz" in err

    @pytest.mark.parametrize("value", ["-1", "-0.1", "nan", "inf",
                                       "0.1, 0.2"])
    def test_bad_nbar(self, tmp_path, capsys, value):
        # the config states one finite occupation >= 0; a bad one stops
        # the run before any output
        code, err = self.run(tmp_path, capsys,
                             BASE_CONFIG + "nbar = %s\n" % value,
                             command="optimize")
        assert code == 2
        assert "config error" in err and "'nbar'" in err
        assert not (tmp_path / "out").exists()

    def test_missing_required_field(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys,
                             "omega_r_hz = 0.2e6\nomega_z_hz = 10e6\n")
        assert code == 2
        assert "ion_count" in err

    def test_empty_n_series(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys,
                             "omega_r_hz = 0.2e6\nomega_z_hz = 10e6\n"
                             "n_series =\n", command="scaling")
        assert code == 2
        assert "n_series" in err

    @pytest.mark.parametrize("command, line, key", [
        ("scaling", "dmin_targets_m = -5e-6", "dmin_targets_m"),
        ("scaling", "n_series = 1, 7, 19", "n_series"),
        ("optimize", "omega_r_table_hz = -1", "omega_r_table_hz"),
        ("optimize", "mu_above_hz = 20e6", "mu_above_hz"),
        ("modes", "beta_values = -3", "beta_values")],
        ids=["negative-dmin-target", "one-ion-series", "negative-table-trap",
             "window-past-2-omega-z", "negative-beta"])
    def test_out_of_range_value(self, tmp_path, capsys, command, line, key):
        text = "".join(row + "\n" for row in BASE_CONFIG.splitlines()
                       if row.partition("=")[0].strip() != key) + line + "\n"
        code, err = self.run(tmp_path, capsys, text, command=command)
        assert code == 2
        assert "config error" in err and ("'%s'" % key) in err
        out = tmp_path / "out"
        assert not out.exists() or os.listdir(out) == []

    def test_window_rule_is_the_optimizers(self, tmp_path, capsys,
                                           monkeypatch):
        # the CLI states no window rule of its own: it asks the optimizer's,
        # before any crystal is solved
        def refuse(grid, omega_z):
            raise ValueError("refused")

        monkeypatch.setattr(cli.op, "check_mu_grid", refuse)
        monkeypatch.setattr(cli, "cached_crystal", refuse)
        code, err = self.run(tmp_path, capsys, BASE_CONFIG,
                             command="optimize")
        assert code == 2
        assert "'mu_below_hz' and 'mu_above_hz': refused" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["equilibrium",
                         "--config", str(tmp_path / "absent.cfg"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_gate_without_schedule(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, BASE_CONFIG, command="gate")
        assert code == 2
        assert "schedule" in err

    def test_truncated_schedule(self, tmp_path, capsys):
        schedule = dataclasses.replace(gt.PulseSchedule.uniform(
            50e-6, 2 * math.pi * np.array([0.1e6, -0.2e6, 0.15e6, 0.05e6]),
            2 * math.pi * 10.04e6), target_pair=(0, 3))
        path = tmp_path / "cut.tsv"
        gt.write_schedule(schedule, path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])  # a write cut off mid-table
        config = write_config(tmp_path, BASE_CONFIG)
        code = cli.main(["gate", "--config", config,
                         "--out", str(tmp_path / "out"),
                         "--schedule", str(path)])
        assert code == 2
        assert "malformed schedule file" in capsys.readouterr().err


    @pytest.mark.parametrize("edit", ["missing-row", "duplicate-row",
                                      "misaligned-row"])
    def test_inconsistent_schedule_rows(self, tmp_path, capsys, edit):
        # rows must list segments 0..P-1 in order, once each, every one
        # starting where the one before it ends; no row is filled in,
        # overwritten or moved
        schedule = dataclasses.replace(gt.PulseSchedule.uniform(
            50e-6, 2 * math.pi * np.array([0.1e6, -0.2e6, 0.15e6, 0.05e6]),
            2 * math.pi * 10.04e6), target_pair=(0, 3))
        path = tmp_path / "rows.tsv"
        gt.write_schedule(schedule, path)
        lines = path.read_text().splitlines()
        first = len(lines) - schedule.segment_count  # segment 0's row
        row = lines[first + 1].split("\t")
        if edit == "missing-row":
            del lines[first + 1]
        elif edit == "duplicate-row":
            lines.insert(first + 2, "\t".join(row[:3] + ["12345"]))
        else:
            lines[first + 1] = "\t".join([row[0], "1.3e-05"] + row[2:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            gt.read_schedule(path)
        config = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        code = cli.main(["gate", "--config", config, "--out", str(out),
                         "--schedule", str(path)])
        assert code == 2
        assert "malformed schedule file" in capsys.readouterr().err
        assert not (out / "report.tsv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_schedule(self, tmp_path, capsys, value):
        schedule = dataclasses.replace(gt.PulseSchedule.uniform(
            50e-6, 2 * math.pi * np.array([0.1e6, -0.2e6, 0.15e6, 0.05e6]),
            2 * math.pi * 10.04e6), target_pair=(0, 3))
        path = tmp_path / "bad.tsv"
        gt.write_schedule(schedule, path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\t" + value
        path.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        code = cli.main(["gate", "--config", config, "--out", str(out),
                         "--schedule", str(path)])
        assert code == 2
        assert "malformed schedule file" in capsys.readouterr().err
        assert not (out / "report.tsv").exists()


class TestNumericalFailure:
    def test_nonconvergence_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cr, "_MAX_ITER", 1)
        config = write_config(tmp_path, BASE_CONFIG.replace(
            "ion_count = 7", "ion_count = 19"))
        code = cli.main(["equilibrium", "--config", config,
                         "--out", str(tmp_path / "out"),
                         "--cache", str(tmp_path / "fresh-cache")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "no restart reached gradient tolerance" in err


class TestEdgeCases:
    def test_single_ion_equilibrium(self, tmp_path):
        config = write_config(
            tmp_path, "ion_count = 1\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\n")
        out = str(tmp_path / "out")
        assert cli.main(["equilibrium", "--config", config,
                         "--out", out]) == 0
        _, rows = read_rows(os.path.join(out, "positions.tsv"))
        fields = np.array([[float(v) for v in r[3:6]] for r in rows])
        assert fields.shape == (1, 3)  # u_x, u_y, lattice deviation
        np.testing.assert_allclose(fields, 0.0, atol=1e-12)
        # no pair distance exists, so the summary leaves spacing undefined
        assert load_summary(out)["spacing_m"] is None

    def test_unstable_axial_trap_flagged(self, tmp_path, capsys):
        """A squashed trap has no stable out-of-plane band: flag, exit 4."""
        config = write_config(
            tmp_path, "ion_count = 7\nomega_r_hz = 1e6\n"
                      "omega_z_hz = 0.5e6\nstability_n_series =\n")
        out = str(tmp_path / "out")
        assert cli.main(["modes", "--config", config, "--out", out]) == 4
        summary = load_summary(out)
        assert summary["stable"] is False
        assert "spectrum" in summary["flagged"]

    def test_unstable_beta_value_flagged(self, tmp_path):
        config = write_config(
            tmp_path, "ion_count = 7\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\nstability_n_series =\n"
                      "beta_values = 50, 0.5\n")
        out = str(tmp_path / "out")
        assert cli.main(["modes", "--config", config, "--out", out]) == 4
        summary = load_summary(out)
        assert summary["stable"] is True  # the run trap itself is fine
        assert summary["unstable_beta_values"] == [0.5]
        _, rows = read_rows(os.path.join(out, "com_gap.tsv"))
        assert [float(r[0]) for r in rows] == [50.0]

    def test_single_ion_gap_is_config_error(self, tmp_path, capsys):
        """One ion has no uniform-mode gap: a config error naming
        'beta_values', raised before any file is written."""
        config = write_config(
            tmp_path, "ion_count = 1\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\nbeta_values = 50\n")
        out = str(tmp_path / "out")
        assert cli.main(["modes", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'beta_values'" in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["equilibrium", "scaling", "modes",
                                         "optimize", "gate"])
    @pytest.mark.parametrize("ion_count", [1, 2])
    def test_smallest_crystals(self, tmp_path, capsys, ion_count, command):
        """Every subcommand at one and two ions ends in a documented exit
        code (scaling's series is the ion count too), never an escaped
        exception."""
        text = ("ion_count = %d\nomega_r_hz = 0.2e6\nomega_z_hz = 10e6\n"
                "stability_n_series = %d\nbeta_values = 50, 20\n"
                "mu_grid_points = 5\n" % (ion_count, ion_count))
        if command == "scaling":
            text += "n_series = %d\n" % ion_count
        config = write_config(tmp_path, text)
        schedule = str(tmp_path / "schedule.tsv")
        gt.write_schedule(dataclasses.replace(gt.PulseSchedule.uniform(
            50e-6, 2 * math.pi * np.array([1e4, -1e4, 2e4]),
            2 * math.pi * 10.04e6), target_pair=(0, 1)), schedule)
        out = str(tmp_path / "out")
        argv = [command, "--config", config, "--out", out]
        if command == "gate":
            argv += ["--schedule", schedule]
        code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert "config error" in capsys.readouterr().err
        else:
            assert os.path.exists(os.path.join(out, "summary.json"))

    def test_zero_amplitude_schedule(self, tmp_path):
        """A drive that never switches on leaves the pair unentangled."""
        config = write_config(tmp_path, BASE_CONFIG)
        schedule = dataclasses.replace(gt.PulseSchedule.uniform(
            50e-6, [0.0, 0.0, 0.0], 2 * math.pi * 10.04e6), target_pair=(0, 3))
        path = str(tmp_path / "idle.tsv")
        gt.write_schedule(schedule, path)
        out = str(tmp_path / "out")
        assert cli.main(["gate", "--config", config, "--out", out,
                         "--schedule", path]) == 0
        assert load_summary(out)["fidelity"] == pytest.approx(0.5)

    def test_single_point_grid(self, tmp_path):
        """A one-point detuning grid degenerates to a single evaluation."""
        config = write_config(
            tmp_path, "ion_count = 7\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\npair = 0, 3\nsegments = 4\n"
                      "mu_grid_points = 1\nmu_below_hz = 0.04e6\n")
        out = str(tmp_path / "out")
        assert cli.main(["optimize", "--config", config, "--out", out]) == 0
        summary = load_summary(out)
        assert summary["best_mu_hz"] == pytest.approx(10e6 - 0.04e6)
        meta, rows = read_rows(os.path.join(out, "scan.tsv"))
        assert len(rows) == 1
        assert meta["best_index"] == "0" and float(rows[0][1]) > 0

    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("gatelab")
        if exe is None:
            pytest.skip("console script not on PATH")
        config = write_config(
            tmp_path, "ion_count = 3\nomega_r_hz = 0.2e6\n"
                      "omega_z_hz = 10e6\n")
        out = str(tmp_path / "out")
        proc = subprocess.run(
            [exe, "equilibrium", "--config", config, "--out", out],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(out, "summary.json"))
