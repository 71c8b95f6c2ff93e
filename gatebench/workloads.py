"""The four benchmark workloads.

Constructing a workload builds its inputs (that is the set-up the benchmark
times); ``run(index)`` performs one round of the timed work and returns a
:class:`Round`; ``check(rounds)`` verifies every round's outputs with
:mod:`checker` and returns a list of :class:`Check`.  Only the
``oracle3`` inputs depend on the seed: the other three run the paper's fixed
configurations, and the program's own restart seed stays at its default 0.
"""

from dataclasses import dataclass
import filecmp
import json
import math
import os
from typing import NamedTuple

import numpy as np

from gatelab import cli, crystal, gate, modes, optimizer, oracle
from gatelab.errors import GatelabError

import checker

TWO_PI = 2.0 * math.pi
OMEGA_R_HZ = 0.2e6
OMEGA_Z_HZ = 10e6
NBAR = 0.1
SHELL_SERIES = (7, 19, 37, 61, 91, 127, 169, 217)
STABILITY_SERIES = (7, 19, 37, 61, 91, 127)


@dataclass
class Round:
    """One round: ``items`` completed out of ``attempted`` operations, of
    which ``failed`` failed; ``output`` is what the checks read."""

    items: int
    attempted: int
    failed: int
    output: object


class Check(NamedTuple):
    """One verification of the program's outputs.

    ``operation`` marks the check that completes a program operation: an
    equilibrium solve has only succeeded once its crystal is verified to be
    a minimum.  Its failure counts as a failed operation.  Every other check
    speaks to the correctness of operations that did not fail.
    """

    label: str
    ok: bool
    detail: str = ""
    operation: bool = False


def _write_config(path, **values):
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write("%s = %s\n" % (key, value))
    return path


def _relative(a, b):
    return abs(a - b) / abs(b)


class Scan127:
    """The library call ``detuning_scan`` at N=127 on the default grid."""

    def __init__(self, seed, workdir):
        trap = crystal.TrapConfig(127, omega_r=TWO_PI * OMEGA_R_HZ,
                                  omega_z=TWO_PI * OMEGA_Z_HZ,
                                  temperature_nbar=NBAR)
        self.crystal = crystal.solve_equilibrium(trap)
        self.spectrum = modes.axial_spectrum(self.crystal)
        pair = optimizer.default_pair_list(self.crystal)[0]
        self.problem = optimizer.OptimizationProblem(
            pair=pair, tau=50e-6, segment_count=5,
            mu_grid=optimizer.default_mu_grid(trap.omega_z), nbar=NBAR)

    def run(self, index):
        result = optimizer.detuning_scan(self.spectrum, self.problem)
        points = result.mu_grid.size
        # a grid point without a schedule is recorded as fidelity 0
        failed = int(np.count_nonzero(result.fidelities == 0.0))
        return Round(points, points, failed, result)

    def check(self, rounds):
        trap = self.crystal.config
        u = self.crystal.positions
        freqs, vectors = checker.axial_modes(u, trap.omega_r, trap.omega_z)
        out = [Check("scan127 crystal at rest",
                     np.abs(checker.energy_gradient(u)).max() <= 1e-9)]
        for r in rounds:
            result = r.output
            sched = result.best_schedule
            phi, fid = checker.schedule_fidelity(
                sched.times, sched.amplitudes, sched.mu, freqs, vectors,
                trap.omega_z, self.problem.pair, NBAR)
            edge = checker.band_edge_index(result.mu_grid, result.fidelities,
                                           freqs.max())
            edge_mu = result.mu_grid[edge] / TWO_PI if edge is not None else 0
            edge_f = result.fidelities[edge] if edge is not None else 0.0
            fids = result.fidelities
            out += [
                Check("scan127 best |phi| = pi/4",
                      abs(abs(phi) - math.pi / 4.0) <= 1e-9,
                      "phi=%.12f" % phi),
                Check("scan127 best fidelity recomputed",
                      abs(fid - result.best_fidelity) <= 1e-9,
                      "checker %.12f scan %.12f"
                      % (fid, result.best_fidelity)),
                Check("scan127 band-edge anchor 10.033 MHz",
                      abs(edge_mu - 10.033e6) <= 10e3 and edge_f >= 0.99,
                      "mu=%.4f MHz F=%.6f" % (edge_mu / 1e6, edge_f)),
                Check("scan127 fidelities in [0, 1]",
                      bool(np.all((fids >= 0.0) & (fids <= 1.0))), ""),
            ]
        return out


class Shells:
    """``gatelab scaling`` over N = 7..217, then ``gatelab modes``, sharing
    one fresh crystal cache per round."""

    BETA_VALUES = (10.0, 25.0, 50.0, 100.0)

    def __init__(self, seed, workdir):
        self.workdir = workdir
        common = dict(omega_r_hz=OMEGA_R_HZ, omega_z_hz=OMEGA_Z_HZ, nbar=NBAR)
        self.scaling_cfg = _write_config(
            os.path.join(workdir, "scaling.cfg"),
            n_series=", ".join(map(str, SHELL_SERIES)), **common)
        self.modes_cfg = _write_config(
            os.path.join(workdir, "modes.cfg"), ion_count=127,
            stability_n_series=", ".join(map(str, STABILITY_SERIES)),
            beta_values=", ".join(map(str, self.BETA_VALUES)), **common)

    def run(self, index):
        base = os.path.join(self.workdir, "round%d" % index)
        cache = os.path.join(base, "cache")
        codes = [
            cli.main(["scaling", "--config", self.scaling_cfg, "--out",
                      os.path.join(base, "scaling"), "--cache", cache]),
            cli.main(["modes", "--config", self.modes_cfg, "--out",
                      os.path.join(base, "modes"), "--cache", cache]),
        ]
        solved = sum(os.path.exists(self._cached(base, n))
                     for n in SHELL_SERIES)
        failed = sum(code != 0 for code in codes) + len(SHELL_SERIES) - solved
        return Round(solved, len(SHELL_SERIES) + len(codes), failed, base)

    @staticmethod
    def _cached(base, n):
        return os.path.join(base, "cache", "crystal-n%d-seed0.tsv" % n)

    def check(self, rounds):
        out = []
        for r in rounds:
            out += self._check_round(r.output)
        return out

    def _check_round(self, base):
        out = []
        positions = {n: checker.read_positions(self._cached(base, n))
                     for n in SHELL_SERIES}
        _, spacing_rows = checker.read_table(
            os.path.join(base, "scaling", "spacing_scan.tsv"))
        reported = {int(row[0]): float(row[1]) for row in spacing_rows}
        faults = []
        for n, u in positions.items():
            gmax = float(np.abs(checker.energy_gradient(u)).max())
            lowest = checker.lowest_nonrotational_eigenvalue(u)
            if gmax > 1e-9 or lowest <= 0.0:
                faults.append("N=%d max|grad| %.1e lowest curvature %.3f"
                              % (n, gmax, lowest))
            out.append(Check("shells N=%d u_min reported" % n,
                             _relative(reported[n], checker.min_spacing(u))
                             <= 1e-12))
        out.append(Check("shells crystals are minima at rest", not faults,
                         "; ".join(faults), operation=True))
        prefactor, exponent = checker.fit_power_law(
            SHELL_SERIES, [checker.min_spacing(positions[n])
                           for n in SHELL_SERIES])
        out.append(Check("shells u_min power law",
                         abs(exponent + 0.172) <= 0.03
                         and abs(prefactor - 1.995) <= 0.1,
                         "u_min = %.4f N^%.4f" % (prefactor, exponent)))

        _, beta_rows = checker.read_table(
            os.path.join(base, "modes", "critical_beta.tsv"))
        worst = max(abs(float(row[1]) - checker.critical_beta(
            positions[int(row[0])])) for row in beta_rows)
        out.append(Check("shells beta_c = sqrt(lambda_max L)",
                         len(beta_rows) == len(STABILITY_SERIES)
                         and worst <= 1e-6,
                         "worst %.1e" % worst))
        prefactor, exponent = checker.fit_power_law(
            STABILITY_SERIES, [checker.critical_beta(positions[n]) ** 2
                               for n in STABILITY_SERIES], shift=2.0)
        out.append(Check("shells beta_c^2 power law",
                         abs(prefactor - 1.073) <= 0.15
                         and abs(exponent - 0.55) <= 0.05,
                         "beta_c^2 = %.4f (N-2)^%.4f" % (prefactor, exponent)))

        u = positions[127]
        _, mode_rows = checker.read_table(
            os.path.join(base, "modes", "spectrum.tsv"))
        top = float(mode_rows[0][1])
        uniform = np.abs(np.array(mode_rows[0][2:], float) - 127 ** -0.5).max()
        out.append(Check("shells uniform mode at omega_z",
                         _relative(top, OMEGA_Z_HZ) <= 1e-10
                         and uniform <= 1e-9,
                         "top mode %.6f Hz" % top))
        _, gap_rows = checker.read_table(
            os.path.join(base, "modes", "com_gap.tsv"))
        worst = 0.0
        for row in gap_rows:
            beta = float(row[0])
            freqs, _ = checker.axial_modes(u, TWO_PI * OMEGA_R_HZ,
                                           TWO_PI * OMEGA_R_HZ * beta)
            worst = max(worst, _relative(float(row[1]),
                                         (freqs[0] - freqs[1]) / TWO_PI))
        out.append(Check("shells uniform-mode gaps",
                         len(gap_rows) == len(self.BETA_VALUES)
                         and worst <= 1e-9,
                         "worst relative error %.1e" % worst))
        return out


class CliTable:
    """``gatelab optimize`` with ``table = true`` on a coarse grid, fresh
    cache and output directory per round."""

    GRID_POINTS = 5
    PAIR_COUNT = 10
    OMEGA_R_TABLE_HZ = (0.2e6, 1.0e6)

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.config = _write_config(
            os.path.join(workdir, "optimize.cfg"), ion_count=127,
            omega_r_hz=OMEGA_R_HZ, omega_z_hz=OMEGA_Z_HZ, nbar=NBAR,
            tau_s=50e-6, segments=5, mu_grid_points=self.GRID_POINTS,
            table="true", pair_count=self.PAIR_COUNT,
            omega_r_table_hz=", ".join(map(str, self.OMEGA_R_TABLE_HZ)))

    def run(self, index):
        base = os.path.join(self.workdir, "round%d" % index)
        code = cli.main(["optimize", "--config", self.config, "--out",
                         os.path.join(base, "out"), "--cache",
                         os.path.join(base, "cache")])
        rows = []
        table = os.path.join(base, "out", "table.tsv")
        if os.path.exists(table):
            rows = checker.read_table(table)[1]
        scans = 1 + self.PAIR_COUNT * len(self.OMEGA_R_TABLE_HZ)
        expected = scans - 1
        failed = ((code != 0) + (expected - len(rows))
                  + sum(float(row[6]) <= 0.0 for row in rows))
        # operations: the command itself and each table row
        return Round(scans * self.GRID_POINTS, 1 + expected, failed,
                     (code, base))

    def check(self, rounds):
        out = []
        first_base = rounds[0].output[1]
        for r in rounds:
            code, base = r.output
            out += self._check_round(code, base)
            if base != first_base:
                same = all(filecmp.cmp(os.path.join(first_base, rel),
                                       os.path.join(base, rel), shallow=False)
                           for rel in self._artifacts(first_base))
                out.append(Check("cli_table artifacts byte-identical", same,
                                 os.path.basename(base)))
        return out

    @staticmethod
    def _artifacts(base):
        return sorted(os.path.join(sub, name) for sub in ("out", "cache")
                      for name in os.listdir(os.path.join(base, sub)))

    def _check_round(self, code, base):
        u = checker.read_positions(
            os.path.join(base, "cache", "crystal-n127-seed0.tsv"))
        _, rows = checker.read_table(os.path.join(base, "out", "table.tsv"))
        worst = 0.0
        for row in rows:
            l, n = int(row[1]), int(row[2])
            ell = checker.length_scale(TWO_PI * float(row[4]))
            worst = max(worst, _relative(float(row[3]),
                                         np.hypot(*(u[l] - u[n])) * ell))
        with open(os.path.join(base, "out", "summary.json")) as fh:
            summary = json.load(fh)
        times, amps, mu, pair = checker.read_schedule(
            os.path.join(base, "out", "best_schedule.tsv"))
        freqs, vectors = checker.axial_modes(u, TWO_PI * OMEGA_R_HZ,
                                             TWO_PI * OMEGA_Z_HZ)
        _, fid = checker.schedule_fidelity(times, amps, mu, freqs, vectors,
                                           TWO_PI * OMEGA_Z_HZ, pair, NBAR)
        expected = self.PAIR_COUNT * len(self.OMEGA_R_TABLE_HZ)
        return [
            Check("cli_table exit 0 and %d rows" % expected,
                  code == 0 and len(rows) == expected,
                  "exit %d, %d rows" % (code, len(rows))),
            Check("cli_table separations from positions", worst <= 1e-12,
                  "worst relative error %.1e" % worst),
            Check("cli_table best fidelity recomputed",
                  abs(fid - summary["best_fidelity"]) <= 1e-9,
                  "checker %.12f summary %.12f"
                  % (fid, summary["best_fidelity"])),
        ]


class Oracle3:
    """``oracle.evolve`` and ``fidelity_from_state`` on seeded random
    schedules for a 3-ion crystal, as in acceptance check 07."""

    SCHEDULES = 5
    PAIR = (0, 2)
    NBARS = (0.0, 0.1, 0.5)
    # Drive magnitude.  Check 07 draws up to 0.5 MHz, where some seeds push
    # the top Fock level past the oracle's limit; at 0.25 MHz it stays at
    # 2.3e-9 for every sign pattern and detuning.  A fixed magnitude also
    # fixes the oracle's step count to within 0.5 % across seeds.
    AMPLITUDE_HZ = 0.25e6

    def __init__(self, seed, workdir):
        self.trap = crystal.TrapConfig(3, omega_r=TWO_PI * 1e6,
                                       omega_z=TWO_PI * 5e6)
        self.crystal = crystal.solve_equilibrium(self.trap)
        self.spectrum = modes.axial_spectrum(self.crystal)
        # detunings stratified over the band +/- 0.3 MHz, 2-4 segments in
        # turn, each segment driven at +/- AMPLITUDE_HZ with a random sign
        rng = np.random.default_rng(seed)
        lo = self.spectrum.frequencies[-1] - TWO_PI * 0.3e6
        hi = self.spectrum.frequencies[0] + TWO_PI * 0.3e6
        self.schedules = []
        for i in range(self.SCHEDULES):
            amps = TWO_PI * self.AMPLITUDE_HZ * rng.choice([-1.0, 1.0],
                                                           2 + i % 3)
            mu = lo + (i + rng.uniform()) / self.SCHEDULES * (hi - lo)
            self.schedules.append(
                gate.PulseSchedule.uniform(0.4e-6, amps, float(mu)))

    def run(self, index):
        results = []
        failed = 0
        for sched in self.schedules:
            try:
                state = oracle.evolve(sched, self.spectrum, self.PAIR,
                                      nbar=max(self.NBARS))
                fids = [oracle.fidelity_from_state(state, nbar=nb)
                        for nb in self.NBARS]
            except GatelabError:
                failed += 1 + len(self.NBARS)
                fids = None
            results.append(fids)
        items = sum(f is not None for f in results)
        return Round(items, len(results) * (1 + len(self.NBARS)), failed,
                     results)

    def check(self, rounds):
        couplings = gate.drive_couplings(self.spectrum)
        freqs = self.spectrum.frequencies
        ref_freqs, ref_modes = checker.axial_modes(
            self.crystal.positions, self.trap.omega_r, self.trap.omega_z)
        closed, reference = [], []
        for sched in self.schedules:
            phi = gate.entangling_phase(sched, couplings, freqs, self.PAIR)
            al, an = (gate.mode_displacements(sched, couplings, freqs, ion)
                      for ion in self.PAIR)
            closed.append([gate.thermal_fidelity(phi, al, an, nb)
                           for nb in self.NBARS])
            phi, al, an = checker.gate_quantities(
                sched.times, sched.amplitudes, sched.mu, ref_freqs, ref_modes,
                self.trap.omega_z, self.PAIR)
            reference.append([checker.thermal_fidelity(phi, al, an, nb,
                                                       math.pi / 4.0)
                              for nb in self.NBARS])
        out = []
        for r in rounds:
            # schedules whose evolution failed are counted by run()
            kept = [i for i, f in enumerate(r.output) if f is not None]
            evolved = np.array([r.output[i] for i in kept])
            worst_closed = np.abs(evolved - np.array(closed)[kept]).max(
                initial=0.0)
            worst_ref = np.abs(evolved - np.array(reference)[kept]).max(
                initial=0.0)
            out += [
                Check("oracle3 oracle = gate.thermal_fidelity",
                      worst_closed <= 1e-6, "max |dF| %.1e" % worst_closed),
                Check("oracle3 oracle = checker quadrature",
                      worst_ref <= 1e-6, "max |dF| %.1e" % worst_ref),
            ]
        return out


WORKLOADS = {"scan127": Scan127, "shells": Shells, "cli_table": CliTable,
             "oracle3": Oracle3}
