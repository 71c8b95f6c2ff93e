"""Command-line front end: one subcommand per study artifact.

``gatelab <equilibrium|scaling|modes|gate|optimize> --config <path>``
with optional ``--out <dir>`` (default ``gatelab-out``) and ``--cache
<dir>`` (no cache without it); ``gate`` also needs ``--schedule <path>``,
whose target pair a ``pair`` key may repeat but not contradict.  These
flags alone set where a run reads and writes; the config alone sets its
numbers, the restart ``seed`` included.

A flat ``key = value`` config file drives every subcommand; unknown or
malformed keys are rejected with their line number, and a design key
left out takes the library's default.  Every run emits tab separated
tables with '#' header metadata plus a deterministic ``summary.json``;
an identical config gives byte-identical files at the BLAS thread count
this module pins (:func:`gatelab._default_one_blas_thread`): the crystal
rounds differently at another, and every artifact downstream follows.
Solved crystals can be cached (``--cache``) and are re-dressed for the
requested trap on reuse, which is exact because the dimensionless planar
equilibrium depends only on the ion count.  Only an entry's positions and
trap block are read back; an entry that does not read back whole, holds
another ion count or is not at rest is solved again.

Exit codes: 0 success, 2 config error (an unwritable path included),
3 numerical failure, 4 instability flagged.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

from . import _default_one_blas_thread
_default_one_blas_thread()  # before the first import that loads numpy

import numpy as np

from . import crystal as cr
from . import gate as gt
from . import modes as md
from . import optimizer as op
from .errors import (ConfigError, GatelabError, InsufficientPoints,
                     UnstableSpectrum)
from .gate import TWO_PI
from ._textio import atomic_write_json, fmt, write_rows


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    """Typed view of one flat config file (frequencies in plain Hz).

    Each field is one config key; its annotation picks the parser.
    """

    ion_count: int = 0
    omega_r_hz: float = 0.0
    omega_z_hz: float = 0.0
    ion_mass_kg: float = cr.MASS_BE9
    charge_c: float = cr.ELEMENTARY_CHARGE
    nbar: float = cr.NBAR
    n_series: tuple[int, ...] = cr.CLOSED_SHELL_SERIES
    stability_n_series: tuple[int, ...] = (7, 19, 37, 61, 91, 127)
    beta_values: tuple[float, ...] = ()
    dmin_targets_m: tuple[float, ...] = (5e-6, 20e-6)
    pair: tuple[int, ...] = ()
    tau_s: float = 50e-6
    segments: int = op.SEGMENT_COUNT
    mu_grid_points: int = op.MU_GRID_POINTS
    mu_below_hz: float = op.MU_BELOW_HZ
    mu_above_hz: float = op.MU_ABOVE_HZ
    amplitude_bound_hz: float = 0.0
    table: bool = False
    pair_count: int = op.PAIR_COUNT
    omega_r_table_hz: tuple[float, ...] = (0.2e6, 1.0e6)
    seed: int = 0


def _parse_int(text):
    return int(text, 0)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean (true/false)")


def _parse_list(text, item):
    if not text.strip():
        return ()
    return tuple(item(part.strip()) for part in text.split(","))


_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    bool: _parse_bool,
    tuple[int, ...]: lambda text: _parse_list(text, _parse_int),
    tuple[float, ...]: lambda text: _parse_list(text, _parse_float),
}

_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}

_POSITIVE_KEYS = ("omega_r_hz", "omega_z_hz", "ion_mass_kg", "charge_c",
                  "tau_s", "segments", "mu_grid_points", "pair_count")


def parse_config(path):
    """Parse and validate a flat key=value config file.

    Raises ConfigError with the offending line number for unknown keys,
    duplicate keys, and unparseable values.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError("line %d: unknown key '%s'" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key '%s'" % (lineno, key))
        try:
            values[key] = _KEY_PARSERS[key](text)
        except ValueError as exc:
            raise ConfigError("line %d: bad value for '%s': %s"
                              % (lineno, key, exc))
    config = RunConfig(**values)
    for key in _POSITIVE_KEYS + ("ion_count",):
        if key in values and not (values[key] > 0):
            raise ConfigError("'%s' must be positive" % key)
    try:
        cr.check_nbar(config.nbar)
    except ValueError as exc:
        raise ConfigError("'nbar': %s" % exc)
    if config.amplitude_bound_hz < 0:
        raise ConfigError("'amplitude_bound_hz' must be non-negative")
    if config.pair and len(config.pair) != 2:
        raise ConfigError("'pair' needs exactly two ion indices")
    for key, low in (("n_series", 2), ("stability_n_series", 1)):
        if any(n < low for n in getattr(config, key)):
            raise ConfigError("'%s' needs ion numbers >= %d" % (key, low))
    for key in ("beta_values", "dmin_targets_m", "omega_r_table_hz"):
        if not all(v > 0 for v in getattr(config, key)):
            raise ConfigError("every element of '%s' must be positive" % key)
    if config.seed < 0:
        raise ConfigError("'seed' must be non-negative")
    return config


def _require(config, *keys):
    for key in keys:
        if not (getattr(config, key) > 0):
            raise ConfigError("'%s' is required by this subcommand" % key)


def _check_pair(pair, ion_count):
    """``pair`` checked by :func:`gate.check_pair`; a bad one is a
    ConfigError that names 'pair'."""
    try:
        return gt.check_pair(pair, ion_count, name="'pair'")
    except ValueError as exc:
        raise ConfigError(str(exc))


def trap_config(config, ion_count):
    return cr.TrapConfig(
        ion_count, omega_r=TWO_PI * config.omega_r_hz,
        omega_z=TWO_PI * config.omega_z_hz, ion_mass=config.ion_mass_kg,
        charge=config.charge_c, temperature_nbar=config.nbar)


# ---------------------------------------------------------------------------
# crystal cache

def cached_crystal(config, cache_dir, ion_count):
    """Solve (or reload) the equilibrium for ``ion_count`` ions.

    The cache key is (ion count, seed): the dimensionless pattern depends
    on nothing else, and a cached crystal is re-dressed exactly for the
    requested trap.  An entry that is missing, that :func:`read_crystal`
    rejects (rows missing, header cut, positions not at rest) or that
    holds another ion count is a miss: the crystal is solved again and
    the entry overwritten.
    """
    trap = trap_config(config, ion_count)
    if cache_dir:
        path = os.path.join(
            cache_dir, "crystal-n%d-seed%d.tsv" % (ion_count, config.seed))
        try:
            return cr.with_trap(cr.read_crystal(path), trap)
        except (OSError, KeyError, IndexError, ValueError):
            pass  # a miss; with_trap raises ValueError on another ion count
        crystal = cr.solve_equilibrium(trap, rng_seed=config.seed)
        cr.write_crystal(crystal, path)
        return crystal
    return cr.solve_equilibrium(trap, rng_seed=config.seed)


# ---------------------------------------------------------------------------
# tables

def _json_float(value):
    value = float(value)
    return value if math.isfinite(value) else None


def lattice_deviation(crystal):
    """Per-ion distance to the nearest ideal-lattice site, dimensionless."""
    seed = cr.canonical_orientation(cr.triangular_seed(crystal.ion_count))
    u = crystal.positions
    d2 = ((u[:, None, :] - seed[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def write_positions(crystal, path):
    """Position table: metres, dimensionless, and lattice deviation."""
    deviation = lattice_deviation(crystal)
    ell = crystal.length_scale_ell
    meta = [("ion_count", crystal.ion_count),
            ("length_scale_m", fmt(ell)),
            ("u_min", fmt(crystal.u_min)),
            ("spacing_m", fmt(crystal.spacing_metres())),
            ("energy", fmt(crystal.energy)),
            ("columns", "ion\tx_m\ty_m\tu_x\tu_y\tlattice_deviation_u")]
    rows = []
    for j in range(crystal.ion_count):
        x, y = crystal.positions[j]
        rows.append([str(j), fmt(x * ell), fmt(y * ell),
                     fmt(x), fmt(y), fmt(deviation[j])])
    write_rows(path, "gatelab ion positions", meta, rows)


# ---------------------------------------------------------------------------
# subcommands

def cmd_equilibrium(config, out_dir, cache_dir, args):
    _require(config, "ion_count", "omega_r_hz", "omega_z_hz")
    crystal = cached_crystal(config, cache_dir, config.ion_count)
    crystal_path = os.path.join(out_dir, "crystal.tsv")
    positions_path = os.path.join(out_dir, "positions.tsv")
    cr.write_crystal(crystal, crystal_path)
    write_positions(crystal, positions_path)
    summary = {
        "command": "equilibrium",
        "ion_count": crystal.ion_count,
        "u_min": _json_float(crystal.u_min),
        "spacing_m": _json_float(crystal.spacing_metres()),
        "energy": _json_float(crystal.energy),
        "residual_gradient_norm": _json_float(crystal.residual_gradient_norm),
        "max_lattice_deviation_u": _json_float(
            lattice_deviation(crystal).max()),
        "files": ["crystal.tsv", "positions.tsv"],
    }
    return 0, summary


def cmd_scaling(config, out_dir, cache_dir, args):
    _require(config, "omega_r_hz", "omega_z_hz")
    if not config.n_series:
        raise ConfigError("'n_series' must not be empty")
    crystals = {n: cached_crystal(config, cache_dir, n)
                for n in config.n_series}
    points = [(n, crystals[n].u_min) for n in config.n_series]
    ell = cr.length_scale(trap_config(config, 1))
    spacing_rows = [[str(n), fmt(u), fmt(u * ell)] for n, u in points]
    meta = [("omega_r_hz", fmt(config.omega_r_hz))]
    fit = None
    if len(points) >= 3:
        fit = cr.fit_power_law(points)
        meta += [("fit_prefactor", fmt(fit.prefactor)),
                 ("fit_exponent", fmt(fit.exponent)),
                 ("fit_rms_log_residual", fmt(fit.rms_log_residual))]
    meta.append(("columns", "n\tu_min\td_min_m"))
    write_rows(os.path.join(out_dir, "spacing_scan.tsv"),
               "gatelab minimum-spacing scan", meta, spacing_rows)

    required_rows = []
    for n in config.n_series:
        for target in config.dmin_targets_m:
            omega = cr.omega_r_for_spacing(crystals[n], target)
            required_rows.append([str(n), fmt(target), fmt(omega / TWO_PI)])
    write_rows(os.path.join(out_dir, "required_omega_r.tsv"),
               "gatelab radial frequency for target spacing",
               [("targets_m", ",".join(fmt(t) for t in config.dmin_targets_m)),
                ("columns", "n\td_min_target_m\tomega_r_hz")],
               required_rows)
    summary = {
        "command": "scaling",
        "n_series": list(config.n_series),
        "fit_prefactor": _json_float(fit.prefactor) if fit else None,
        "fit_exponent": _json_float(fit.exponent) if fit else None,
        "fit_rms_log_residual": (_json_float(fit.rms_log_residual)
                                 if fit else None),
        "files": ["spacing_scan.tsv", "required_omega_r.tsv"],
    }
    return 0, summary


def cmd_modes(config, out_dir, cache_dir, args):
    _require(config, "ion_count", "omega_r_hz", "omega_z_hz")
    if config.beta_values and config.ion_count < 2:
        raise ConfigError("'beta_values' needs ion_count >= 2: the "
                          "uniform-mode gap is between two modes")
    flagged = []
    files = []
    summary = {"command": "modes", "ion_count": config.ion_count}
    crystal = cached_crystal(config, cache_dir, config.ion_count)
    try:
        spectrum = md.axial_spectrum(crystal)
        md.write_spectrum(spectrum, os.path.join(out_dir, "spectrum.tsv"))
        files.append("spectrum.tsv")
        low, high = spectrum.band_edges()
        summary["band_low_hz"] = _json_float(low / TWO_PI)
        summary["band_high_hz"] = _json_float(high / TWO_PI)
        if crystal.ion_count >= 2:
            freqs = spectrum.frequencies
            summary["com_gap_hz"] = _json_float((freqs[0] - freqs[1]) / TWO_PI)
        summary["stable"] = True
    except UnstableSpectrum as exc:
        summary["stable"] = False
        summary["instability"] = str(exc)
        flagged.append("spectrum")

    if config.stability_n_series:
        rows = []
        points = []
        for n in config.stability_n_series:
            shell = (crystal if n == config.ion_count
                     else cached_crystal(config, cache_dir, n))
            beta_c = md.critical_beta(shell)
            rows.append([str(n), fmt(beta_c), fmt(beta_c ** 2)])
            if n > 2:
                points.append((n, beta_c ** 2))
        meta = []
        if len(points) >= 3:
            fit = cr.fit_power_law(points, shift=2.0)
            meta = [("fit_prefactor", fmt(fit.prefactor)),
                    ("fit_exponent", fmt(fit.exponent)),
                    ("fit_shift", fmt(fit.shift))]
            summary["beta_c_fit_prefactor"] = _json_float(fit.prefactor)
            summary["beta_c_fit_exponent"] = _json_float(fit.exponent)
        meta.append(("columns", "n\tbeta_c\tbeta_c_squared"))
        write_rows(os.path.join(out_dir, "critical_beta.tsv"),
                   "gatelab critical anisotropy scan", meta, rows)
        files.append("critical_beta.tsv")

    if config.beta_values:
        rows = []
        skipped = []
        for beta in config.beta_values:
            try:
                gap = md.com_gap(crystal, beta=beta)
            except UnstableSpectrum:
                skipped.append(beta)
                continue
            omega_z_hz = beta * config.omega_r_hz
            rows.append([fmt(beta), fmt(gap / TWO_PI), fmt(omega_z_hz)])
        write_rows(os.path.join(out_dir, "com_gap.tsv"),
                   "gatelab uniform-mode gap versus anisotropy",
                   [("ion_count", config.ion_count),
                    ("columns", "beta\tcom_gap_hz\tomega_z_hz")], rows)
        files.append("com_gap.tsv")
        if skipped:
            summary["unstable_beta_values"] = [
                _json_float(b) for b in skipped]
            flagged.append("com_gap")

    summary["files"] = files
    summary["flagged"] = flagged
    return (4 if flagged else 0), summary


def cmd_gate(config, out_dir, cache_dir, args):
    _require(config, "ion_count", "omega_r_hz", "omega_z_hz")
    if not args.schedule:
        raise ConfigError("gate needs a schedule: pass --schedule")
    try:
        schedule = gt.read_schedule(args.schedule)
    except OSError as exc:
        raise ConfigError("cannot read schedule file: %s" % exc)
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError("malformed schedule file %s: %s"
                          % (args.schedule, exc))
    pair = schedule.target_pair or config.pair
    if not pair:
        raise ConfigError("schedule has no target pair; set 'pair'")
    if config.pair and pair != config.pair:
        raise ConfigError("'pair' = %d, %d conflicts with the schedule's "
                          "target pair %d, %d" % (config.pair + pair))
    pair = _check_pair(pair, config.ion_count)
    crystal = cached_crystal(config, cache_dir, config.ion_count)
    spectrum = md.axial_spectrum(crystal)
    report = gt.gate_report(schedule, spectrum, pair)
    gt.write_report(report, os.path.join(out_dir, "report.tsv"))
    summary = {
        "command": "gate",
        "pair": [int(pair[0]), int(pair[1])],
        "fidelity": _json_float(report.fidelity),
        "entangling_phase_rad": _json_float(report.phi),
        "residual_norm": _json_float(report.residual_norm),
        "max_amplitude_hz": _json_float(report.max_amplitude / TWO_PI),
        "files": ["report.tsv"],
    }
    return 0, summary


def cmd_optimize(config, out_dir, cache_dir, args):
    _require(config, "ion_count", "omega_r_hz", "omega_z_hz")
    pair = config.pair and _check_pair(config.pair, config.ion_count)
    omega_z = TWO_PI * config.omega_z_hz
    try:
        grid = op.check_mu_grid(op.default_mu_grid(
            omega_z, config.mu_grid_points, config.mu_below_hz,
            config.mu_above_hz), omega_z)
    except ValueError as exc:
        raise ConfigError("'mu_below_hz' and 'mu_above_hz': %s" % exc)
    crystal = cached_crystal(config, cache_dir, config.ion_count)
    spectrum = md.axial_spectrum(crystal)
    try:  # every pair the run needs, picked before any output
        pairs = op.default_pair_list(
            crystal, config.pair_count if config.table else 1)
    except InsufficientPoints as exc:
        raise ConfigError("'pair_count': %s at ion_count = %d"
                          % (exc, config.ion_count))
    pair = pair or pairs[0]
    bound = (TWO_PI * config.amplitude_bound_hz
             if config.amplitude_bound_hz > 0 else None)
    problem = op.OptimizationProblem(
        pair=pair, tau=config.tau_s, segment_count=config.segments,
        mu_grid=grid, amplitude_bound=bound)
    result = op.detuning_scan(spectrum, problem)
    op.write_scan(result, os.path.join(out_dir, "scan.tsv"))
    files = ["scan.tsv"]
    summary = {
        "command": "optimize",
        "pair": [int(pair[0]), int(pair[1])],
        "tau_s": _json_float(config.tau_s),
        "segments": config.segments,
        "feasible": result.feasible,
    }
    code = 0
    if result.feasible:
        # report the schedule as shipped, so `gate --schedule` reproduces it
        schedule_path = os.path.join(out_dir, "best_schedule.tsv")
        gt.write_schedule(result.best_schedule, schedule_path)
        report = gt.gate_report(gt.read_schedule(schedule_path), spectrum,
                                pair)
        gt.write_report(report, os.path.join(out_dir, "best_report.tsv"))
        files += ["best_schedule.tsv", "best_report.tsv"]
        edge = op.band_edge_optimum(result, spectrum.frequencies.max())
        summary.update({
            "best_mu_hz": _json_float(result.best_mu / TWO_PI),
            "best_fidelity": _json_float(result.best_fidelity),
            "best_max_amplitude_hz": _json_float(
                result.best_schedule.max_amplitude / TWO_PI),
            "band_edge_mu_hz": _json_float(result.mu_grid[edge] / TWO_PI),
            "band_edge_fidelity": _json_float(result.fidelities[edge]),
            "band_edge_max_amplitude_hz": _json_float(
                result.max_amplitudes[edge] / TWO_PI),
        })
    else:
        code = 3
    if config.table:
        rows = op.table_one(crystal, problem, pairs, [
            TWO_PI * v for v in config.omega_r_table_hz])
        op.write_table(rows, os.path.join(out_dir, "table.tsv"))
        files.append("table.tsv")
        summary["diagnostics"] = {"table": {"infeasible_rows": [
            {"rank": row.rank, "pair": list(row.pair),
             "omega_r_hz": _json_float(row.omega_r / TWO_PI)}
            for row in rows if not row.mu_opt]}}
    summary["files"] = files
    return code, summary


_COMMANDS = {
    "equilibrium": (cmd_equilibrium,
                    "solve the planar equilibrium and emit positions"),
    "scaling": (cmd_scaling,
                "minimum-spacing series, power-law fit, trap targets"),
    "modes": (cmd_modes,
              "axial spectrum, critical anisotropy, uniform-mode gap"),
    "gate": (cmd_gate, "evaluate a pulse schedule into a gate report"),
    "optimize": (cmd_optimize,
                 "scan detunings for the best segmented drive"),
}


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gatelab",
        description="Planar ion crystals, axial modes, and segmented "
                    "phase-gate design.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True,
                       help="flat key=value run configuration")
        p.add_argument("--out", default="gatelab-out",
                       help="output directory (default: gatelab-out)")
        p.add_argument("--cache", default="",
                       help="crystal cache directory (unset disables "
                            "caching)")
        if name == "gate":
            p.add_argument("--schedule", default="",
                           help="pulse schedule file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot create '--out' directory: %s" % exc)
        try:
            if args.cache:
                os.makedirs(args.cache, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot write to '--cache': %s" % exc)
        try:
            code, summary = _COMMANDS[args.command][0](config, args.out,
                                                       args.cache, args)
            summary["seed"] = config.seed
            atomic_write_json(os.path.join(args.out, "summary.json"), summary)
        except OSError as exc:
            if exc.filename is None:  # not a file operation
                raise
            raise ConfigError("cannot write an output or cache file: %s" % exc)
        return code
    except ConfigError as exc:
        print("gatelab: config error: %s" % exc, file=sys.stderr)
        return 2
    except UnstableSpectrum as exc:
        print("gatelab: instability: %s" % exc, file=sys.stderr)
        return 4
    except (GatelabError, np.linalg.LinAlgError) as exc:
        print("gatelab: numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
