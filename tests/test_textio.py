"""The shared table format: every artifact is one table of floats as held.

Each artifact is written, parsed by ``read_rows`` and written again by
``write_rows``; the two files must agree byte for byte, so every artifact
is exactly the one format and the parse drops nothing.  The two artifacts
read back into objects, the crystal cache and the schedule, also pass
their own reader and writer unchanged.  The floats in a file are the ones
in memory: bitwise for fields kept in their in-memory unit, to 1 ulp for
rad/s fields stored in Hz.
"""

import numpy as np
import pytest

from gatelab import cli
from gatelab import crystal as cr
from gatelab import gate as gt
from gatelab import modes as md
from gatelab import optimizer as op
from gatelab._textio import fmt, read_rows, write_rows

TWO_PI = 2 * np.pi
WZ = TWO_PI * 10e6
GRID = np.linspace(WZ - TWO_PI * 0.02e6, WZ + TWO_PI * 0.06e6, 7)
CONFIG = cr.TrapConfig(7, omega_r=TWO_PI * 0.2e6, omega_z=WZ,
                       temperature_nbar=0.25)


@pytest.fixture(scope="module")
def artifacts():
    crystal = cr.solve_equilibrium(CONFIG)
    spectrum = md.axial_spectrum(crystal)
    scan = op.detuning_scan(spectrum, op.OptimizationProblem(
        pair=(0, 3), tau=50e-6, segment_count=4, mu_grid=GRID))
    # a bound no drive can meet: every grid point fails
    failed = op.detuning_scan(spectrum, op.OptimizationProblem(
        pair=(0, 3), tau=50e-6, segment_count=4, mu_grid=GRID,
        amplitude_bound=1.0))
    table = op.table_one(
        crystal, op.OptimizationProblem(pair=(0, 3), tau=50e-6,
                                        segment_count=4, mu_grid=GRID),
        op.default_pair_list(crystal, 1), (TWO_PI * 0.2e6, TWO_PI * 1.0e6))
    rows = ([("omega_r_hz", fmt(0.2e6)), ("fit_exponent", fmt(-1 / 7.0)),
             ("columns", "n\tu_min")],
            [["7", fmt(1 / 3.0)], ["19", fmt(2 / 7.0)]])
    return {"crystal": crystal, "positions": crystal, "spectrum": spectrum,
            "schedule": scan.best_schedule,
            "report": gt.gate_report(scan.best_schedule, spectrum, (0, 3)),
            "scan": scan, "scan_failed": failed, "table": table,
            "rows": rows}


def _write_rows(obj, path):
    write_rows(path, "gatelab test table", *obj)


WRITERS = {
    "crystal": cr.write_crystal,
    "positions": cli.write_positions,
    "spectrum": md.write_spectrum,
    "schedule": gt.write_schedule,
    "report": gt.write_report,
    "scan": op.write_scan,
    "scan_failed": op.write_scan,
    "table": op.write_table,
    "rows": _write_rows,
}

# the artifacts that come back in: the crystal cache and the schedule of
# ``gatelab gate --schedule``
READERS = {"crystal": cr.read_crystal, "schedule": gt.read_schedule}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_read_write_is_byte_stable(artifacts, tmp_path, name):
    first = tmp_path / "first.tsv"
    second = tmp_path / "second.tsv"
    WRITERS[name](artifacts[name], first)
    title = first.read_text().split("\n", 1)[0][len("# "):]
    meta, rows = read_rows(first)
    write_rows(second, title, meta.items(), rows)
    assert second.read_bytes() == first.read_bytes()
    if name in READERS:
        WRITERS[name](READERS[name](first), second)
        assert second.read_bytes() == first.read_bytes()


def _floats(rows, columns):
    """The fields of ``columns`` in every row, parsed as floats."""
    return np.array([[float(row[c]) for c in columns] for row in rows])


# per format: (read, in memory, stored in Hz) triples; a Hz field is
# written as x / 2 pi and read back as h * 2 pi
def _crystal(crystal, path):
    return [(cr.read_crystal(path).positions, crystal.positions, False)]


def _positions(crystal, path):
    return [(_floats(read_rows(path)[1], (3, 4)), crystal.positions, False)]


def _spectrum(spectrum, path):
    rows = read_rows(path)[1]
    modes = _floats(rows, range(2, 2 + spectrum.mode_count))
    return [(_floats(rows, (1,))[:, 0] * TWO_PI, spectrum.frequencies, True),
            (modes, spectrum.modes, False)]


def _schedule(schedule, path):
    back = gt.read_schedule(path)
    return [(back.times, schedule.times, False),
            (back.amplitudes, schedule.amplitudes, True),
            (back.mu, schedule.mu, True)]


def _scan(result, path):
    mu_hz, fidelity, amplitude_hz = _floats(read_rows(path)[1], (0, 1, 2)).T
    return [(fidelity, result.fidelities, False),
            (mu_hz * TWO_PI, result.mu_grid, True),
            (amplitude_hz * TWO_PI, result.max_amplitudes, True)]


def _table(table, path):
    separation, omega_r_hz, mu_hz, fidelity, amplitude_hz = _floats(
        read_rows(path)[1], range(3, 8)).T
    held = {name: np.array([getattr(row, name) for row in table])
            for name in ("separation_m", "omega_r", "mu_opt", "fidelity",
                         "max_amplitude")}
    return [(separation, held["separation_m"], False),
            (fidelity, held["fidelity"], False),
            (omega_r_hz * TWO_PI, held["omega_r"], True),
            (mu_hz * TWO_PI, held["mu_opt"], True),
            (amplitude_hz * TWO_PI, held["max_amplitude"], True)]


FIELDS = {"crystal": _crystal, "positions": _positions,
          "spectrum": _spectrum, "schedule": _schedule, "scan": _scan,
          "table": _table}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_readers_return_the_written_floats(artifacts, tmp_path, name):
    path = tmp_path / "artifact.tsv"
    WRITERS[name](artifacts[name], path)
    for index, (read, want, in_hz) in enumerate(
            FIELDS[name](artifacts[name], path)):
        read = np.asarray(read, dtype=float)
        want = np.asarray(want, dtype=float)
        if in_hz:
            error = np.abs(read - want)
            assert np.all(error <= np.spacing(np.abs(want))), index
        else:
            assert read.tobytes() == want.tobytes(), index


def test_failed_scan_reads_back_infeasible(artifacts, tmp_path):
    # the file marks a scan with no feasible point by its headers and a
    # curve of zeros
    path = tmp_path / "scan.tsv"
    op.write_scan(artifacts["scan_failed"], path)
    meta, rows = read_rows(path)
    assert meta["best_index"] == "-1"
    assert meta["best_mu_hz"] == "0"
    assert meta["best_fidelity"] == "0"
    assert not np.any(_floats(rows, (1,)))


def test_read_rows_layout(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("# title line\n# b\t2\n\n# a\t x\ty \n# note\n"
                    "1\t2.5\n3\t\n")
    meta, rows = read_rows(path)
    # keys keep file order; values are stripped; blank and tabless '#'
    # lines are skipped; empty trailing fields survive
    assert list(meta.items()) == [("b", "2"), ("a", "x\ty")]
    assert rows == [["1", "2.5"], ["3", ""]]
