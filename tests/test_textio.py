"""The shared table format: every artifact reads back to the same bytes.

Each format is written, read back and written again; the two files must
agree byte for byte, so nothing a reader drops or re-derives can hide.
The floats a reader returns are the ones written: bitwise for fields kept
in their in-memory unit, to 1 ulp for rad/s fields stored in Hz.
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


def _read_rows(path):
    meta, rows = read_rows(path)
    return list(meta.items()), rows


def _read_positions(path):
    return cr.Crystal(cli.read_positions(path)[1], CONFIG)


FORMATS = {
    "crystal": (cr.write_crystal, cr.read_crystal),
    "positions": (cli.write_positions, _read_positions),
    "spectrum": (md.write_spectrum, md.read_spectrum),
    "schedule": (gt.write_schedule, gt.read_schedule),
    "report": (gt.write_report, gt.read_report),
    "scan": (op.write_scan, op.read_scan),
    "scan_failed": (op.write_scan, op.read_scan),
    "table": (op.write_table, op.read_table),
    "rows": (_write_rows, _read_rows),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_write_read_write_is_byte_stable(artifacts, tmp_path, name):
    write, read = FORMATS[name]
    first = tmp_path / "first.tsv"
    second = tmp_path / "second.tsv"
    write(artifacts[name], first)
    write(read(first), second)
    assert second.read_bytes() == first.read_bytes()


# per format: fields stored in their in-memory unit, and rad/s fields
# stored in Hz (written as x / 2 pi, read back as h * 2 pi)
FIELDS = {
    "crystal": (("positions",), ()),
    "positions": (("positions",), ()),
    "spectrum": (("modes",), ("frequencies",)),
    "schedule": (("times",), ("amplitudes", "mu")),
    "scan": (("fidelities",), ("mu_grid", "max_amplitudes")),
    "table": (("separation_m", "fidelity"),
              ("omega_r", "mu_opt", "max_amplitude")),
}


def _field(obj, name):
    if isinstance(obj, list):  # table rows
        return np.array([getattr(row, name) for row in obj])
    return np.asarray(getattr(obj, name), dtype=float)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_readers_return_the_written_floats(artifacts, tmp_path, name):
    write, read = FORMATS[name]
    path = tmp_path / "artifact.tsv"
    write(artifacts[name], path)
    back = read(path)
    exact, hz = FIELDS[name]
    for field in exact:
        assert (_field(back, field).tobytes()
                == _field(artifacts[name], field).tobytes()), field
    for field in hz:
        want = _field(artifacts[name], field)
        error = np.abs(_field(back, field) - want)
        assert np.all(error <= np.spacing(np.abs(want))), field


def test_failed_scan_reads_back_infeasible(artifacts, tmp_path):
    path = tmp_path / "scan.tsv"
    op.write_scan(artifacts["scan_failed"], path)
    back = op.read_scan(path)
    assert back.best_index == -1
    assert not back.feasible and back.best_mu is None


def test_read_rows_layout(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("# title line\n# b\t2\n\n# a\t x\ty \n# note\n"
                    "1\t2.5\n3\t\n")
    meta, rows = read_rows(path)
    # keys keep file order; values are stripped; blank and tabless '#'
    # lines are skipped; empty trailing fields survive
    assert list(meta.items()) == [("b", "2"), ("a", "x\ty")]
    assert rows == [["1", "2.5"], ["3", ""]]
