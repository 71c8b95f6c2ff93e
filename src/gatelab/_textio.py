"""The one plain-text table format, and atomic file writes.

Every table file is a '# title' line, '# key<TAB>value' metadata lines (one
of them names the ``columns``), then one tab-separated row per record.
:func:`write_rows` and :func:`read_rows` are the only writer and reader of
that format.  Each artifact module maps its objects to metadata pairs and
string rows; only the crystal cache and pulse schedules are read back.

Every float goes through :func:`fmt`, the one float format: a column in
its in-memory unit reads back bitwise, a rad/s column stored in Hz to 1 ulp.
"""

import json
import os
import tempfile


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` via a temp file + rename in the same dir."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, record):
    """Serialise ``record`` deterministically (sorted keys) and write it."""
    atomic_write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def fmt(value):
    """17 significant digits: any binary64 value reads back bitwise."""
    return "%.17g" % float(value)


def write_rows(path, title, meta, rows):
    """Write one table.

    ``meta`` is an ordered sequence of (key, value) pairs, written as
    '# key<TAB>value' lines in that order; ``rows`` holds lists of
    preformatted string fields.
    """
    lines = ["# " + title]
    lines.extend("# %s\t%s" % (key, value) for key, value in meta)
    lines.extend("\t".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_rows(path):
    """Parse a file written by :func:`write_rows`.

    Returns (meta dict, list of string-field rows).  Blank lines and '#'
    lines without a tab (such as the title) are skipped.
    """
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                key, tab, value = line[1:].strip().partition("\t")
                if tab:
                    meta[key.strip()] = value.strip()
                continue
            rows.append(line.split("\t"))
    return meta, rows
