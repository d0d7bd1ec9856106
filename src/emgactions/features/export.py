"""CSV import/export for feature matrices and the feature registry.

Floats are written with repr so a read-back matrix is bit-identical, and
rows use '\\n' line endings so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from emgactions.dataset import not_utf8_error, read_lines
from emgactions.features.registry import FeatureRegistry

META_COLUMNS = ("subject_id", "trial_index", "label")


def write_feature_csv(path: str, X, y, subjects, trials, registry: FeatureRegistry) -> None:
    """Write one row per pattern: registry-named feature columns, then
    subject_id, trial_index, label."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(registry):
        raise ValueError(f"matrix shape {X.shape} does not match registry size {len(registry)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(list(registry.names()) + list(META_COLUMNS))
        # A float's repr holds no character csv would quote, so the rows are
        # joined directly. One row at a time: a whole-matrix tolist() would
        # hold every cell as a Python float at once.
        for row, label, subject, trial in zip(X, y, subjects, trials):
            fh.write(",".join(map(repr, row.tolist())))
            fh.write(f",{int(subject)},{int(trial)},{int(label)}\n")


def read_feature_csv(path: str):
    """Read a matrix written by write_feature_csv.

    The data rows are parsed by one bulk numpy parse, which alone decides
    what text is valid. When it fails, or yields a NaN or infinite value or
    a label below 1, each line, then each cell of the first line that
    fails, goes through the same parse alone, only to name them.

    Returns:
        (X, y, subjects, trials, names) with names covering the feature
        columns only.

    Raises:
        ValueError: a malformed header or row, a cell that does not parse
            (a feature that is not a number, or a subject id, trial index
            or label that is not an integer), a NaN or infinite feature
            value, a label below 1, or a byte that is not UTF-8; the
            message names the file and line, and the column of a bad cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        dtype = np.dtype([("X", float, (len(header) - 3,))] + [(c, int) for c in META_COLUMNS])
        try:
            rows = _parse(fh, dtype)
        except (ValueError, DeprecationWarning):
            # A UnicodeDecodeError is a ValueError: the locator names it.
            rows = None
    if rows is not None and rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    if rows is None or rows["label"].min() < 1 or not np.isfinite(rows["X"]).all():
        raise _bad_row(path, header, reader.line_num, dtype)
    meta = [rows[c].copy() for c in ("label", "subject_id", "trial_index")]
    return (np.ascontiguousarray(rows["X"]), *meta, header[:-3])


def require_distinct_rows(path: str, X) -> None:
    """Raise a ValueError naming `path:N:`, the first data line of the
    features.csv at path whose feature values are bitwise those of an
    earlier line, and the earliest such line; X is read_feature_csv(path)'s
    matrix. Each pattern must appear once: a copy in a training fold would
    score its twin in the test fold. Holds a hash per row, not a copy of X.
    """
    seen = {}  # hash of a row's bytes -> the distinct rows with that hash
    for j, row in enumerate(X):
        key = row.tobytes()
        rows = seen.setdefault(hash(key), [])
        for i in rows:
            if X[i].tobytes() == key:
                first, line = _data_line_numbers(path, (i, j))
                raise ValueError(
                    f"{path}:{line}: the feature values repeat those of line {first} "
                    "bit for bit; a pattern must appear once"
                )
        rows.append(j)


def _data_line_numbers(path: str, rows) -> list:
    """The line number of each of rows (data row indices, 0-based) of the
    features.csv at path, skipping its header and the blank lines the bulk
    parse skips."""
    lines = read_lines(path)
    reader = csv.reader(lines)
    next(reader)
    start = reader.line_num
    data = [n for n, line in enumerate(lines[start:], start + 1) if _parse([line], float).size]
    return [data[r] for r in rows]


def _parse(lines, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # Older numpy parses an integer field such as '1.0' with only a
        # DeprecationWarning; it counts as a failed parse.
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def parse_cell(text: str, dtype=float):
    """The value of text read alone as one cell by the bulk parse, or None
    where the parse fails or reads no value, as from an empty cell."""
    try:
        values = _parse([text], dtype)
    except (ValueError, DeprecationWarning):
        return None
    return values[0] if values.size == 1 else None


def _read_header(reader, path: str) -> list:
    try:
        header = next(reader, None)
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    if header is None or len(header) < len(META_COLUMNS) + 1:
        raise ValueError(f"{path}: missing or too-short header")
    if tuple(header[-3:]) != META_COLUMNS:
        raise ValueError(f"{path}: expected trailing columns {META_COLUMNS}")
    return header


def _bad_row(path: str, header, start: int, dtype) -> ValueError:
    """The error naming the first data line, after the header's start lines,
    that fails the bulk parse alone or breaks a rule on its values."""
    for line_no, line in enumerate(read_lines(path)[start:], start=start + 1):
        where = f"{path}:{line_no}"
        try:
            row = _parse([line], dtype)
        except (ValueError, DeprecationWarning):
            return _cell_error(where, header, line)
        if row.size == 0:  # a blank line
            continue
        label = row["label"][0]
        if label < 1:
            return ValueError(f"{where}: label {label} in column 'label' is below 1")
        X = row["X"][0]
        finite = np.isfinite(X)
        if not finite.all():
            c = int(np.argmin(finite))
            return ValueError(f"{where}: non-finite value {float(X[c])!r} in column {header[c]!r}")
    return ValueError(f"{path}: the data rows do not parse together, though each parses alone")


def _cell_error(where: str, header, line: str) -> ValueError:
    """The error naming the first cell of line that fails the parse alone."""
    cells = line.rstrip("\n").split(",")
    if len(cells) != len(header):
        return ValueError(f"{where}: expected {len(header)} fields, got {len(cells)}")
    for col, (name, cell) in enumerate(zip(header, cells)):
        integer = col >= len(header) - len(META_COLUMNS)
        if parse_cell(cell, int if integer else float) is None:
            kind = "integer" if integer else "numeric"
            return ValueError(f"{where}: non-{kind} value {cell!r} in column {name!r}")
    return ValueError(f"{where}: the row does not parse, though each of its cells does")


def write_registry_csv(path: str, registry: FeatureRegistry) -> None:
    """Write the registry as (index, modality, channel, name) rows.

    The channel column holds 'i-j' for pair features.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "modality", "channel", "name"])
        for d in registry:
            channel = f"{d.pair[0]}-{d.pair[1]}" if d.pair is not None else str(d.channel)
            writer.writerow([d.index, d.modality, channel, d.name])
