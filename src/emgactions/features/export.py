"""CSV import/export for feature matrices and the feature registry.

Floats are written with repr so a read-back matrix is bit-identical, and
rows use '\\n' line endings so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

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

    The data rows are parsed by one bulk numpy parse. Only when that fails,
    finds no row or yields a NaN or infinite value is the file read again
    row by row, to name the offending line and cell.

    Returns:
        (X, y, subjects, trials, names) with names covering the feature
        columns only.

    Raises:
        ValueError: a malformed header or row, a cell that does not parse
            (a feature that is not a number, or a subject id, trial index
            or label that is not an integer), or a NaN or infinite feature
            value; the message names the file and line, and the column of
            a bad cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = _read_header(csv.reader(fh), path)
        names = header[:-3]
        dtype = np.dtype([("X", float, (len(names),))] + [(c, int) for c in META_COLUMNS])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # Older numpy parses an integer field such as '1.0' with only
                # a DeprecationWarning; the row reader rejects it.
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            rows = None
    if rows is None or rows.size == 0 or not np.isfinite(rows["X"]).all():
        return _read_lines(path)
    return (
        np.ascontiguousarray(rows["X"]),
        rows["label"].copy(),
        rows["subject_id"].copy(),
        rows["trial_index"].copy(),
        names,
    )


def _read_header(reader, path: str) -> list:
    header = next(reader, None)
    if header is None or len(header) < len(META_COLUMNS) + 1:
        raise ValueError(f"{path}: missing or too-short header")
    if tuple(header[-3:]) != META_COLUMNS:
        raise ValueError(f"{path}: expected trailing columns {META_COLUMNS}")
    return header


def _read_lines(path: str):
    # The reference reader: slow, but it names the first bad line and cell.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        names = header[:-3]
        rows, labels, subjects, trials, line_nos = [], [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row[:-3]])
                subjects.append(int(row[-3]))
                trials.append(int(row[-2]))
                labels.append(int(row[-1]))
            except ValueError:
                raise _cell_error(f"{path}:{line_no}", header, row) from None
            line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    X = np.array(rows, dtype=float)
    finite = np.isfinite(X)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}:{line_nos[r]}: non-finite value {float(X[r, c])!r} in column {names[c]!r}"
        )
    return (
        X,
        np.array(labels, dtype=int),
        np.array(subjects, dtype=int),
        np.array(trials, dtype=int),
        names,
    )


def _cell_error(where: str, header, row) -> ValueError:
    """The error naming the first cell of row that does not parse."""
    for col, (name, value) in enumerate(zip(header, row)):
        integer = col >= len(header) - len(META_COLUMNS)
        try:
            int(value) if integer else float(value)
        except ValueError:
            kind = "integer" if integer else "numeric"
            return ValueError(f"{where}: non-{kind} value {value!r} in column {name!r}")


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
