import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from emgactions.features import export
from emgactions.features.export import META_COLUMNS, read_feature_csv
from emgactions.features.registry import FeatureDescriptor, FeatureRegistry


def write_rows(path, names, rows, blank_lines=False):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(names) + list(META_COLUMNS))
        for row in rows:
            writer.writerow(row)
            if blank_lines:
                fh.write("\n")


def _integer_or_repr(v):
    return str(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        float,
        st.tuples(st.integers(1, 12), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(10**6), 10**6).map(float),
    ),
    st.sampled_from([repr, _integer_or_repr, "{:.6e}".format]),
    st.booleans(),
    st.integers(0, 2**31),
)
def test_bulk_read_equals_row_reader(tmp_path_factory, X, fmt, blank_lines, seed):
    rng = np.random.default_rng(seed)
    meta = rng.integers(1, 1000, (X.shape[0], 3))
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    names = [f"f{j}" for j in range(X.shape[1])]
    write_rows(path, names, [[fmt(float(v)) for v in x] + list(m) for x, m in zip(X, meta)], blank_lines)
    slow = export._read_lines(str(path))
    with mock.patch.object(export, "_read_lines", side_effect=AssertionError("fell back")):
        fast = read_feature_csv(str(path))
    for a, b in zip(fast[:4], slow[:4]):
        assert a.dtype == b.dtype
        assert a.flags["C_CONTIGUOUS"]
        assert np.array_equal(a.view(np.int64), b.view(np.int64))  # bit for bit, -0.0 too
    assert fast[4] == slow[4] == names
    assert np.array_equal(slow[0], [[float(fmt(float(v))) for v in x] for x in X])
    assert np.array_equal(slow[1:4], meta[:, [2, 0, 1]].T)


def write_reference(path, X, y, subjects, trials, names):
    # The reference writer: csv.writer over repr(float(v)) cells.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(names) + list(META_COLUMNS))
        for row, label, subject, trial in zip(X, y, subjects, trials):
            writer.writerow([repr(float(v)) for v in row] + [int(subject), int(trial), int(label)])


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        float,
        st.tuples(st.integers(1, 8), st.integers(1, 6)),
        elements=st.floats() | st.integers(-(10**17), 10**17).map(float),
    ),
    st.integers(0, 2**31),
)
@example(np.array([[-0.0, 5e-324, 1e308, 1e15, 2.0**53 + 2, -1e16]]), 0)
@example(np.array([[0.0], [-5e-324], [-1e308], [123456789012345.0]]), 1)
@example(np.array([[1e-05, -2.2250738585072009e-308], [1.5e-05, 1e16]]), 2)
def test_writer_bytes_equal_csv_writer(tmp_path_factory, X, seed):
    meta = np.random.default_rng(seed).integers(-(10**16), 10**16, (3, X.shape[0]))
    meta[:, 0] = 10**15
    registry = FeatureRegistry(
        [FeatureDescriptor(j + 1, "tds", 1, None, j + 1, f"f{j}") for j in range(X.shape[1])]
    )
    path = tmp_path_factory.mktemp("csv")
    export.write_feature_csv(str(path / "new.csv"), X, *meta, registry)
    write_reference(path / "old.csv", X, *meta, registry.names())
    assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "row, message",
    [
        (["0.5", "1.5", "1", "2", "1.0"], "non-integer value '1.0' in column 'label'"),
        (["0.5", "1.5", "1", "2", "1e0"], "non-integer value '1e0' in column 'label'"),
        (["0.5", "1.5", "1", "2", "1", "7"], "expected 5 fields, got 6"),
        (["0.5", "1", "2", "1"], "expected 5 fields, got 4"),
        (["0.5", "1.5", "1", "2", "0"], "label 0 in column 'label' is below 1"),
        (["0.5", "1.5", "1", "2", "-2"], "label -2 in column 'label' is below 1"),
    ],
)
def test_bulk_read_rejects_through_row_reader(tmp_path, row, message):
    path = tmp_path / "features.csv"
    write_rows(path, ["a", "b"], [["0.1", "0.2", "1", "1", "1"], row])
    with pytest.raises(ValueError) as exc:
        read_feature_csv(str(path))
    assert str(exc.value) == f"{path}:3: {message}"
