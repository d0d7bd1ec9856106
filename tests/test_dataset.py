import os
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from emgactions import dataset
from emgactions.dataset import (
    ACTION_LABELS,
    DatasetManifest,
    EmptyRecordingError,
    InvalidWindowError,
    MalformedLineError,
    ManifestEntry,
    MissingFileError,
    TooShortError,
    load_dataset,
    parse_recording,
    read_manifest,
    scan_action_tree,
    segment_channel,
    split_trials,
)


def test_parse_tab_separated_integers_bit_exact():
    text = "1\t2\t3\t4\t5\t6\t7\t8\n9\t10\t11\t12\t13\t14\t15\t16\n0\t0\t0\t0\t0\t0\t0\t-1\n"
    samples = parse_recording(text, 8)
    assert samples.shape == (3, 8)
    assert samples[0, 0] == 1.0 and samples[1, 7] == 16.0
    assert samples[2, 7] == -1.0


def test_parse_field_count_mismatch_reports_line():
    with pytest.raises(MalformedLineError) as exc:
        parse_recording("1 2 3\n", 8)
    assert exc.value.line_no == 1


def test_malformed_line_error_survives_pickling():
    error = MalformedLineError(4, "non-finite value")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is MalformedLineError
    assert str(copy) == "line 4: non-finite value"
    assert copy.line_no == 4


def test_parse_line_numbers_count_blank_lines():
    with pytest.raises(MalformedLineError) as exc:
        parse_recording("1 2\n\n1 2\nbad line\n", 2)
    assert exc.value.line_no == 4


def test_parse_non_numeric_field():
    with pytest.raises(MalformedLineError):
        parse_recording("1 2 x\n", 3)


def test_parse_rejects_non_finite_values():
    with pytest.raises(MalformedLineError):
        parse_recording("1 2 nan\n", 3)
    with pytest.raises(MalformedLineError):
        parse_recording("1 inf 3\n", 3)


@pytest.mark.parametrize(
    "bad",
    ["1 2 3", "1", "1 nan", "inf 2", "1 -inf", "1 x", "# comment", "1 2 # note"],
)
def test_parse_error_names_the_bad_line(bad):
    with pytest.raises(MalformedLineError) as exc:
        parse_recording(f"1 2\n\n3 4\n{bad}\n5 6\n", 2)
    assert exc.value.line_no == 4
    assert str(exc.value).startswith("line 4: ")


def _integer_or_repr(v):
    return str(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        float,
        st.tuples(st.integers(1, 30), st.integers(1, 8)),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(10**6), 10**6).map(float),
    ),
    st.sampled_from([" ", "\t", "  ", " \t "]),
    st.sampled_from([repr, _integer_or_repr, "{:.6e}".format]),
    st.booleans(),
)
def test_bulk_parse_equals_line_parser(data, sep, fmt, blank_lines):
    lines = [sep.join(fmt(float(v)) for v in row) for row in data]
    if blank_lines:
        lines = [x for line in lines for x in (line, "  ")]
    slow = dataset._parse_lines(lines, data.shape[1])
    with mock.patch.object(dataset, "_parse_lines", side_effect=AssertionError("fell back")):
        fast = parse_recording("\n".join(lines) + "\n", data.shape[1])
    assert np.array_equal(fast, slow)
    assert np.array_equal(slow, [[float(fmt(float(v))) for v in row] for row in data])


def test_parse_empty_stream():
    with pytest.raises(EmptyRecordingError):
        parse_recording("\n\n", 8)


def test_parse_large_generated_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.integers(-500, 500, (9999, 8))
    path = tmp_path / "rec.txt"
    with open(path, "w") as fh:
        for row in data:
            fh.write("\t".join(str(v) for v in row) + "\n")
    with open(path) as fh:
        samples = parse_recording(fh, 8)
    assert samples.shape == (9999, 8)
    assert np.array_equal(samples, data.astype(float))


def test_split_trials_standard_layout():
    samples = parse_recording(
        "\n".join(" ".join(str(c) for c in range(8)) for _ in range(10000)),
        8,
    )
    trials = split_trials(samples, 15)
    assert trials.shape == (15, 8, 666)
    assert trials.flags.c_contiguous
    assert np.array_equal(trials[:, :, 0], np.tile(np.arange(8.0), (15, 1)))


def test_split_trials_even_and_floor():
    samples = parse_recording("\n".join(str(i) for i in range(10)), 1)
    assert split_trials(samples, 2).shape == (2, 1, 5)
    threes = split_trials(samples, 3)
    assert threes.shape == (3, 1, 3)
    # sample 10 is dropped by the floor rule
    assert threes[-1, 0, -1] == 8.0


def test_split_trials_too_short():
    samples = parse_recording("1\n2\n", 1)
    with pytest.raises(TooShortError):
        split_trials(samples, 3)


def test_split_trials_concatenation_reproduces_prefix():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n_total = int(rng.integers(5, 200))
        m = int(rng.integers(1, 5))
        r = int(rng.integers(1, min(n_total, 7) + 1))
        samples = rng.normal(0, 1, (n_total, m))
        parsed = parse_recording(
            "\n".join(" ".join(repr(float(v)) for v in row) for row in samples),
            m,
        )
        trials = split_trials(parsed, r)
        n = n_total // r
        assert trials.shape == (r, m, n)
        rebuilt = np.concatenate(list(trials), axis=1)
        assert np.array_equal(rebuilt, samples[: r * n].T)


def test_segment_channel_full_trial_single_segment():
    x = np.arange(666.0)
    segs = segment_channel(x, 666)
    assert segs.shape == (1, 666)
    assert np.array_equal(segs[0], x)


def test_segment_channel_splits_and_drops_remainder():
    segs = segment_channel(np.arange(10.0), 5)
    assert segs.shape == (2, 5)
    assert np.array_equal(segs[0], np.arange(5.0))
    assert np.array_equal(segs[1], np.arange(5.0, 10.0))
    segs = segment_channel(np.arange(7.0), 3)
    assert segs.shape == (2, 3)
    assert segs[1, -1] == 5.0  # sample 7 dropped


def test_segment_channel_window_bounds():
    with pytest.raises(InvalidWindowError):
        segment_channel(np.arange(5.0), 0)
    with pytest.raises(InvalidWindowError):
        segment_channel(np.arange(5.0), 6)


def test_segments_disjoint_ordered_cover_prefix():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        window = int(rng.integers(1, n + 1))
        x = rng.normal(0, 1, n)
        segs = segment_channel(x, window)
        n_w = n // window
        assert segs.shape == (n_w, window)
        assert np.array_equal(segs.reshape(-1), x[: n_w * window])


def test_segment_channel_batches_leading_axes():
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, (3, 4, 23))
    segs = segment_channel(x, 5)
    assert segs.shape == (3, 4, 4, 5)
    for p, m, w in np.ndindex(segs.shape[:3]):
        assert np.array_equal(segs[p, m, w], segment_channel(x[p, m], 5)[w])


def _write_recording(path, rows, channels, rng):
    data = rng.integers(-100, 100, (rows, channels))
    with open(path, "w") as fh:
        for row in data:
            fh.write("\t".join(str(v) for v in row) + "\n")
    return data


def test_manifest_round_trip_and_load(tmp_path):
    rng = np.random.default_rng(3)
    os.makedirs(tmp_path / "data")
    _write_recording(tmp_path / "data" / "a.txt", 30, 4, rng)
    manifest_path = tmp_path / "manifest.txt"
    manifest_path.write_text(
        "# comment line\n"
        "root = data\n"
        "trials = 15\n"
        "channels = 4\n"
        "entry = a.txt 1 2\n"
    )
    manifest = read_manifest(str(manifest_path))
    assert manifest.trials_per_file == 15
    assert manifest.channels == 4
    assert manifest.entries == [ManifestEntry("a.txt", 1, 2)]
    (rec,) = load_dataset(manifest)
    assert rec.action_label == 2 and rec.subject_id == 1
    assert rec.trials.shape == (15, 4, 2)


def test_load_dataset_uniform_label_histogram(tmp_path):
    rng = np.random.default_rng(4)
    entries = []
    for subject in (1, 2):
        for label in (1, 2, 3):
            name = f"s{subject}_l{label}.txt"
            _write_recording(tmp_path / name, 12, 2, rng)
            entries.append(ManifestEntry(name, subject, label))
    manifest = DatasetManifest(root=str(tmp_path), entries=entries, trials_per_file=4, channels=2)
    recordings = list(load_dataset(manifest))
    assert [(rec.subject_id, rec.action_label) for rec in recordings] == [
        (s, a) for s in (1, 2) for a in (1, 2, 3)
    ]
    assert all(rec.trials.shape == (4, 2, 3) for rec in recordings)
    labels, counts = np.unique(
        [rec.action_label for rec in recordings for _ in rec.trials], return_counts=True
    )
    assert list(labels) == [1, 2, 3]
    assert all(c == 8 for c in counts)  # R * S per class


def test_load_dataset_missing_file(tmp_path):
    manifest = DatasetManifest(
        root=str(tmp_path),
        entries=[ManifestEntry("absent.txt", 1, 1)],
        trials_per_file=2,
        channels=2,
    )
    with pytest.raises(MissingFileError):
        load_dataset(manifest)


def test_load_dataset_checks_every_path_before_parsing(tmp_path):
    (tmp_path / "bad.txt").write_text("1 2\n1 2 3\n")
    manifest = DatasetManifest(
        root=str(tmp_path),
        entries=[ManifestEntry("bad.txt", 1, 1), ManifestEntry("absent.txt", 1, 2)],
        trials_per_file=1,
        channels=2,
    )
    with mock.patch.object(dataset, "parse_recording", side_effect=AssertionError("parsed")):
        with pytest.raises(MissingFileError, match="absent.txt"):
            load_dataset(manifest)


def test_load_dataset_parses_as_consumed(tmp_path):
    rng = np.random.default_rng(6)
    for name in ("a.txt", "b.txt"):
        _write_recording(tmp_path / name, 4, 2, rng)
    manifest = DatasetManifest(
        root=str(tmp_path),
        entries=[ManifestEntry("a.txt", 1, 1), ManifestEntry("b.txt", 1, 2)],
        trials_per_file=2,
        channels=2,
    )
    with mock.patch.object(dataset, "parse_recording", wraps=dataset.parse_recording) as parse:
        recordings = load_dataset(manifest)
        assert parse.call_count == 0
        first = next(recordings)
        assert first.action_label == 1
        assert parse.call_count == 1
        released = weakref.ref(first.trials)
        del first
        assert released() is None  # the suspended iterator holds no samples
        assert [rec.action_label for rec in recordings] == [2]
        assert parse.call_count == 2


def test_load_dataset_parse_error_names_file(tmp_path):
    (tmp_path / "bad.txt").write_text("1 2\n1 2 3\n")
    manifest = DatasetManifest(
        root=str(tmp_path),
        entries=[ManifestEntry("bad.txt", 1, 1)],
        trials_per_file=1,
        channels=2,
    )
    with pytest.raises(MalformedLineError) as exc:
        list(load_dataset(manifest))
    assert str(exc.value) == f"{tmp_path / 'bad.txt'}: line 2: expected 2 fields, got 3"
    assert exc.value.line_no == 2


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("\n\n", EmptyRecordingError, "no data lines"),
        ("1 2\n" * 10, TooShortError, "10 samples cannot supply 15 non-empty trials"),
    ],
    ids=["empty", "too_short"],
)
def test_load_dataset_recording_error_names_file(tmp_path, text, error, message):
    (tmp_path / "bad.txt").write_text(text)
    manifest = DatasetManifest(
        root=str(tmp_path),
        entries=[ManifestEntry("bad.txt", 1, 1)],
        trials_per_file=15,
        channels=2,
    )
    with pytest.raises(error) as exc:
        list(load_dataset(manifest))
    assert str(exc.value).startswith(f"{tmp_path / 'bad.txt'}: {message}")


@pytest.mark.parametrize(
    "line, message",
    [
        ("trials = fifteen", "trials must be an integer >= 1, got 'fifteen'"),
        ("trials = 0", "trials must be an integer >= 1, got '0'"),
        ("channels = 0", "channels must be an integer >= 1, got '0'"),
        ("channels = -3", "channels must be an integer >= 1, got '-3'"),
        ("channels = 8.5", "channels must be an integer >= 1, got '8.5'"),
        ("entry = a.txt one 1", "entry needs '<path> <int subject> <int label>'"),
        ("entry = a.txt 1 x", "entry needs '<path> <int subject> <int label>'"),
        ("entry = a.txt 1 -2", "entry needs '<path> <int subject> <int label>'"),
        ("entry = a.txt 1", "entry needs '<path> <int subject> <int label>'"),
    ],
)
def test_read_manifest_bad_value_names_line(tmp_path, line, message):
    path = tmp_path / "m.txt"
    path.write_text(f"# header\n{line}\n")
    with pytest.raises(ValueError) as exc:
        read_manifest(str(path))
    assert str(exc.value) == f"{path}:2: {message}"


def test_manifest_duplicate_entries_rejected():
    with pytest.raises(ValueError):
        DatasetManifest(
            root=".",
            entries=[ManifestEntry("a.txt", 1, 1), ManifestEntry("b.txt", 1, 1)],
        )


def test_read_manifest_rejects_unknown_key(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        read_manifest(str(path))


def test_read_manifest_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_manifest(str(tmp_path / "none.txt"))


def test_scan_action_tree(tmp_path):
    rng = np.random.default_rng(5)
    for subject in (1, 2):
        d = tmp_path / f"sub{subject}" / "Normal" / "txt"
        os.makedirs(d)
        for action in ("Bowing", "Clapping"):
            _write_recording(d / f"{action}.txt", 10, 8, rng)
        d2 = tmp_path / f"sub{subject}" / "Aggressive" / "txt"
        os.makedirs(d2)
        _write_recording(d2 / "Side-kicking.txt", 10, 8, rng)
    manifest = scan_action_tree(str(tmp_path), trials_per_file=5)
    assert len(manifest.entries) == 6
    assert [e.subject_id for e in manifest.entries] == [1, 1, 1, 2, 2, 2]
    assert {e.action_label for e in manifest.entries} == {1, 2, 19}
    recordings = load_dataset(manifest)
    assert [rec.trials.shape for rec in recordings] == [(5, 8, 2)] * 6


def test_scan_action_tree_missing_root(tmp_path):
    with pytest.raises(MissingFileError):
        scan_action_tree(str(tmp_path / "nope"))


def test_action_label_table():
    assert len(ACTION_LABELS) == 20
    assert ACTION_LABELS[1] == "Bowing"
    assert ACTION_LABELS[10] == "Waving"
    assert ACTION_LABELS[11] == "Elbowing"
    assert ACTION_LABELS[20] == "Slapping"
