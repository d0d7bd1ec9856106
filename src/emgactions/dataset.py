"""Ingestion of raw multi-channel EMG recordings.

A recording is a plain text file with one row per time sample and one
whitespace-separated numeric column per channel. Each file holds every trial
of one (subject, action) pair back to back; trials are recovered by an even
split along the time axis into one (R, M, N) array per recording. Channels
of a trial are further sliced into non-overlapping analysis windows
(segments) for feature extraction.

Dataset layout is described by a manifest: a flat key-value text file that
names the root directory, the per-file trial count, the channel count, and
one ``entry`` line per recording file. For the public physical-action corpus
(4 subjects x 20 actions x 15 trials) a manifest can also be generated by
scanning the unpacked directory tree.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

# Class ids for the 20 physical actions: 1-10 normal, 11-20 aggressive.
ACTION_LABELS = {
    1: "Bowing",
    2: "Clapping",
    3: "Handshaking",
    4: "Hugging",
    5: "Jumping",
    6: "Running",
    7: "Seating",
    8: "Standing",
    9: "Walking",
    10: "Waving",
    11: "Elbowing",
    12: "Frontkicking",
    13: "Hammering",
    14: "Headering",
    15: "Kneeing",
    16: "Pulling",
    17: "Punching",
    18: "Pushing",
    19: "Side-kicking",
    20: "Slapping",
}


class MalformedLineError(ValueError):
    """A data line has the wrong field count or a non-numeric/non-finite field."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        # The default would call __init__ with the formatted message alone.
        return type(self), (self.line_no, self.message)


class EmptyRecordingError(ValueError):
    """The input stream contains no data lines."""


class TooShortError(ValueError):
    """Recording too short to yield at least one sample per trial."""


class InvalidWindowError(ValueError):
    """Window length outside 1..N."""


class MissingFileError(FileNotFoundError):
    """A manifest entry points at a path that does not exist."""


@dataclass
class Recording:
    """One raw recording file: all trials of one subject performing one action.

    Attributes:
        trials: float array of shape (R, M, N): R trials of M channels with
            N samples each.
        subject_id: integer subject identifier.
        action_label: class id of the recorded action (1..C).
    """

    trials: np.ndarray
    subject_id: int
    action_label: int


@dataclass
class ManifestEntry:
    """One recording file: relative path plus its subject and action label."""

    path: str
    subject_id: int
    action_label: int


@dataclass
class DatasetManifest:
    """Description of where the dataset lives and how to interpret each file.

    Attributes:
        root: directory all entry paths are relative to.
        entries: one per recording file, unique on (subject_id, action_label).
        trials_per_file: number of equal-length trials per recording (R).
        channels: channel count every file must have (M).
    """

    root: str
    entries: list[ManifestEntry] = field(default_factory=list)
    trials_per_file: int = 15
    channels: int = 8

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            key = (e.subject_id, e.action_label)
            if key in seen:
                raise ValueError(
                    f"duplicate manifest entry for subject {e.subject_id}, "
                    f"label {e.action_label}"
                )
            seen.add(key)


def read_lines(path: str) -> list:
    """The lines of a UTF-8 text file, as iterating over open(path) gives them.

    Raises:
        ValueError: the file is not UTF-8; the message names the path and
            the line of the first bad byte.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return list(fh)
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None


def not_utf8_error(path: str) -> ValueError:
    """The error naming path and the line of its first byte that is not UTF-8.

    Text-mode reads decode in chunks, so their errors locate the byte only
    within a chunk; the file is read again whole to find its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 text")
    return ValueError(f"{path}: not UTF-8 text")


def parse_recording(text, expected_channels: int) -> np.ndarray:
    """Parse a whitespace-delimited numeric recording.

    The whole input is read with one bulk numpy parse. Only when that fails,
    or its result is empty, has the wrong column count or holds a
    non-finite value, is the input parsed again line by line to report the
    offending line.

    Args:
        text: a string or an iterable of lines.
        expected_channels: required field count per data line.

    Returns:
        float array of shape (N_total, M): one row per non-empty line, in
        input order, one column per channel.

    Raises:
        MalformedLineError: wrong field count, or a field that is not a
            finite number. Line numbers are 1-based over all physical lines.
        EmptyRecordingError: no data lines at all.
    """
    if expected_channels < 1:
        raise ValueError("expected_channels must be >= 1")
    lines = text.splitlines() if isinstance(text, str) else list(text)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            samples = np.loadtxt(lines, comments=None, ndmin=2)
    except ValueError:
        samples = None
    if (
        samples is None
        or samples.shape[0] == 0
        or samples.shape[1] != expected_channels
        or not np.isfinite(samples).all()
    ):
        samples = _parse_lines(lines, expected_channels)
    return samples


def _parse_lines(lines, expected_channels: int) -> np.ndarray:
    # The reference parser: slow, but it names the first bad line.
    rows = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != expected_channels:
            raise MalformedLineError(
                line_no,
                f"expected {expected_channels} fields, got {len(fields)}",
            )
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise MalformedLineError(line_no, f"non-numeric field in {fields!r}") from None
        if not all(np.isfinite(row)):
            raise MalformedLineError(line_no, "non-finite value")
        rows.append(row)
    if not rows:
        raise EmptyRecordingError("no data lines in recording")
    return np.array(rows, dtype=float)


def split_trials(samples, trials: int) -> np.ndarray:
    """Split (N_total, M) recording samples into `trials` equal-length trials.

    Each trial gets N = floor(N_total / trials) samples per channel;
    trailing remainder samples are dropped.

    Returns:
        A C-contiguous float array of shape (trials, M, N).

    Raises:
        TooShortError: if the recording has fewer samples than trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples = np.asarray(samples, dtype=float)
    n_total, m = samples.shape
    n = n_total // trials
    if n < 1:
        raise TooShortError(f"{n_total} samples cannot supply {trials} non-empty trials")
    return np.ascontiguousarray(samples[: trials * n].reshape(trials, n, m).transpose(0, 2, 1))


def segment_channel(x, window: int) -> np.ndarray:
    """Slice the last axis into floor(N / window) non-overlapping segments.

    Returns a read-only strided view of shape (..., W, window) with
    W = floor(N / window): segment w (1-based) holds samples
    (w-1)*window+1 .. w*window, and any remainder is dropped.

    Raises:
        InvalidWindowError: if window < 1 or window > N.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if window < 1 or window > n:
        raise InvalidWindowError(f"window {window} not in 1..{n}")
    return np.lib.stride_tricks.sliding_window_view(x, window, axis=-1)[..., ::window, :]


def read_manifest(path: str) -> DatasetManifest:
    """Read a flat key-value manifest file.

    Recognized keys (one ``key = value`` per line; '#' starts a comment):

    * ``root``: directory the entry paths are relative to. A relative root
      is resolved against the manifest file's own directory. Default: the
      manifest's directory.
    * ``trials``: trials per recording file (default 15).
    * ``channels``: channel count (default 8).
    * ``entry``: repeated; value is ``<relative-path> <subject_id> <label>``.
      The path may contain spaces; the last two fields are the ids.

    Raises:
        MissingFileError: manifest file absent.
        ValueError: malformed line, unknown key, a ``trials`` or
            ``channels`` value that is not an integer >= 1, an entry id
            that is not a nonnegative integer, or a byte that is not UTF-8;
            the message starts with ``path:line``.
    """
    if not os.path.isfile(path):
        raise MissingFileError(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    root = base
    counts = {"trials": 15, "channels": 8}
    entries: list[ManifestEntry] = []
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{line_no}"
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "root":
            root = value if os.path.isabs(value) else os.path.join(base, value)
        elif key in counts:
            if not value.isdecimal() or int(value) < 1:
                raise ValueError(f"{where}: {key} must be an integer >= 1, got {value!r}")
            counts[key] = int(value)
        elif key == "entry":
            parts = value.rsplit(None, 2)
            if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
                raise ValueError(f"{where}: entry needs '<path> <int subject> <int label>'")
            entries.append(ManifestEntry(parts[0], int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
    return DatasetManifest(root, entries, counts["trials"], counts["channels"])


def load_dataset(manifest: DatasetManifest) -> Iterator[Recording]:
    """Check every manifest entry exists, then read the entries lazily.

    Every path is checked before any file is parsed, so a missing file
    fails at once. The files are parsed one at a time as the returned
    iterator is consumed, so only the recording being used is in memory.
    Wrap the result in ``list()`` to iterate over it more than once.

    Returns:
        An iterator of one Recording per entry, in manifest order, each
        holding trials_per_file trials.

    Raises:
        MissingFileError: an entry path does not exist; raised by the call.
        MalformedLineError, EmptyRecordingError, TooShortError: raised
            during iteration, with the file path prepended to the message.
        ValueError: raised during iteration for a file that is not UTF-8,
            naming its path and line.
    """
    paths = [os.path.join(manifest.root, entry.path) for entry in manifest.entries]
    for full in paths:
        if not os.path.isfile(full):
            raise MissingFileError(f"recording not found: {full}")
    return _read_recordings(manifest, paths)


def _read_recordings(manifest: DatasetManifest, paths: list) -> Iterator[Recording]:
    for entry, full in zip(manifest.entries, paths):
        # No local names the trials, so a suspended generator holds none.
        yield Recording(_read_trials(full, manifest), entry.subject_id, entry.action_label)


def _read_trials(full: str, manifest: DatasetManifest) -> np.ndarray:
    try:
        samples = parse_recording(read_lines(full), manifest.channels)
        return split_trials(samples, manifest.trials_per_file)
    except (MalformedLineError, EmptyRecordingError, TooShortError) as exc:
        exc.args = (f"{full}: {exc}",)
        raise


def _normalize_action_name(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalpha())


_ACTION_BY_NORMALIZED = {
    _normalize_action_name(name): label for label, name in ACTION_LABELS.items()
}


def scan_action_tree(
    root: str,
    trials_per_file: int = 15,
    channels: int = 8,
) -> DatasetManifest:
    """Build a manifest by scanning an unpacked physical-action directory tree.

    Walks `root` looking for ``*.txt`` files whose stem matches an action
    name (case/punctuation-insensitive, e.g. ``Side-kicking.txt``). The
    subject id is taken from the digits of the nearest ancestor directory
    that contains any (``sub1`` -> 1). Entries are sorted by
    (subject_id, action_label) so the scan order is deterministic.

    Raises:
        MissingFileError: root directory absent.
        ValueError: a matched file has no identifiable subject directory,
            or two files map to the same (subject, action).
    """
    if not os.path.isdir(root):
        raise MissingFileError(f"dataset root not found: {root}")
    root = os.path.abspath(root)
    entries: list[ManifestEntry] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            stem, ext = os.path.splitext(fname)
            if ext.lower() != ".txt":
                continue
            label = _ACTION_BY_NORMALIZED.get(_normalize_action_name(stem))
            if label is None:
                continue
            subject = _subject_from_path(os.path.relpath(dirpath, root))
            if subject is None:
                raise ValueError(
                    f"cannot infer subject id for {os.path.join(dirpath, fname)}"
                )
            rel = os.path.relpath(os.path.join(dirpath, fname), root)
            entries.append(ManifestEntry(rel, subject, label))
    entries.sort(key=lambda e: (e.subject_id, e.action_label))
    return DatasetManifest(
        root=root,
        entries=entries,
        trials_per_file=trials_per_file,
        channels=channels,
    )


def _subject_from_path(relpath: str) -> int | None:
    # Nearest ancestor directory with digits names the subject (sub1, s02, ...).
    parts = [p for p in relpath.split(os.sep) if p and p != "."]
    for part in reversed(parts):
        digits = "".join(ch for ch in part if ch.isdigit())
        if digits:
            return int(digits)
    return None
