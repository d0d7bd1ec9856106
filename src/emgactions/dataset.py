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
import re
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
    """A data line has the wrong field count or a non-numeric/non-finite field.

    path, when given, names the file: the message starts path:line_no.
    """

    def __init__(self, line_no: int, message: str, path: str | None = None):
        where = f"line {line_no}" if path is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message
        self.path = path

    def __reduce__(self):
        # The default would call __init__ with the formatted message alone.
        return type(self), (self.line_no, self.message, self.path)


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


def read_key_values(path: str):
    """Yield (line number, key, value) per ``key = value`` line of a UTF-8
    file, skipping blank lines and '#' comments; any other line raises a
    ValueError naming ``path:line``."""
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield line_no, key, value


def parse_int(text: str) -> int | None:
    """The integer that text spells as an optional sign and ASCII digits 0-9
    amid ASCII whitespace; None for other text, such as '1_000' or '1.0'."""
    return int(text) if re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII) else None


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

    One bulk numpy parse, as 64-bit integers first and as floats when that
    fails, reads the whole input and alone decides what text is valid. The
    lines are parsed one at a time only to name the first bad one.

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
        ValueError: the bulk parse failed, but no line fails alone.
    """
    if expected_channels < 1:
        raise ValueError("expected_channels must be >= 1")
    lines = text.splitlines() if isinstance(text, str) else list(text)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        samples = _parse_integers(lines)
        if samples is None:
            try:
                samples = np.loadtxt(lines, comments=None, ndmin=2)
            except ValueError:
                pass
    if samples is not None and samples.size == 0:
        raise EmptyRecordingError("no data lines in recording")
    if samples is None or samples.shape[1] != expected_channels or not np.isfinite(samples).all():
        raise _bad_line(lines, expected_channels)
    return samples


def _parse_integers(lines):
    # Integer text parses faster as int64, and every int64 converts to the
    # float the float parse gives, correctly rounded. The float parse keeps
    # the sign of a negative zero, so text holding "-0" is left to it, as
    # are byte lines, which the join refuses with a TypeError.
    try:
        if "-0" in "".join(lines):
            return None
        with warnings.catch_warnings():
            # Older numpy truncates a field such as '1.5' to an integer with
            # only a DeprecationWarning.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2).astype(float)
    except (TypeError, ValueError, OverflowError, DeprecationWarning):
        return None


def _bad_line(lines, expected_channels: int) -> ValueError:
    # The error naming the first line that fails the bulk float parse alone;
    # the int64 parse reads no text that the float parse does not.
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != expected_channels:
            return MalformedLineError(
                line_no, f"expected {expected_channels} fields, got {len(fields)}"
            )
        try:
            row = np.loadtxt([line], comments=None, ndmin=2)
        except ValueError:
            return MalformedLineError(line_no, f"non-numeric field in {fields!r}")
        if not np.isfinite(row).all():
            return MalformedLineError(line_no, "non-finite value")
    return ValueError("the lines do not parse together, though each parses alone")


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
      The path may contain spaces; the last two fields are the ids, written
      as parse_int reads integers. No two entries may name the same file.

    Raises:
        MissingFileError: manifest file absent.
        ValueError: malformed line, unknown key, a ``trials`` or
            ``channels`` value that is not an integer >= 1, an entry id
            that is not a nonnegative integer, two entries whose paths
            resolve to the same real path, or a byte that is not UTF-8;
            the message starts with ``path:line``.
    """
    if not os.path.isfile(path):
        raise MissingFileError(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    root = base
    counts = {"trials": 15, "channels": 8}
    entries: list[tuple] = []  # (line, ManifestEntry)
    for line_no, key, value in read_key_values(path):
        where = f"{path}:{line_no}"
        if key == "root":
            root = value if os.path.isabs(value) else os.path.join(base, value)
        elif key in counts:
            counts[key] = parse_int(value) or 0
            if counts[key] < 1:
                raise ValueError(f"{where}: {key} must be an integer >= 1, got {value!r}")
        elif key == "entry":
            parts = value.rsplit(None, 2)
            ids = [parse_int(part) for part in parts[1:]]
            if len(parts) != 3 or None in ids or min(ids) < 0:
                raise ValueError(f"{where}: entry needs '<path> <int subject> <int label>'")
            entries.append((line_no, ManifestEntry(parts[0], *ids)))
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
    first = {}  # real path -> line of the entry naming it first; the root may come last
    for line_no, entry in entries:
        seen = first.setdefault(os.path.realpath(os.path.join(root, entry.path)), line_no)
        if seen != line_no:
            raise ValueError(f"{path}:{line_no}: entry {entry.path!r} names line {seen}'s file")
    return DatasetManifest(root, [e for _, e in entries], counts["trials"], counts["channels"])


def load_dataset(manifest: DatasetManifest) -> Iterator[Recording]:
    """Check every manifest entry exists, then read the entries lazily.

    Every path is checked before any file is parsed, so a missing file
    fails at once. The files are parsed one at a time as the returned
    iterator is consumed, so only the recording being used is in memory.
    Wrap the result in ``list()`` to iterate over it more than once.
    ``emgactions extract`` calls it once on the whole manifest, for the
    path check, then once per process on a contiguous run of its entries.

    Returns:
        An iterator of one Recording per entry, in manifest order, each
        holding trials_per_file trials.

    Raises:
        MissingFileError: an entry path does not exist; raised by the call.
        MalformedLineError, EmptyRecordingError, TooShortError: raised
            during iteration, with the file path prepended to the message;
            the message survives a pickle, so an error sent from a forked
            process reads as it reads here.
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
    lines = read_lines(full)
    try:
        samples = parse_recording(lines, manifest.channels)
        return split_trials(samples, manifest.trials_per_file)
    except MalformedLineError as exc:
        raise MalformedLineError(exc.line_no, exc.message, full) from None
    except ValueError as exc:
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
    subject id is the one run of ASCII digits 0-9 in the nearest ancestor
    directory that contains any (``sub1`` -> 1). Entries are sorted by
    (subject_id, action_label) so the scan order is deterministic.

    Raises:
        MissingFileError: root directory absent.
        ValueError: a matched file has no identifiable subject directory
            (none has a digit, or the nearest that has holds two digit runs,
            as ``sub1_run2``), or two files map to the same (subject, action).
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
                raise ValueError(f"{os.path.join(dirpath, fname)}: cannot infer subject id")
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
    # Nearest ancestor directory with ASCII digits names the subject (sub1,
    # s02, ...); one with two digit runs, such as sub1_run2, names none.
    parts = [p for p in relpath.split(os.sep) if p and p != "."]
    for part in reversed(parts):
        runs = re.findall("[0-9]+", part)
        if runs:
            return int(runs[0]) if len(runs) == 1 else None
    return None
