"""Seeded, corpus-shaped benchmark inputs, generated once and cached.

Two input kinds, both a pure function of their spec and the seed:

* ``Corpus``: integer text recordings in the documented
  ``sub<N>/<Normal|Aggressive>/Txt/<Action>.txt`` layout, one file per
  (subject, action), ``rows`` x 8 samples each. Every file is drawn from its
  own ``(seed, subject, action)`` stream, so a one-subject slice is
  byte-identical to that subject's part of the full tree.
* ``Matrix``: a ``features.csv`` with the standard registry header, drawn
  directly from the seed (never by running ``extract``), so a change to the
  feature code cannot change the classifier workloads' inputs.

Generation runs in its own process (``python3 perfbench/inputs.py``) so its
memory never counts toward the measured command's peak RSS.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

# Bump when the generated bytes change, so stale cache entries are not reused.
GENERATOR_VERSION = 1
CACHE_KEEP = 12

ACTIONS = 20
CHANNELS = 8
TRIALS = 15
NORMAL_ACTIONS = 10

# Neighbouring electrodes leak into each other: a chain over the upper-limb
# channels 1-4 and one over the lower-limb channels 5-8.
_COUPLING = np.zeros((CHANNELS, CHANNELS))
for _i, _j in ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (3, 6)):
    _COUPLING[_i, _j] = _COUPLING[_j, _i] = 1.0


@dataclass(frozen=True)
class Corpus:
    """Recording tree: ``subjects`` x ``actions`` files of ``rows`` x 8 integers."""

    subjects: tuple = (1, 2, 3, 4)
    actions: tuple = tuple(range(1, ACTIONS + 1))
    rows: int = 10000

    kind = "corpus"


@dataclass(frozen=True)
class Matrix:
    """Feature matrix of ``subjects`` x 20 actions x ``trials`` rows."""

    subjects: int = 4
    trials: int = TRIALS

    kind = "matrix"


def _action_file(root: str, subject: int, action: int) -> str:
    from emgactions.dataset import ACTION_LABELS

    group = "Normal" if action <= NORMAL_ACTIONS else "Aggressive"
    return os.path.join(root, f"sub{subject}", group, "Txt", f"{ACTION_LABELS[action]}.txt")


def recording(seed: int, subject: int, action: int, rows: int) -> np.ndarray:
    """Integer samples (rows, 8) of one (subject, action) recording.

    Each channel is coloured noise with one spectral resonance. Its centre
    frequency and gain depend a little on the class and subject and jitter
    from trial to trial by about as much, and neighbouring channels leak
    into each other by a class-dependent but jittered amount. So spectra,
    amplitudes and cross-channel coupling all carry class signal, and the
    classes overlap.
    """
    shared = np.random.default_rng([seed, 0, 0])
    base_freq = shared.uniform(0.04, 0.3, CHANNELS)
    cls = np.random.default_rng([seed, 0, action])
    class_freq = base_freq + cls.normal(0.0, 0.012, CHANNELS)
    class_gain = np.exp(cls.normal(0.0, 0.2, CHANNELS))
    class_coupling = cls.uniform(0.1, 0.5)
    subj = np.random.default_rng([seed, subject, 0])
    subject_freq = subj.normal(0.0, 0.006, CHANNELS)
    subject_gain = np.exp(subj.normal(0.0, 0.15, CHANNELS))

    rng = np.random.default_rng([seed, subject, action])
    n = max(rows // TRIALS, 2)
    freq = np.clip(
        class_freq + subject_freq + rng.normal(0.0, 0.012, (TRIALS, CHANNELS)), 0.01, 0.45
    )
    gain = class_gain * subject_gain * np.exp(rng.normal(0.0, 0.2, (TRIALS, CHANNELS)))
    coupling = np.clip(class_coupling + rng.normal(0.0, 0.12, TRIALS), 0.0, None)

    # Two-pole resonance with radius 0.9, applied in the frequency domain.
    z = np.exp(-2j * np.pi * np.fft.rfftfreq(n))
    c = np.cos(2 * np.pi * freq)[..., np.newaxis]
    response = 1.0 / np.abs(1.0 - 1.8 * c * z + 0.81 * z * z)
    noise = rng.standard_normal((TRIALS, CHANNELS, n))
    shaped = np.fft.irfft(np.fft.rfft(noise, axis=-1) * response, n=n, axis=-1)
    shaped /= shaped.std(axis=-1, keepdims=True)
    shaped += 0.3 * rng.standard_normal(shaped.shape)
    mixed = shaped + coupling[:, np.newaxis, np.newaxis] * np.einsum(
        "ij,tjn->tin", _COUPLING, shaped
    )
    signal = 80.0 * gain[..., np.newaxis] * mixed
    samples = signal.transpose(0, 2, 1).reshape(TRIALS * n, CHANNELS)
    tail = 80.0 * rng.standard_normal((rows - samples.shape[0], CHANNELS))
    return np.rint(np.vstack([samples, tail])).astype(np.int64)


def write_corpus(root: str, spec: Corpus, seed: int) -> None:
    for subject in spec.subjects:
        for action in spec.actions:
            path = _action_file(root, subject, action)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            samples = recording(seed, subject, action, spec.rows)
            with open(path, "w", encoding="utf-8") as fh:
                np.savetxt(fh, samples, fmt="%d")


def matrix(seed: int, spec: Matrix):
    """(X, y, subjects, trials, names) for a generated feature matrix.

    Class signal sits in the shipped reference columns plus a few random
    others, weak against unit noise so classes overlap; every other column
    is pure noise. Column offsets and scales span four decades.
    """
    from emgactions.features.assemble import FeatureConfig, registry_for
    from emgactions.selection import reference_selection

    registry = registry_for(FeatureConfig())
    d = len(registry)
    rng = np.random.default_rng([seed, 1])
    informative = set(i - 1 for i in reference_selection(registry))
    informative |= set(rng.choice(d, 24, replace=False).tolist())
    informative = np.array(sorted(informative))
    strength = np.zeros(d)
    strength[informative] = rng.uniform(0.3, 0.75, informative.size)
    class_means = rng.standard_normal((ACTIONS, d)) * strength
    subject_means = rng.standard_normal((spec.subjects, d)) * strength * 0.5
    scale = 10.0 ** rng.uniform(-2.0, 2.0, d)
    offset = rng.normal(0.0, 3.0, d) * scale

    subjects = np.repeat(np.arange(1, spec.subjects + 1), ACTIONS * spec.trials)
    y = np.tile(np.repeat(np.arange(1, ACTIONS + 1), spec.trials), spec.subjects)
    trials = np.tile(np.arange(1, spec.trials + 1), spec.subjects * ACTIONS)
    z = class_means[y - 1] + subject_means[subjects - 1] + rng.standard_normal((y.size, d))
    return offset + scale * z, y, subjects, trials, registry.names()


def write_matrix(root: str, spec: Matrix, seed: int) -> None:
    X, y, subjects, trials, names = matrix(seed, spec)
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "features.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(names) + ["subject_id", "trial_index", "label"])
        for row, s, t, label in zip(X, subjects, trials, y):
            writer.writerow([repr(float(v)) for v in row] + [int(s), int(t), int(label)])


def generate(spec, seed: int, root: str) -> None:
    (write_corpus if spec.kind == "corpus" else write_matrix)(root, spec, seed)


def _spec_from_json(payload: dict):
    kind = payload.pop("kind")
    if kind == "corpus":
        return Corpus(**{k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()})
    return Matrix(**payload)


def _cache_key(spec, seed: int) -> str:
    fields = "-".join(
        f"{k}{'_'.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in asdict(spec).items()
    )
    return f"{spec.kind}-v{GENERATOR_VERSION}-{fields}-seed{seed}"


def ensure(spec, seed: int, cache_dir: str, src_dir: str) -> str:
    """Return the directory holding the generated input, generating it if absent.

    Generation runs in a child process. A finished entry is published by an
    atomic rename; the least recently used entries beyond CACHE_KEEP are
    removed.
    """
    os.makedirs(cache_dir, exist_ok=True)
    final = os.path.join(cache_dir, _cache_key(spec, seed))
    if not os.path.isdir(final):
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        payload = json.dumps({"kind": spec.kind, **asdict(spec)})
        env = dict(os.environ, PYTHONPATH=src_dir)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), payload, str(seed), tmp],
            env=env,
            check=True,
        )
        os.rename(tmp, final)
    os.utime(final)
    entries = sorted(
        (os.path.join(cache_dir, e) for e in os.listdir(cache_dir)),
        key=os.path.getmtime,
        reverse=True,
    )
    for stale in entries[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)
    return final


if __name__ == "__main__":
    spec_json, seed_arg, out = sys.argv[1:4]
    start = time.perf_counter()
    generate(_spec_from_json(json.loads(spec_json)), int(seed_arg), out)
    print(f"generated {out} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
