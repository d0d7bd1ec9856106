"""Synthetic data generators and helpers shared across the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from emgactions import crossval
from emgactions.dataset import Recording


def force_fork(monkeypatch, cpus):
    """Fork every call that crossval.map_chunks runs, on cpus CPUs; returns
    the list of pids forked, which grows as calls fork."""
    monkeypatch.setattr(crossval, "FORK_CELLS", 1)
    return count_forks(monkeypatch, cpus)


def count_forks(monkeypatch, cpus):
    """Let crossval.map_chunks use cpus CPUs; returns the list of pids
    forked, which grows as calls fork."""
    monkeypatch.setattr(crossval, "usable_cpus", lambda: cpus)
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def blobs(n_per_class=20, n_classes=2, dim=5, spread=0.2, separation=3.0, seed=0):
    """Well-separated Gaussian blobs: class c centered at c*separation."""
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(c * separation, spread, (n_per_class, dim))
            for c in range(n_classes)
        ]
    )
    y = np.repeat(np.arange(1, n_classes + 1), n_per_class)
    return X, y


def action_recordings(
    n_classes=20,
    per_class=60,
    channels=8,
    samples=256,
    seed=0,
):
    """20-class multi-channel dataset with a single informative channel.

    One recording of per_class trials per class, all from subject 1.

    Channel 1 carries a class-specific AR(2) process (pole angle spread over
    (0, pi)) plus a sinusoid at the class frequency with random phase; the
    remaining channels are white noise with identical statistics across
    classes. Spectral features of channel 1 separate the classes; no other
    channel carries any signal.
    """
    rng = np.random.default_rng(seed)
    recordings = []
    n = np.arange(samples)
    for c in range(1, n_classes + 1):
        omega = np.pi * (c - 0.5) / n_classes
        r = 0.85
        a1, a2 = -2 * r * np.cos(omega), r * r
        trials = np.empty((per_class, channels, samples))
        for X in trials:
            X[:] = rng.standard_normal((channels, samples))
            e = rng.standard_normal(samples)
            x = np.empty(samples)
            x[0] = e[0]
            x[1] = e[1] - a1 * x[0]
            for i in range(2, samples):
                x[i] = e[i] - a1 * x[i - 1] - a2 * x[i - 2]
            phase = rng.uniform(0, 2 * np.pi)
            X[0] = x + 3.0 * np.sin(omega * n + phase)
        recordings.append(Recording(trials, subject_id=1, action_label=c))
    return recordings


def correlated_recordings(
    levels=(0.15, 0.6, 0.95),
    per_class=40,
    channels=8,
    samples=384,
    seed=11,
):
    """Classes that differ only in inter-channel correlation strength.

    Channels 2-4 share a class-specific fraction of channel 1's signal; all
    marginal distributions are standard normal for every class, so
    single-channel statistics carry no class signal while the upper-limb
    channel-pair correlations do. One recording of per_class trials per
    class, all from subject 1.
    """
    rng = np.random.default_rng(seed)
    recordings = []
    for c, level in enumerate(levels, start=1):
        mix = np.sqrt(1.0 - level * level)
        trials = np.empty((per_class, channels, samples))
        for X in trials:
            X[:] = rng.standard_normal((channels, samples))
            base = X[0].copy()
            for ch in (1, 2, 3):
                X[ch] = level * base + mix * rng.standard_normal(samples)
        recordings.append(Recording(trials, subject_id=1, action_label=c))
    return recordings
