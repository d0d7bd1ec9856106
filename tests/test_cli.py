import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

import emgactions
from emgactions import cli
from emgactions.cli import main
from emgactions.crossval import SigmaGridEdgeWarning, monte_carlo
from emgactions.experiment import read_config
from emgactions.features.assemble import FeatureConfig, registry_for
from emgactions.features.autoregressive import PoleOnGridError
from emgactions.features.export import read_feature_csv
from emgactions.selection import reference_selection

from ._synth import assert_no_child_left, blobs, count_forks, force_fork

ACTIONS = {1: "Bowing", 2: "Clapping"}


def write_recording(path, subject, action, trials=3, samples=40, channels=8):
    # class 2 carries 5x the amplitude, so the classes separate on variance
    rng = np.random.default_rng(subject * 10 + action)
    rows = rng.normal(0, 1.0, (trials * samples, channels))
    if action == 2:
        rows *= 5.0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(" ".join(f"{v:.6f}" for v in row) + "\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "data"
    for subject in (1, 2):
        d = data / f"sub{subject}"
        d.mkdir(parents=True)
        for action, name in ACTIONS.items():
            write_recording(d / f"{name}.txt", subject, action)
    manifest = ws / "manifest.txt"
    manifest.write_text(
        "root = data\n"
        "trials = 3\n"
        "channels = 8\n"
        "entry = sub1/Bowing.txt 1 1\n"
        "entry = sub1/Clapping.txt 1 2\n"
        "entry = sub2/Bowing.txt 2 1\n"
        "entry = sub2/Clapping.txt 2 2\n"
    )
    config = ws / "run.cfg"
    config.write_text(
        "cv_folds = 3\n"
        "runs = 2\n"
        "sigma = 0.5\n"
        "sfs_folds = 2\n"
        "max_features = 2\n"
    )
    features_dir = ws / "features"
    assert main(["extract", "--manifest", str(manifest), "--out", str(features_dir)]) == 0
    return {
        "manifest": manifest,
        "data": data,
        "config": config,
        "features": features_dir / "features.csv",
        "registry_csv": features_dir / "registry.csv",
    }


def fail_on_zero_noise_ar(monkeypatch):
    """Make extraction's ar_psd fail on a zero-noise AR model, the fit of a
    zeroed channel, as it would on a near-unstable fit."""
    from emgactions.features import assemble

    real = assemble.ar_psd

    def ar_psd(model, grid_size=100):
        if np.any(np.asarray(model.noise_variance) == 0.0):
            raise PoleOnGridError("AR denominator vanished on the frequency grid")
        return real(model, grid_size)

    monkeypatch.setattr(assemble, "ar_psd", ar_psd)


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def tiny_spread_features(workspace, tmp_path):
    """features.csv whose column 41 spreads 5e-161, except data row 4's 1e-3:
    that row's squared distances overflow instead of scoring a label."""
    rows = rows_of(workspace["features"])
    for i, row in enumerate(rows[1:]):
        row[40] = repr(1e-160 * (i % 2))
    rows[4][40] = repr(1e-3)
    bad = tmp_path / "features.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return bad


class TestExtract:
    def test_outputs_match_dataset(self, workspace):
        X, y, subjects, trials, names = read_feature_csv(workspace["features"])
        assert X.shape == (12, 276)
        assert y.tolist() == [1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2]
        assert subjects.tolist() == [1] * 6 + [2] * 6
        assert trials.tolist() == [1, 2, 3] * 4
        assert list(names) == list(registry_for(FeatureConfig()).names())
        assert np.all(np.isfinite(X))

    def test_registry_csv(self, workspace):
        rows = rows_of(workspace["registry_csv"])
        assert rows[0] == ["index", "modality", "channel", "name"]
        assert len(rows) == 277
        assert rows[1] == ["1", "tds", "1", "tds_ch1_mean"]
        assert rows[33][1] == "ics"
        assert rows[33][2] == "3-4"

    def test_directory_scan(self, workspace, tmp_path):
        # pointing --manifest at the tree root scans it with 15 trials/file
        out = tmp_path / "scan"
        assert main(["extract", "--manifest", str(workspace["data"]), "--out", str(out)]) == 0
        X, y, subjects, _, _ = read_feature_csv(out / "features.csv")
        assert X.shape == (60, 276)
        assert subjects.tolist() == [1] * 30 + [2] * 30
        assert y.tolist() == ([1] * 15 + [2] * 15) * 2

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "again"
        assert main(["extract", "--manifest", str(workspace["manifest"]), "--out", str(out)]) == 0
        assert (out / "features.csv").read_bytes() == workspace["features"].read_bytes()

    def test_missing_manifest(self, tmp_path, capsys):
        rc = main(["extract", "--manifest", str(tmp_path / "absent.txt"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_manifest_required(self, tmp_path, capsys):
        assert main(["extract", "--out", str(tmp_path)]) == 2

    def test_empty_directory_names_it(self, tmp_path, capsys):
        data = tmp_path / "data"
        (data / "sub1").mkdir(parents=True)
        (data / "sub1" / "notes.txt").write_text("not an action\n")
        rc = main(["extract", "--manifest", str(data), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: no recording found: {data} holds no action-named .txt file" in err
        assert not (tmp_path / "out").exists()

    def test_manifest_without_entries_names_it(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("root = data\ntrials = 3\n")
        rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: no recording found: manifest {manifest} has no 'entry' line" in err
        assert not (tmp_path / "out").exists()

    def test_channel_count_mismatch_names_manifest(self, tmp_path, capsys):
        # Rejected before any file is read: the entry's file does not exist.
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("trials = 3\nchannels = 4\nentry = absent.txt 1 1\n")
        rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: the manifest has channels = 4 but the config has "
            "channels = 8; set both to the recordings' channel count\n"
        )
        assert not (tmp_path / "out").exists()

    def test_pairs_outside_channels_fail_before_reading(self, tmp_path, capsys):
        # Rejected before any file is read: the entry's file does not exist.
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("trials = 3\nchannels = 4\nentry = absent.txt 1 1\n")
        config = tmp_path / "run.cfg"
        config.write_text("channels = 4\n")
        out = tmp_path / "out"
        argv = ["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {config}: pairs has 7-8, but channels = 4; "
            "every pair needs two channels in 1..4\n"
        )
        assert not out.exists()

    def test_four_channel_manifest_and_config(self, tmp_path):
        for action, name in ACTIONS.items():
            write_recording(tmp_path / f"{name}.txt", 1, action, channels=4)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "trials = 3\nchannels = 4\nentry = Bowing.txt 1 1\nentry = Clapping.txt 1 2\n"
        )
        config = tmp_path / "run.cfg"
        config.write_text("channels = 4\npairs = 1-2; 3-4\n")
        out = tmp_path / "out"
        argv = ["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]
        assert main(argv) == 0
        X, _, _, _, names = read_feature_csv(out / "features.csv")
        assert X.shape == (6, 4 * 4 + 2 + 4 * 17 + 4 * 10 + 4 * 2)
        assert names[16:18] == ["ics_ch1_ch2", "ics_ch3_ch4"]

    def test_pole_on_grid_is_input_error(self, tmp_path, capsys, monkeypatch):
        rows = np.random.default_rng(0).normal(0, 1.0, (3 * 40, 8))
        rows[80:, 2] = 0.0  # trial 3, channel 3
        np.savetxt(tmp_path / "Bowing.txt", rows, fmt="%.6f")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"root = {tmp_path}\ntrials = 3\nchannels = 8\nentry = Bowing.txt 4 7\n")
        fail_on_zero_noise_ar(monkeypatch)
        rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: subject 4 action 7 trial 3 channel 3 sbp: AR denominator vanished" in err

    def test_malformed_middle_file_leaves_no_features(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("a.txt", "b.txt", "c.txt"):
            write_recording(data / name, 1, 1)
        with open(data / "b.txt", "a", encoding="utf-8") as fh:
            fh.write("1 2 3\n")  # line 121 of a 3 x 40 sample file
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "root = data\ntrials = 3\nchannels = 8\n"
            "entry = a.txt 1 1\nentry = b.txt 1 2\nentry = c.txt 1 3\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["extract", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {data / 'b.txt'}:121: expected 8 fields, got 3" in err
        assert not (out / "features.csv").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedExtract:
    """extract on one CPU, then on three, one recording per process, writes
    and fails as the serial run does; b.txt and c.txt are extracted in
    children."""

    NAMES = ("a.txt", "b.txt", "c.txt")

    def corpus(self, tmp_path, names=NAMES):
        data = tmp_path / "data"
        data.mkdir()
        for action, name in enumerate(names, start=1):
            write_recording(data / name, 1, action)
        manifest = tmp_path / "manifest.txt"
        entries = "".join(f"entry = {name} 1 {a}\n" for a, name in enumerate(names, 1))
        manifest.write_text("root = data\ntrials = 3\nchannels = 8\n" + entries)
        return data, manifest

    @staticmethod
    def serial_and_forked(tmp_path, monkeypatch, capsys, manifest):
        """(exit code, stderr, out directory) of a serial, then a forked run;
        each leaves the temporary directory empty."""
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))

        def run(out):
            rc = main(["extract", "--manifest", str(manifest), "--out", str(out)])
            assert list(temp.iterdir()) == []
            return rc, capsys.readouterr().err, out

        forked = count_forks(monkeypatch, 1)
        serial = run(tmp_path / "serial")
        assert forked == []
        forked = count_forks(monkeypatch, 3)
        runs = serial, run(tmp_path / "forked")
        assert len(forked) == 2
        assert_no_child_left()
        return runs

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("entries", [1, 2, 3])
    def test_one_process_per_cpu_and_recording(self, tmp_path, monkeypatch, capsys, cpus, entries):
        # No distance threshold: even these 3 KB recordings fork.
        _, manifest = self.corpus(tmp_path, self.NAMES[:entries])
        forked = count_forks(monkeypatch, cpus)
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert len(forked) == min(entries, cpus) - 1
        assert_no_child_left()
        assert len(rows_of(out / "features.csv")) == 1 + 3 * entries

    def test_outputs_match_serial(self, tmp_path, monkeypatch, capsys):
        _, manifest = self.corpus(tmp_path)
        serial, forked = self.serial_and_forked(tmp_path, monkeypatch, capsys, manifest)
        assert serial[:2] == forked[:2] == (0, "")
        for out in (serial[2], forked[2]):
            assert sorted(p.name for p in out.iterdir()) == ["features.csv", "registry.csv"]
        for name in ("features.csv", "registry.csv"):
            assert (serial[2] / name).read_bytes() == (forked[2] / name).read_bytes()

    @pytest.mark.parametrize(
        "fault", ["malformed_middle", "malformed_last", "non_utf8", "too_short", "extractor", "two"]
    )
    def test_error_matches_serial(self, tmp_path, monkeypatch, capsys, fault):
        data, manifest = self.corpus(tmp_path)
        b, c = data / "b.txt", data / "c.txt"
        if fault in ("malformed_middle", "malformed_last", "two"):
            bad = b if fault != "malformed_last" else c
            with open(bad, "a", encoding="utf-8") as fh:
                fh.write("1 2 3\n")  # line 121 of a 3 x 40 sample file
            expected = f"error: {bad}:121: expected 8 fields, got 3"
        if fault in ("non_utf8", "two"):
            lines = c.read_bytes().split(b"\n")
            lines[1] = b"\xff" + lines[1]
            c.write_bytes(b"\n".join(lines))
            if fault == "non_utf8":
                expected = f"error: {c}:2: byte 0xff is not UTF-8 text"
        if fault == "too_short":
            b.write_text("1 2 3 4 5 6 7 8\n1 2 3 4 5 6 7 8\n")
            expected = f"error: {b}: 2 samples cannot supply 3 non-empty trials"
        if fault == "extractor":
            rows = np.loadtxt(c)
            rows[80:, 2] = 0.0  # trial 3, channel 3
            np.savetxt(c, rows, fmt="%.6f")
            fail_on_zero_noise_ar(monkeypatch)
            expected = (
                "error: subject 1 action 3 trial 3 channel 3 sbp: "
                "AR denominator vanished on the frequency grid"
            )
        serial, forked = self.serial_and_forked(tmp_path, monkeypatch, capsys, manifest)
        assert serial[:2] == forked[:2] == (2, expected + "\n")
        for _, _, out in (serial, forked):
            assert not (out / "features.csv").exists()


class TestSelect:
    def test_writes_trace(self, workspace, tmp_path, capsys):
        out = tmp_path / "sel"
        rc = main([
            "select",
            "--config", str(workspace["config"]),
            "--features", str(workspace["features"]),
            "--out", str(out),
        ])
        assert rc == 0
        rows = rows_of(out / "selection.csv")
        assert rows[0] == ["step", "index", "name", "criterion"]
        body = rows[1:]
        assert 1 <= len(body) <= 2
        names = registry_for(FeatureConfig()).names()
        scores = []
        for step, row in enumerate(body, start=1):
            assert int(row[0]) == step
            idx = int(row[1])
            assert 1 <= idx <= 276
            assert row[2] == names[idx - 1]
            scores.append(float(row[3]))
        assert scores == sorted(scores)
        assert scores[-1] > 0.9


    def test_prints_one_progress_line_per_step(self, workspace, tmp_path, capsys):
        out = tmp_path / "sel"
        rc = main([
            "select",
            "--config", str(workspace["config"]),
            "--features", str(workspace["features"]),
            "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        rows = rows_of(out / "selection.csv")[1:]
        assert captured.out == f"wrote {out / 'selection.csv'} ({len(rows)} features)\n"
        lines = captured.err.splitlines()
        assert len(lines) == len(rows) >= 1
        for line, (step, idx, name, score) in zip(lines, rows):
            expected = rf"step {step}: feature {idx} \({re.escape(name)}\) criterion {float(score):.4f} "
            assert re.fullmatch(expected + r"at \d+\.\d s", line), line

    def test_selection_file_feeds_eval(self, workspace, tmp_path):
        out = tmp_path / "sel"
        argv = ["--config", str(workspace["config"]), "--features", str(workspace["features"])]
        assert main(["select", *argv, "--out", str(out)]) == 0
        selection = out / "selection.csv"
        assert main(["eval", *argv, "--selected", str(selection), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected"] == [int(row[1]) for row in rows_of(selection)[1:]]


class TestEval:
    def run_eval(self, workspace, out, extra=()):
        return main([
            "eval",
            "--config", str(workspace["config"]),
            "--features", str(workspace["features"]),
            "--out", str(out),
            *extra,
        ])

    def test_full_feature_set(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        report = json.loads((out / "report.json").read_text())
        assert printed == f"alpha={report['alpha']:.4f} kappa={report['kappa']:.4f}"
        assert report["alpha"] == 1.0
        assert report["kappa"] == 1.0
        assert report["runs"] == 2
        assert report["folds"] == 3
        assert report["selected"] == list(range(1, 277))
        assert len(report["alphas"]) == 2
        assert report["config"]["cv_folds"] == 3
        confusion = np.array(report["confusion"])
        assert confusion.sum() == 12 * 2
        rows = rows_of(out / "confusion.csv")
        assert rows[0] == ["label", "1", "2"]
        assert len(rows) == 3

    def test_report_records_each_folds_sigma(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out) == 0
        assert json.loads((out / "report.json").read_text())["sigmas"] == [[0.5] * 3] * 2
        auto = tmp_path / "auto.cfg"
        auto.write_text("cv_folds = 3\nruns = 2\nsigma = auto\nselection_folds = 2\n")
        assert main([
            "eval", "--config", str(auto), "--features", str(workspace["features"]),
            "--selected", "1,2,3", "--out", str(out),
        ]) == 0
        X, y, _, _, _ = read_feature_csv(str(workspace["features"]))
        cfg = read_config(str(auto))
        expected = monte_carlo(X[:, :3], y, k=3, runs=2, base_seed=0, config=cfg.pnn_config())
        report = json.loads((out / "report.json").read_text())
        assert report["sigmas"] == [list(run) for run in expected.sigmas]

    @pytest.mark.parametrize(
        "lines, expected",
        [
            ("sigma = auto\nsigma_grid = 0.05, 0.5, 5.0", [
                "sigma search chose 0.05, the bottom of the grid, in 4 of 6 folds",
                "sigma search chose 5.0, the top of the grid, in 2 of 6 folds",
            ]),
            ("sigma = auto\nsigma_grid = 0.5", []),
            ("sigma = 0.05\nsigma_grid = 0.05, 5.0", []),
        ],
        ids=["both_edges", "one_value_grid", "fixed_sigma"],
    )
    def test_sigma_search_at_grid_edge_warns(self, workspace, tmp_path, capsys, lines, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cv_folds = 3\nruns = 2\nselection_folds = 2\n{lines}\n")
        argv = ["eval", "--config", str(cfg), "--features", str(workspace["features"])]
        argv += ["--selected", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert [str(w.message) for w in caught if w.category is SigmaGridEdgeWarning] == expected
        # Made an error, the first warning stops the run before it writes a file.
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert main([*argv, "--out", str(tmp_path / "error")]) == (2 if expected else 0)
        assert capsys.readouterr().err == "".join(f"error: {w}\n" for w in expected[:1])
        assert (tmp_path / "error").exists() is not bool(expected)

    def test_reruns_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out) == 0
        first = (out / "report.json").read_bytes()
        assert self.run_eval(workspace, out) == 0
        assert (out / "report.json").read_bytes() == first

    def test_seed_override_recorded(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out, ("--seed", "7")) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["base_seed"] == 7
        assert report["config"]["seed"] == 7

    def test_negative_seed_override_exits_2(self, workspace, tmp_path, capsys):
        assert self.run_eval(workspace, tmp_path / "eval", ("--seed", "-1")) == 2
        assert "error: --seed: seed must be an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_selected_list(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out, ("--selected", "5,6,7")) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected"] == [5, 6, 7]

    def test_selected_reference(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out, ("--selected", "reference")) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected"] == list(reference_selection(registry_for(FeatureConfig())))
        assert report["alpha"] == 1.0

    def test_selected_csv_file(self, workspace, tmp_path):
        sel = tmp_path / "subset.csv"
        sel.write_text("step,index\n1,2\n2,4\n")
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out, ("--selected", str(sel))) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected"] == [2, 4]

    def test_selected_plain_file(self, workspace, tmp_path):
        sel = tmp_path / "subset.txt"
        sel.write_text("3\n9\n")
        out = tmp_path / "eval"
        assert self.run_eval(workspace, out, ("--selected", str(sel))) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected"] == [3, 9]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("step,index,name\n1,2,a\n\n2\n", ":4: no 'index' field in 1 fields"),
            ("3\nx\n", ":2: feature index 'x' is not an integer"),
            ("step,index,name\n", ": no feature index in the selection file"),
            ("\n", ": no feature index in the selection file"),
            ("1\n300\n", ":2: feature index 300 outside 1..276"),
            ("step,index\n1,+2\n2,2_0\n", ":3: feature index '2_0' is not an integer"),
        ],
        ids=["short_row", "bad_cell", "header_only", "empty", "out_of_range", "underscore"],
    )
    def test_bad_selected_file_names_line(self, workspace, tmp_path, capsys, text, message):
        sel = tmp_path / "subset.csv"
        sel.write_text(text)
        assert self.run_eval(workspace, tmp_path / "eval", ("--selected", str(sel))) == 2
        assert f"error: {sel}{message}" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("spec", ["\uff11,2_0", "1_0", "\u0661"])
    def test_selected_list_takes_ascii_integers(self, workspace, tmp_path, capsys, spec):
        assert self.run_eval(workspace, tmp_path / "eval", ("--selected", spec)) == 2
        assert f"error: cannot parse --selected value {spec!r}" in capsys.readouterr().err

    def test_seed_flag_takes_ascii_integers(self, workspace, tmp_path, capsys):
        assert self.run_eval(workspace, tmp_path / "eval", ("--seed", "1_000")) == 2
        assert "error: --seed: seed must be an integer >= 0, got '1_000'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "select", "relevance", "ablate"])
    def test_one_class_exits_2(self, workspace, tmp_path, capsys, command):
        # Were it scored, one class would give alpha 1.0 and kappa 1.0.
        rows = rows_of(workspace["features"])
        for row in rows[1:]:
            row[-1] = "2"
        one = tmp_path / "features.csv"
        with open(one, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rc = main([
            command,
            "--config", str(workspace["config"]),
            "--features", str(one),
            *(() if command == "select" else ("--selected", "reference")),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        message = "error: every sample has label 2; classification needs two classes\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "select", "relevance", "ablate"])
    def test_repeated_pattern_exits_2(self, workspace, tmp_path, capsys, command):
        # Each copy in a training fold would score its twin in the test fold.
        rows = rows_of(workspace["features"])
        twice = tmp_path / "features.csv"
        with open(twice, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows + rows[1:])
        rc = main([
            command,
            "--config", str(workspace["config"]),
            "--features", str(twice),
            *(() if command == "select" else ("--selected", "reference")),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        message = (
            f"error: {twice}:{len(rows) + 1}: the feature values repeat those of line 2 "
            "bit for bit; a pattern must appear once\n"
        )
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_out_of_range_index(self, workspace, tmp_path, capsys):
        assert self.run_eval(workspace, tmp_path, ("--selected", "300")) == 2
        assert "300" in capsys.readouterr().err

    def test_unparseable_selected(self, workspace, tmp_path, capsys):
        assert self.run_eval(workspace, tmp_path, ("--selected", "1,x")) == 2

    def test_corrupt_features(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,feature,file\n1,2\n")
        rc = main([
            "eval",
            "--config", str(workspace["config"]),
            "--features", str(bad),
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    def test_tiny_column_spread_exits_2(self, workspace, tmp_path, capsys):
        bad = tiny_spread_features(workspace, tmp_path)
        rc = main([
            "eval",
            "--config", str(workspace["config"]),
            "--features", str(bad),
            "--selected", "1,41",
            "--out", str(tmp_path / "eval"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: data row 4 has no finite class score: feature 41 (" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize(
        "command, sigma",
        [("eval", "auto"), ("relevance", "0.5"), ("relevance", "auto"), ("ablate", "0.5"), ("select", "0.5")],
    )
    def test_tiny_column_spread_names_row_and_feature(self, workspace, tmp_path, capsys, command, sigma):
        # Each re-indexing layer maps the error back to the file: fold rows,
        # sigma-search rows, the evaluated subset's or a channel's columns.
        bad = tiny_spread_features(workspace, tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cv_folds = 3\nruns = 2\nsigma = {sigma}\nsfs_folds = 2\n")
        rc = main([
            command,
            "--config", str(cfg),
            "--features", str(bad),
            *(() if command == "select" else ("--selected", "1,41")),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        name = rows_of(bad)[0][40]
        assert (
            f"error: {bad}: data row 4 has no finite class score: feature 41 ({name}) "
            "lies 2e+157 training standard deviations from its mean"
        ) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, sigma",
        [
            ("eval", "0.5"),
            ("eval", "auto"),
            ("relevance", "0.5"),
            ("relevance", "auto"),
            ("ablate", "0.5"),
            ("select", "0.5"),
        ],
    )
    def test_tiny_column_spread_prints_only_the_error(self, workspace, tmp_path, capsys, command, sigma):
        # NonFiniteScoreError reports the overflow: a numpy RuntimeWarning
        # would print before the error line, and raised, it exits 1.
        bad = tiny_spread_features(workspace, tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cv_folds = 3\nruns = 2\nsigma = {sigma}\nsfs_folds = 2\n")
        rc = main([
            command,
            "--config", str(cfg),
            "--features", str(bad),
            *(() if command == "select" else ("--selected", "1,41")),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, workspace, tmp_path, capsys, cell):
        rows = rows_of(workspace["features"])
        rows[3][40] = cell
        bad = tmp_path / "features.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rc = main([
            "eval",
            "--config", str(workspace["config"]),
            "--features", str(bad),
            "--selected", "all",
            "--out", str(tmp_path / "eval"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:4: non-finite value {float(cell)!r} in column {rows[0][40]!r}" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize(
        "column, cell, problem",
        [
            (40, "abc", "non-numeric"),
            (0, "", "non-numeric"),
            (-3, "x", "non-integer"),
            (-2, "1.5", "non-integer"),
            (-1, "x", "non-integer"),
        ],
    )
    def test_non_numeric_cell_rejected(self, workspace, tmp_path, capsys, column, cell, problem):
        rows = rows_of(workspace["features"])
        rows[3][column] = cell
        bad = tmp_path / "features.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rc = main([
            "eval",
            "--config", str(workspace["config"]),
            "--features", str(bad),
            "--selected", "all",
            "--out", str(tmp_path / "eval"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:4: {problem} value {cell!r} in column {rows[0][column]!r}" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["eval", "select"])
    def test_label_below_1_names_line(self, workspace, tmp_path, capsys, command):
        # Were it read, label 0 would fail the fold count: "class 0 has 1 samples".
        rows = rows_of(workspace["features"])
        rows[3][-1] = "0"
        bad = tmp_path / "features.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rc = main([
            command,
            "--config", str(workspace["config"]),
            "--features", str(bad),
            *(("--selected", "1,2,3") if command == "eval" else ()),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        message = f"error: {bad}:4: label 0 in column 'label' is below 1\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "named, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, None)], ids=["unset", "set"]
    )
    def test_command_runs_blas_on_one_thread_unless_told(self, named, expected):
        # The forked folds are the parallelism; a BLAS pool per CPU in each
        # of them would oversubscribe the CPUs.
        src = os.path.dirname(os.path.dirname(emgactions.__file__))
        env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREADS}
        done = subprocess.run(
            [sys.executable, "-c",
             "import os, emgactions.cli; print(os.environ.get('OMP_NUM_THREADS'))"],
            env=dict(env, PYTHONPATH=src, **named), check=True, capture_output=True, text=True,
        )
        assert done.stdout == f"{expected}\n"

    def test_byte_identical_across_blas_threads(self, tmp_path):
        # Large enough that OpenBLAS splits the distance matmuls across threads.
        X, y = blobs(n_per_class=100, n_classes=4, dim=40, spread=2.0, separation=0.5, seed=3)
        features = tmp_path / "features.csv"
        with open(features, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"f{i}" for i in range(1, 41)] + ["subject_id", "trial_index", "label"])
            for row, label in zip(X, y):
                writer.writerow([repr(float(v)) for v in row] + [1, 1, int(label)])
        config = tmp_path / "run.cfg"
        config.write_text("cv_folds = 4\nruns = 1\nsigma = auto\n")
        out = tmp_path / "eval"
        src = os.path.dirname(os.path.dirname(emgactions.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "emgactions.cli", "eval", "--config", str(config),
                 "--features", str(features), "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append(((out / "report.json").read_bytes(), (out / "confusion.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestRelevance:
    def test_per_channel_rows(self, workspace, tmp_path):
        out = tmp_path / "rel"
        rc = main([
            "relevance",
            "--config", str(workspace["config"]),
            "--features", str(workspace["features"]),
            "--selected", "reference",
            "--out", str(out),
        ])
        assert rc == 0
        rows = rows_of(out / "relevance.csv")
        assert rows[0] == ["channel", "alpha", "kappa"]
        assert [r[0] for r in rows[1:]] == [str(c) for c in range(1, 9)]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert -1.0 <= float(row[2]) <= 1.0

    def test_each_warning_is_one_line(self, workspace, tmp_path):
        # Channel 1 loses both features; no feature touches channels 2..8.
        src = os.path.dirname(os.path.dirname(emgactions.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "emgactions.cli", "relevance",
             "--config", str(workspace["config"]), "--features", str(workspace["features"]),
             "--selected", "1,2", "--out", str(tmp_path / "rel")],
            env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True,
        )
        assert done.stderr.splitlines() == [
            "warning: omitting channel 1 leaves no features; scoring a constant predictor",
            *(f"warning: no selected feature touches channel {ch}" for ch in range(2, 9)),
        ]

    def test_warning_filters_still_apply(self, workspace, tmp_path):
        import warnings

        shown = warnings.formatwarning
        with pytest.warns(UserWarning) as record:
            main([
                "relevance",
                "--config", str(workspace["config"]),
                "--features", str(workspace["features"]),
                "--selected", "1,2",
                "--out", str(tmp_path / "rel"),
            ])
        assert len(record) == 8
        assert warnings.formatwarning is shown


    def test_warning_made_an_error_exits_2(self, workspace, tmp_path, capsys):
        # As under python -W error::UserWarning: the warning flags the subset.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            rc = main([
                "relevance",
                "--config", str(workspace["config"]),
                "--features", str(workspace["features"]),
                "--selected", "1,2",
                "--out", str(tmp_path / "rel"),
            ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: omitting channel 1 leaves no features; scoring a constant predictor\n"
        )

    def test_other_warning_made_an_error_is_internal(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def deprecated(*args, **kwargs):
            raise DeprecationWarning("old call")

        monkeypatch.setattr(cli, "channel_relevance", deprecated)
        rc = main([
            "relevance",
            "--config", str(workspace["config"]),
            "--features", str(workspace["features"]),
            "--selected", "1,2",
            "--out", str(tmp_path / "rel"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "internal error: DeprecationWarning: old call\n"


class TestAblate:
    def test_group_rows(self, workspace, tmp_path):
        out = tmp_path / "abl"
        rc = main([
            "ablate",
            "--config", str(workspace["config"]),
            "--features", str(workspace["features"]),
            "--selected", "reference",
            "--out", str(out),
        ])
        assert rc == 0
        rows = rows_of(out / "ablation.csv")
        assert rows[0] == ["group", "alpha", "kappa", "delta_kappa"]
        assert [r[0] for r in rows[1:]] == ["baseline", "ics", "lmf"]
        assert rows[1][3] == ""
        for row in rows[2:]:
            float(row[3])  # parses


@pytest.mark.parametrize("source", ["list", "csv_file", "plain_file"])
@pytest.mark.parametrize("command", ["eval", "relevance", "ablate"])
def test_repeated_index_exits_2(workspace, tmp_path, capsys, command, source):
    # Repeated, a column would count twice in every distance.
    if source == "list":
        selected, message = "1,45,1", "--selected repeats feature index 1"
    else:
        selected = tmp_path / "subset.txt"
        if source == "csv_file":
            selected.write_text("step,index\n1,45\n2,1\n3,45\n")
            message = f"{selected}:4: feature index 45 repeated (first on line 2)"
        else:
            selected.write_text("45\n1,45\n")
            message = f"{selected}:2: feature index 45 repeated (first on line 1)"
    rc = main([
        command,
        "--config", str(workspace["config"]),
        "--features", str(workspace["features"]),
        "--selected", str(selected),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "relevance", "ablate"])
def test_selection_file_names_checked(workspace, tmp_path, capsys, command):
    # A selection.csv made on another layout names other features.
    selected = tmp_path / "selection.csv"
    selected.write_text("step,index,name,criterion\n1,5,tds_ch2_mean,0.5\n2,45,also_wrong,0.6\n")
    argv = [command, "--config", str(workspace["config"]), "--features", str(workspace["features"])]
    assert main([*argv, "--selected", str(selected), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {selected}:3: feature index 45 is named 'also_wrong', "
        "but the features file names it 'lmf_ch1_f1'\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["warning_made_an_error", "overflow"])
def test_process_exits_2_with_one_error_line(workspace, tmp_path, case):
    # What a shell sees: the exit code, and stderr holding the error line
    # alone. The installed console script runs where there is one.
    script = shutil.which("emgactions")
    argv = [script] if script else [sys.executable, "-m", "emgactions.cli"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(emgactions.__file__)))
    if case == "warning_made_an_error":
        env["PYTHONWARNINGS"] = "error::UserWarning"
        argv += ["relevance", "--features", str(workspace["features"]), "--selected", "1,2"]
    else:
        bad = tiny_spread_features(workspace, tmp_path)
        argv += ["eval", "--features", str(bad), "--selected", "1,41"]
    argv += ["--config", str(workspace["config"]), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize(
    "kind", ["recording", "manifest", "config", "features", "features_header", "selection"]
)
def test_non_utf8_input_names_path_and_line(workspace, tmp_path, capsys, kind):
    # In the recording and in features.csv the bad byte lies past the first
    # 8 KB decoded chunk, where a decode error's own position is misleading.
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"root = {workspace['data']}\ntrials = 3\nentry = sub1/Bowing.txt 1 1\n")
    argv = ["extract", "--manifest", str(manifest)]
    if kind == "recording":
        bad, line = tmp_path / "Bowing.txt", 120
        write_recording(bad, 1, 1)
        manifest.write_text(f"root = {tmp_path}\ntrials = 3\nentry = Bowing.txt 1 1\n")
    elif kind == "manifest":
        bad, line = manifest, 2
    elif kind.startswith("features"):
        bad, line = tmp_path / "features.csv", 13 if kind == "features" else 1
        bad.write_bytes(workspace["features"].read_bytes())
        argv = ["eval", "--features", str(bad)]
    else:
        bad, line = tmp_path / f"{kind}.txt", 2
        bad.write_text("1\n1\n")
        argv = ["eval", "--features", str(workspace["features"])]
        argv += ["--config" if kind == "config" else "--selected", str(bad)]
        if kind == "config":
            bad.write_text("runs = 1\n# runs\n")
    lines = bad.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    bad.write_bytes(b"\n".join(lines))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {bad}:{line}: byte 0xff is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestConfig:
    def test_unknown_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        rc = main([
            "eval",
            "--config", str(cfg),
            "--features", str(workspace["features"]),
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("channels = 0", "channels must be an integer >= 1, got '0'"),
            ("channels = eight", "channels must be an integer >= 1, got 'eight'"),
            ("window = 0", "window must be an integer >= 1, got '0'"),
            ("ar_order = 0", "ar_order must be an integer >= 1, got '0'"),
            ("psd_grid = 0", "psd_grid must be an integer >= 1, got '0'"),
            ("n_bands = -1", "n_bands must be an integer >= 1, got '-1'"),
            ("lbp_window = 0", "lbp_window must be an integer >= 1, got '0'"),
            ("lbp_threshold = 1.5", "lbp_threshold must be an integer, got '1.5'"),
            ("selection_folds = 1", "selection_folds must be an integer >= 2, got '1'"),
            ("cv_folds = 0", "cv_folds must be an integer >= 2, got '0'"),
            ("sfs_folds = 1", "sfs_folds must be an integer >= 2, got '1'"),
            ("runs = 0", "runs must be an integer >= 1, got '0'"),
            ("seed = -1", "seed must be an integer >= 0, got '-1'"),
            ("max_features = 0", "max_features must be an integer >= 1, got '0'"),
            ("patience = 0", "patience must be an integer >= 1, got '0'"),
            ("sigma = nan", "sigma must be a finite number > 0, got 'nan'"),
            ("sigma = inf", "sigma must be a finite number > 0, got 'inf'"),
            ("sigma = 0", "sigma must be a finite number > 0, got '0'"),
            ("sfs_sigma = nan", "sfs_sigma must be a finite number > 0, got 'nan'"),
            ("sfs_sigma = -0.3", "sfs_sigma must be a finite number > 0, got '-0.3'"),
            ("sigma_grid = 0.1, inf", "sigma_grid entry must be a finite number > 0, got 'inf'"),
            ("sigma_grid = 0.1; 0", "sigma_grid entry must be a finite number > 0, got '0'"),
            ("sigma = 1e-200", "sigma must be large enough that 1 / (2 sigma^2) is finite, got '1e-200'"),
            ("sigma = 1e-160", "sigma must be large enough that 1 / (2 sigma^2) is finite, got '1e-160'"),
            ("sfs_sigma = 1e-200", "sfs_sigma must be large enough that 1 / (2 sigma^2) is finite, got '1e-200'"),
            ("sigma_grid = 0.1, 1e-200", "sigma_grid entry must be large enough that 1 / (2 sigma^2) is finite, got '1e-200'"),
            ("pairs = 3-4; 4-3", "channel pair '4-3' repeats '3-4'"),
            ("pairs = 3-4, 1-2, 3-4", "channel pair '3-4' repeats '3-4'"),
            ("pairs = 1-2; 2-2", "channel pair '2-2' joins channel 2 to itself"),
            ("pairs = 1-2; 1-x", "bad channel pair '1-x', expected 'i-j'"),
            ("seed = 1_000", "seed must be an integer >= 0, got '1_000'"),
            ("runs = \u0661", "runs must be an integer >= 1, got '\u0661'"),
            ("cv_folds = \uff13", "cv_folds must be an integer >= 2, got '\uff13'"),
            ("pairs = \u0661-\u0662", "bad channel pair '\u0661-\u0662', expected 'i-j'"),
            # Python's float() reads these four; numpy's cell parse does not.
            ("sigma = \u0660.\u0665", "sigma must be a finite number > 0, got '\u0660.\u0665'"),
            ("sigma_grid = 0.1, 1_0.5", "sigma_grid entry must be a finite number > 0, got '1_0.5'"),
            ("sfs_sigma = \uff10.\uff13", "sfs_sigma must be a finite number > 0, got '\uff10.\uff13'"),
            ("sigma = 1_0", "sigma must be a finite number > 0, got '1_0'"),
            ("sfs_sigma =", "sfs_sigma must be a finite number > 0, got ''"),
        ],
    )
    def test_bad_value_names_line(self, tmp_path, line, message):
        from emgactions.experiment import read_config

        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# header\n{line}\n")
        with pytest.raises(ValueError) as exc:
            read_config(str(cfg))
        assert str(exc.value) == f"{cfg}:2: {message}"

    @pytest.mark.parametrize(
        "command, line",
        [
            ("eval", "sigma = nan"),
            ("eval", "sigma = inf"),
            ("select", "sfs_sigma = nan"),
            ("eval", "sigma = 1e-200"),
            ("eval", "sigma = 1e-160"),
            ("eval", "sigma_grid = 0.1, 1e-200"),
            ("select", "sfs_sigma = 1e-200"),
            ("eval", "sigma = \u0660.\u0665"),
            ("eval", "pairs = 3-4;4-3"),
        ],
    )
    def test_non_finite_sigma_exits_2(self, workspace, tmp_path, capsys, command, line):
        # NaN or inf labels every pattern class 1: a plausible-looking metric.
        # A width whose 1 / (2 sigma^2) is not finite has no kernel at all.
        # Arabic-Indic digits, which Python's float() reads, and a repeated
        # channel pair stop every command at the config line too.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        rc = main([
            command,
            "--config", str(cfg),
            "--features", str(workspace["features"]),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert f"error: {cfg}:1: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, line", [("eval", "sigma = 1e-150"), ("select", "sfs_sigma = 1e-150")]
    )
    def test_smallest_computable_sigma_runs(self, workspace, tmp_path, command, line):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"cv_folds = 3\nruns = 1\nsfs_folds = 2\nmax_features = 1\n{line}\n")
        rc = main([
            command,
            "--config", str(cfg),
            "--features", str(workspace["features"]),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0

    @pytest.mark.parametrize(
        "text, pair",
        [("channels = 4\n", "7-8"), ("channels = 4\npairs = 1-2; 0-3\n", "0-3"),
         ("pairs = 1-2; 1-5\nchannels = 4\n", "1-5")],
    )
    def test_pairs_outside_channels_name_config(self, tmp_path, text, pair):
        # channels may come after pairs: the check waits for every key.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_config(str(cfg))
        assert str(exc.value) == (
            f"{cfg}: pairs has {pair}, but channels = 4; every pair needs two channels in 1..4"
        )
        cfg.write_text("pairs = 1-2; 4-3\nchannels = 4\n")
        assert read_config(str(cfg)).features.pairs == ((1, 2), (4, 3))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("psd_grid = 95\n", "psd_grid = 95, but n_bands = 10; "
             "the bands must split psd_grid into equal parts"),
            ("n_bands = 7\npsd_grid = 60\n", "psd_grid = 60, but n_bands = 7; "
             "the bands must split psd_grid into equal parts"),
            ("window = 4\n", "ar_order = 4, but window = 4; "
             "an AR model needs more samples than its order"),
            ("ar_order = 12\nwindow = 10\n", "ar_order = 12, but window = 10; "
             "an AR model needs more samples than its order"),
            ("window = 16\nlbp_window = 17\n", "lbp_window = 17, but window = 16; "
             "the LBP window must fit in the analysis window"),
            # 127 is above every 7-bit code, so the gt127 column is all zero.
            ("lbp_window = 7\n", "lbp_threshold = 127, but lbp_window = 7; "
             "a threshold outside 0..2**7 - 2 leaves one LBP column constant"),
            ("lbp_threshold = -1\n", "lbp_threshold = -1, but lbp_window = 8; "
             "a threshold outside 0..2**8 - 2 leaves one LBP column constant"),
            ("lbp_threshold = 255\n", "lbp_threshold = 255, but lbp_window = 8; "
             "a threshold outside 0..2**8 - 2 leaves one LBP column constant"),
            ("lbp_threshold = 9\nlbp_window = 3\n", "lbp_threshold = 9, but lbp_window = 3; "
             "a threshold outside 0..2**3 - 2 leaves one LBP column constant"),
        ],
    )
    def test_contradicting_feature_keys_fail_before_reading(self, tmp_path, capsys, text, message):
        # Rejected before any file is read: the entry's file does not exist.
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("trials = 3\nchannels = 8\nentry = absent.txt 1 1\n")
        config = tmp_path / "run.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        argv = ["extract", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (out / "features.csv").exists()

    def test_feature_keys_at_their_limits_pass(self, tmp_path):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(
            "window = 5\nar_order = 4\nlbp_window = 5\nlbp_threshold = 30\npsd_grid = 7\nn_bands = 7\n"
        )
        features = read_config(str(cfg)).features
        assert (features.window, features.ar_order, features.lbp_window) == (5, 4, 5)
        cfg.write_text("window = full\nar_order = 50\nlbp_window = 60\n")
        assert read_config(str(cfg)).features.window is None
        for window, threshold in ((5, 0), (5, 2**5 - 2), (1, 0)):
            cfg.write_text(f"lbp_window = {window}\nlbp_threshold = {threshold}\n")
            features = read_config(str(cfg)).features
            assert (features.lbp_window, features.lbp_threshold) == (window, threshold)

    def test_missing_config_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        argv = ["eval", "--config", str(cfg), "--features", str(workspace["features"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: config not found: {cfg}\n"

    def test_paths_resolve_against_config_directory(self, tmp_path):
        cfg = tmp_path / "conf" / "run.cfg"
        cfg.parent.mkdir()
        absolute = tmp_path / "elsewhere"
        cfg.write_text(f"manifest = data/manifest.txt\nout = {absolute}\n")
        parsed = read_config(str(cfg))
        assert parsed.manifest == str(cfg.parent / "data" / "manifest.txt")
        assert parsed.out == str(absolute)
        cfg.write_text(f"manifest = {absolute}\nout = run\n")
        parsed = read_config(str(cfg))
        assert parsed.manifest == str(absolute)
        assert parsed.out == str(cfg.parent / "run")

    def test_features_from_another_layout_exit_2(self, workspace, tmp_path, capsys):
        # The workspace's features.csv holds the default 8-channel layout.
        cfg = tmp_path / "four.cfg"
        cfg.write_text("channels = 4\npairs = 1-2\n")
        features = workspace["features"]
        out = tmp_path / "out"
        argv = ["relevance", "--config", str(cfg), "--features", str(features), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {features}: feature columns do not match the configured registry; "
            "re-extract with the same config or adjust it\n"
        )
        assert not out.exists()

    def test_window_and_sigma_words(self, tmp_path):
        from emgactions.experiment import read_config

        cfg = tmp_path / "ok.cfg"
        cfg.write_text("window = full\nsigma = auto\nsigma_grid = 0.1, 0.5\npairs = 1-2; 3-4\n")
        parsed = read_config(str(cfg))
        assert parsed.features.window is None
        assert parsed.pnn.sigma is None
        assert parsed.pnn.sigma_grid == (0.1, 0.5)
        assert parsed.features.pairs == ((1, 2), (3, 4))

    def test_feature_keys_reach_features(self, tmp_path):
        from emgactions.experiment import ExperimentConfig, read_config
        from emgactions.features.assemble import FeatureConfig

        cfg = tmp_path / "features.cfg"
        cfg.write_text(
            "channels = 9\nwindow = 64\nar_order = 3\npsd_grid = 60\nn_bands = 6\n"
            "lbp_window = 5\nlbp_threshold = 20\npairs = 1-2; 5-8\nruns = 4\n"
        )
        parsed = read_config(str(cfg))
        features = FeatureConfig(
            channels=9, window=64, ar_order=3, psd_grid=60, n_bands=6,
            lbp_window=5, lbp_threshold=20, pairs=((1, 2), (5, 8)),
        )
        assert parsed == ExperimentConfig(features=features, runs=4)
        flat = ExperimentConfig().to_dict()
        flat.update(
            channels=9, window=64, ar_order=3, psd_grid=60, n_bands=6,
            lbp_window=5, lbp_threshold=20, pairs=["1-2", "5-8"], runs=4,
        )
        assert parsed.to_dict() == flat


def _mutate(text: str, mutation: str) -> str:
    """text with one mutation: a token in place of the second field of its
    fourth line, or a rewrite that keeps every value."""
    lines = text.split("\n")
    sep = "," if "," in lines[0] else " "
    if mutation == "crlf":
        return "\r\n".join(lines)
    if mutation == "blank_lines":
        return "\n\n".join(lines)
    fields = lines[3].split(sep)
    if mutation == "leading_space":
        fields[1] = " " + fields[1]
    elif mutation == "leading_zero":  # after any sign; a features.csv label
        signed = fields[-1][0] in "+-"
        fields[-1] = fields[-1][:signed] + "0" + fields[-1][signed:]
    elif mutation == "quoted":
        fields[1] = f'"{fields[1]}"'
    else:
        fields[1] = mutation
    lines[3] = sep.join(fields)
    return "\n".join(lines)


REJECTED = ["1_000", "\u0661\u0662", "\uff17", "quoted"]
KEPT = ["crlf", "blank_lines", "leading_space", "leading_zero"]


class TestMutatedRecording:
    """extract on a recording with one mutation: numpy's bulk parse decides."""

    def extract(self, tmp_path, text):
        tmp_path.mkdir(exist_ok=True)
        rec = tmp_path / "rec.txt"
        rec.write_bytes(text.encode("utf-8"))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("trials = 3\nentry = rec.txt 1 1\n")
        out = tmp_path / "out"
        rc = main(["extract", "--manifest", str(manifest), "--out", str(out)])
        files = [out / "features.csv", out / "registry.csv"]
        return rc, rec, [f.read_bytes() for f in files if f.exists()]

    @pytest.mark.parametrize("mutation", REJECTED)
    def test_rejected_naming_the_line(self, workspace, tmp_path, capsys, mutation):
        text = (workspace["data"] / "sub1" / "Bowing.txt").read_text()
        rc, rec, outputs = self.extract(tmp_path, _mutate(text, mutation))
        assert rc == 2
        assert f"error: {rec}:4: non-numeric field in [" in capsys.readouterr().err
        assert outputs == []

    @pytest.mark.parametrize("mutation", KEPT)
    def test_kept_byte_identical(self, workspace, tmp_path, mutation):
        text = (workspace["data"] / "sub1" / "Bowing.txt").read_text()
        assert _mutate(text, mutation) != text
        rc, _, outputs = self.extract(tmp_path / "mutated", _mutate(text, mutation))
        assert rc == 0
        assert outputs == self.extract(tmp_path / "plain", text)[2]


class TestMutatedFeatures:
    """eval on a features.csv with one mutation: numpy's bulk parse decides."""

    def eval(self, workspace, tmp_path, text, name="features.csv"):
        # report.json records the output directory, so every run writes to one.
        features = tmp_path / name
        features.write_bytes(text.encode("utf-8"))
        out = tmp_path / "out"
        rc = main([
            "eval",
            "--config", str(workspace["config"]),
            "--features", str(features),
            "--selected", "1,2,3",
            "--out", str(out),
        ])
        files = [out / "report.json", out / "confusion.csv"]
        return rc, features, [f.read_bytes() for f in files if f.exists()]

    @pytest.mark.parametrize("mutation", REJECTED)
    def test_rejected_naming_line_and_column(self, workspace, tmp_path, capsys, mutation):
        text = workspace["features"].read_text()
        rc, features, outputs = self.eval(workspace, tmp_path, _mutate(text, mutation))
        assert rc == 2
        name = rows_of(workspace["features"])[0][1]
        cell = _mutate(text, mutation).split("\n")[3].split(",")[1]
        message = f"error: {features}:4: non-numeric value {cell!r} in column {name!r}\n"
        assert capsys.readouterr().err == message
        assert outputs == []

    @pytest.mark.parametrize("mutation", KEPT)
    def test_kept_byte_identical(self, workspace, tmp_path, mutation):
        text = workspace["features"].read_text()
        assert _mutate(text, mutation) != text
        plain = self.eval(workspace, tmp_path, text, "plain.csv")
        rc, _, outputs = self.eval(workspace, tmp_path, _mutate(text, mutation))
        assert rc == 0
        assert outputs == plain[2]
