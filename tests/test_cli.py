import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import emgactions
from emgactions.cli import main
from emgactions.features.autoregressive import PoleOnGridError
from emgactions.features.export import read_feature_csv
from emgactions.features.registry import build_registry
from emgactions.selection import reference_selection

from ._synth import blobs

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


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExtract:
    def test_outputs_match_dataset(self, workspace):
        X, y, subjects, trials, names = read_feature_csv(workspace["features"])
        assert X.shape == (12, 276)
        assert y.tolist() == [1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2]
        assert subjects.tolist() == [1] * 6 + [2] * 6
        assert trials.tolist() == [1, 2, 3] * 4
        assert list(names) == list(build_registry().names())
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

    def test_pole_on_grid_is_input_error(self, tmp_path, capsys, monkeypatch):
        # A zeroed channel fits a zero-noise AR model; a stand-in ar_psd fails
        # on exactly that model, as a near-unstable fit would.
        from emgactions.features import assemble

        rows = np.random.default_rng(0).normal(0, 1.0, (3 * 40, 8))
        rows[80:, 2] = 0.0  # trial 3, channel 3
        np.savetxt(tmp_path / "Bowing.txt", rows, fmt="%.6f")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"root = {tmp_path}\ntrials = 3\nchannels = 8\nentry = Bowing.txt 4 7\n")
        real = assemble.ar_psd

        def ar_psd(model, grid_size=100):
            if np.any(np.asarray(model.noise_variance) == 0.0):
                raise PoleOnGridError("AR denominator vanished on the frequency grid")
            return real(model, grid_size)

        monkeypatch.setattr(assemble, "ar_psd", ar_psd)
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
        assert f"error: {data / 'b.txt'}: line 121: expected 8 fields, got 3" in err
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
        names = build_registry().names()
        scores = []
        for step, row in enumerate(body, start=1):
            assert int(row[0]) == step
            idx = int(row[1])
            assert 1 <= idx <= 276
            assert row[2] == names[idx - 1]
            scores.append(float(row[3]))
        assert scores == sorted(scores)
        assert scores[-1] > 0.9


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
        assert report["selected"] == list(reference_selection(build_registry()))
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
        # Column 41 spreads 5e-161 in training, so a test row's 1e-3 there
        # overflows every squared distance instead of scoring a label.
        rows = rows_of(workspace["features"])
        for i, row in enumerate(rows[1:]):
            row[40] = repr(1e-160 * (i % 2))
        rows[4][40] = repr(1e-3)
        bad = tmp_path / "features.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rc = main([
            "eval",
            "--config", str(workspace["config"]),
            "--features", str(bad),
            "--selected", "1,41",
            "--out", str(tmp_path / "eval"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "has no finite class score: column 1 lies 2" in err
        assert not (tmp_path / "eval").exists()

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
        [("eval", "sigma = nan"), ("eval", "sigma = inf"), ("select", "sfs_sigma = nan")],
    )
    def test_non_finite_sigma_exits_2(self, workspace, tmp_path, capsys, command, line):
        # Such a width labels every pattern class 1: a plausible-looking metric.
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

    def test_window_and_sigma_words(self, tmp_path):
        from emgactions.experiment import read_config

        cfg = tmp_path / "ok.cfg"
        cfg.write_text("window = full\nsigma = auto\nsigma_grid = 0.1, 0.5\npairs = 1-2; 3-4\n")
        parsed = read_config(str(cfg))
        assert parsed.window is None
        assert parsed.sigma is None
        assert parsed.sigma_grid == (0.1, 0.5)
        assert parsed.pairs == ((1, 2), (3, 4))
