"""Command-line front end for reproducible extraction and evaluation runs.

Commands: extract, select, eval, relevance, ablate. Every command is driven
by an optional flat key-value config file plus a few overriding flags, and
writes deterministic CSV/JSON outputs: the same config and seed always
produce byte-identical files. Exit codes: 0 success, 1 internal error,
2 user/input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import sys
import tempfile
import time
import warnings
from dataclasses import replace

# A large extract, select, eval, relevance or ablate call runs in forked
# processes, one per usable CPU; a BLAS thread per CPU in each of them would
# oversubscribe the CPUs. numpy's BLAS reads its thread count once, as it
# loads, so this holds for a process that starts with this module and names
# no count itself.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREADS):
    os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

from emgactions.crossval import SigmaGridEdgeWarning, map_chunks, monte_carlo
from emgactions.dataset import load_dataset, parse_int, read_lines, read_manifest, scan_action_tree
from emgactions.experiment import ExperimentConfig, _integer, read_config
from emgactions.features.assemble import extract_feature_matrix, registry_for
from emgactions.features.export import (
    read_feature_csv,
    require_distinct_rows,
    write_feature_csv,
    write_registry_csv,
)
from emgactions.features.registry import BadIndexError
from emgactions.selection import (
    ablation,
    ablation_groups,
    channel_relevance,
    cv_accuracy_criterion,
    reference_selection,
    sfs,
)
from emgactions.pnn import NonFiniteScoreError


def _load_config(args) -> ExperimentConfig:
    cfg = read_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        try:
            cfg = replace(cfg, seed=_integer("seed", args.seed))
        except ValueError as exc:
            raise ValueError(f"--seed: {exc}") from None
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _parse_selected(spec: str, names, registry) -> tuple:
    """Resolve a --selected value into 1-based indices of names, the
    features.csv feature columns.

    Accepts 'all', 'reference', a comma-separated index list, or a path to
    either a selection CSV (with an 'index' column) or a plain list file.
    Where a selection CSV has a 'name' column too, each row's name must be
    the features.csv name at its index. A repeated index is rejected: its
    column would count twice in every distance.
    """
    if spec == "all":
        return tuple(range(1, len(names) + 1))
    if spec == "reference":
        return reference_selection(registry)
    if os.path.isfile(spec):
        cells = _selection_file_cells(spec)
    else:
        cells = [(None, v, None) for v in spec.split(",") if v.strip()]  # no line
        if not cells:
            raise ValueError("empty --selected list")
    lines = {}  # index -> the line it first appears on
    for line, value, name in cells:
        where = "" if line is None else f"{spec}:{line}: "
        idx = parse_int(value)
        if idx is None:
            if line is None:
                raise ValueError(f"cannot parse --selected value {spec!r}")
            raise ValueError(f"{where}feature index {value!r} is not an integer")
        if not 1 <= idx <= len(names):
            raise BadIndexError(f"{where}feature index {idx} outside 1..{len(names)}")
        if name is not None and name != names[idx - 1]:
            raise ValueError(
                f"{where}feature index {idx} is named {name!r}, "
                f"but the features file names it {names[idx - 1]!r}"
            )
        if idx in lines:
            if line is None:
                raise ValueError(f"--selected repeats feature index {idx}")
            raise ValueError(f"{where}feature index {idx} repeated (first on line {lines[idx]})")
        lines[idx] = line
    return tuple(lines)


def _selection_file_cells(path: str) -> list:
    """(line, index text, name or None) of every index in a selection file:
    its 'index' column, and its 'name' column where there is one, if its
    first row names them, else every field. Every row is checked for those
    fields before any is read."""
    reader = csv.reader(read_lines(path))
    rows = [(reader.line_num, row) for row in reader if row]
    header = [c.strip().lower() for c in rows[0][1]] if rows else []
    if "index" in header:
        cols = {key: header.index(key) for key in ("index", "name") if key in header}
        for line, row in rows[1:]:
            for key, col in cols.items():
                if len(row) <= col:
                    raise ValueError(f"{path}:{line}: no {key!r} field in {len(row)} fields")
        named = "name" in cols
        cells = [
            (line, row[cols["index"]], row[cols["name"]].strip() if named else None)
            for line, row in rows[1:]
        ]
    else:
        cells = [(line, v, None) for line, row in rows for v in row]
    if not cells:
        raise ValueError(f"{path}: no feature index in the selection file")
    return cells


@contextlib.contextmanager
def _scores_named(path: str, names, rows, columns=None):
    """Re-raise a NonFiniteScoreError naming the features.csv data row and
    feature; rows and columns map the evaluated matrix's rows and columns
    to the file's."""
    try:
        yield
    except NonFiniteScoreError as exc:
        exc = exc.reindexed(rows=rows, columns=columns)
        raise ValueError(
            f"{path}: data row {exc.row + 1} has no finite class score: feature "
            f"{exc.column + 1} ({names[exc.column]}) lies {exc.spread:.3g} training "
            "standard deviations from its mean, so its squared distances overflow"
        ) from None


def _read_patterns(args, registry_used: bool) -> tuple:
    """(cfg, X, y, names, registry, rows) of an analysis command: its config,
    and its features.csv read once, with no repeated row; where
    registry_used, the file's feature columns must be the configured
    registry's. The patterns are stably sorted by (subject, label, trial),
    so the folds follow the pattern keys, not the file's row order; rows
    holds each sorted pattern's data row of the file."""
    cfg = _load_config(args)
    X, y, subjects, trials, names = read_feature_csv(args.features)
    require_distinct_rows(args.features, X)
    rows = np.lexsort((trials, y, subjects))
    if np.any(rows[1:] < rows[:-1]):  # a file in key order keeps its arrays
        X, y = X[rows], y[rows]
    registry = registry_for(cfg.features)
    if registry_used and list(names) != registry.names():
        raise ValueError(
            f"{args.features}: feature columns do not match the configured registry; "
            "re-extract with the same config or adjust it"
        )
    return cfg, X, y, names, registry, rows


def _warn_grid_edges(config, sigmas) -> None:
    """Warn once per end of config's sigma grid that a fold's search chose:
    such a fold scored no width beyond it. sigmas holds, per run, the width
    each fold chose."""
    grid = sorted(set(config.sigma_grid))
    if config.sigma is not None or len(grid) < 2:
        return
    chosen = [sigma for run in sigmas for sigma in run]
    for edge, end in ((grid[0], "bottom"), (grid[-1], "top")):
        if edge in chosen:
            warnings.warn(
                f"sigma search chose {edge!r}, the {end} of the grid, "
                f"in {chosen.count(edge)} of {len(chosen)} folds",
                SigmaGridEdgeWarning,
                stacklevel=2,
            )


def _cv_args(cfg: ExperimentConfig) -> dict:
    """The cross-validation arguments of monte_carlo under cfg."""
    return dict(k=cfg.cv_folds, runs=cfg.runs, base_seed=cfg.seed, config=cfg.pnn_config())


def _write_table(cfg: ExperimentConfig, name: str, header, rows) -> str:
    """Write a CSV table into the output directory; returns its path."""
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _extract_features(manifest, config, registry, path) -> int:
    """Write the feature rows of every manifest entry, in manifest order, to
    path as write_feature_csv writes extract_feature_matrix(load_dataset(
    manifest), config) with registry; returns the number of rows.

    Every recording path is checked before any file is parsed or any
    process forked. The entries are then cut through map_chunks into
    contiguous runs, one per usable CPU and at most one per recording: this
    process extracts the first run and a forked child each other one, each
    streaming its recordings one at a time and writing its rows to its own
    part file in a temporary directory. Once every run has succeeded, the
    parts are copied to path in manifest order, each after the first
    without its header line, so the file keeps every byte; the first error
    in manifest order is raised with the text a serial run gives, path is
    not written, and the part files are removed either way.
    """
    load_dataset(manifest)  # checks the paths; its iterator is dropped unread
    entries = range(len(manifest.entries))

    with tempfile.TemporaryDirectory() as parts:

        def extract(run) -> tuple:  # run: a range of entry indices
            part = os.path.join(parts, f"{run.start}.csv")
            chunk = replace(manifest, entries=manifest.entries[run.start : run.stop])
            X, y, subjects, trials = extract_feature_matrix(load_dataset(chunk), config)
            write_feature_csv(part, X, y, subjects, trials, registry)
            return part, len(y)

        chunks = map_chunks(extract, entries, len(entries))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as out:
            for n, (part, _) in enumerate(chunks):
                with open(part, "rb") as fh:
                    if n:
                        fh.readline()
                    shutil.copyfileobj(fh, out)
    return sum(rows for _, rows in chunks)


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    manifest_path = args.manifest or cfg.manifest
    if not manifest_path:
        raise ValueError("extract needs a manifest (--manifest or config key)")
    channels = cfg.features.channels
    if os.path.isdir(manifest_path):
        manifest = scan_action_tree(manifest_path, channels=channels)
        if not manifest.entries:
            raise ValueError(f"no recording found: {manifest_path} holds no action-named .txt file")
    else:
        manifest = read_manifest(manifest_path)
        if not manifest.entries:
            raise ValueError(f"no recording found: manifest {manifest_path} has no 'entry' line")
        if manifest.channels != channels:
            raise ValueError(
                f"{manifest_path}: the manifest has channels = {manifest.channels} but the "
                f"config has channels = {channels}; set both to the recordings' channel count"
            )
    features_path = os.path.join(cfg.out, "features.csv")
    registry_path = os.path.join(cfg.out, "registry.csv")
    registry = registry_for(cfg.features)
    patterns = _extract_features(manifest, cfg.features, registry, features_path)
    write_registry_csv(registry_path, registry)
    print(f"wrote {features_path} ({patterns} patterns x {len(registry)} features)")
    print(f"wrote {registry_path}")
    return 0


def cmd_select(args) -> int:
    cfg, X, y, names, _, file_rows = _read_patterns(args, registry_used=False)
    criterion = cv_accuracy_criterion(
        X,
        y,
        k=cfg.sfs_folds,
        sigma=cfg.sfs_sigma,
        seed=cfg.seed,
    )
    start = time.perf_counter()

    def progress(step, idx, score):
        print(
            f"step {step}: feature {idx} ({names[idx - 1]}) criterion {score:.4f} "
            f"at {time.perf_counter() - start:.1f} s",
            file=sys.stderr,
        )

    with _scores_named(args.features, names, file_rows):
        trace = sfs(
            X, y, criterion, max_features=cfg.max_features, patience=cfg.patience, on_step=progress
        )
    rows = [
        [step, idx, names[idx - 1], repr(float(score))]
        for step, (idx, score) in enumerate(trace.steps, start=1)
    ]
    path = _write_table(cfg, "selection.csv", ["step", "index", "name", "criterion"], rows)
    print(f"wrote {path} ({len(trace)} features)")
    return 0


def cmd_eval(args) -> int:
    reference = args.selected == "reference"
    cfg, X, y, names, registry, file_rows = _read_patterns(args, registry_used=reference)
    selected = _parse_selected(args.selected, names, registry)
    cols = np.asarray(selected, dtype=int) - 1
    X = X[:, cols]  # nothing below reads the other columns
    with _scores_named(args.features, names, file_rows, cols):
        result = monte_carlo(X, y, **_cv_args(cfg))
    _warn_grid_edges(cfg.pnn, result.sigmas)  # before any file, as -W error may raise
    confusion = result.confusion.tolist()
    confusion_path = _write_table(
        cfg,
        "confusion.csv",
        ["label", *range(1, len(confusion) + 1)],
        [[c, *row] for c, row in enumerate(confusion, start=1)],
    )
    report_path = os.path.join(cfg.out, "report.json")
    report = {
        "alpha": result.mean_alpha,
        "kappa": result.mean_kappa,
        "std_alpha": result.std_alpha,
        "std_kappa": result.std_kappa,
        "alphas": result.alphas.tolist(),
        "kappas": result.kappas.tolist(),
        "folds": result.folds,
        "runs": result.runs,
        "base_seed": result.base_seed,
        "selected": [int(i) for i in selected],
        "sigmas": [list(run) for run in result.sigmas],
        "confusion": confusion,
        "config": cfg.to_dict(),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"alpha={result.mean_alpha:.4f} kappa={result.mean_kappa:.4f}")
    print(f"wrote {report_path}")
    print(f"wrote {confusion_path}")
    return 0


def cmd_relevance(args) -> int:
    cfg, X, y, names, registry, file_rows = _read_patterns(args, registry_used=True)
    selected = _parse_selected(args.selected, names, registry)
    with _scores_named(args.features, names, file_rows):
        results = channel_relevance(X, y, selected, registry, **_cv_args(cfg))
    _warn_grid_edges(cfg.pnn, [run for res in results for run in res.sigmas])
    rows = [[ch, repr(res.mean_alpha), repr(res.mean_kappa)] for ch, res in enumerate(results, 1)]
    print(f"wrote {_write_table(cfg, 'relevance.csv', ['channel', 'alpha', 'kappa'], rows)}")
    return 0


def cmd_ablate(args) -> int:
    cfg, X, y, names, registry, file_rows = _read_patterns(args, registry_used=True)
    groups = ablation_groups(_parse_selected(args.selected, names, registry), registry)
    groups = {name: idx for name, idx in groups.items() if idx}
    with _scores_named(args.features, names, file_rows):
        results = ablation(X, y, groups, **_cv_args(cfg))
    _warn_grid_edges(cfg.pnn, [run for _, res in results for run in res.sigmas])
    rows, prev = [], None
    for name, res in results:
        delta = "" if prev is None else repr(res.mean_kappa - prev)
        rows.append([name, repr(res.mean_alpha), repr(res.mean_kappa), delta])
        prev = res.mean_kappa
    header = ["group", "alpha", "kappa", "delta_kappa"]
    print(f"wrote {_write_table(cfg, 'ablation.csv', header, rows)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgactions",
        description="Physical-action classification pipeline for multi-channel EMG recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, features=True, selected=False):
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--seed", help="override the config seed")
        p.add_argument("--out", help="output directory (default from config)")
        if features:
            p.add_argument("--features", required=True, help="feature matrix CSV")
        if selected:
            p.add_argument(
                "--selected",
                default="all",
                help="'all', 'reference', comma-separated indices, or a selection file",
            )

    p = sub.add_parser("extract", help="parse recordings and write the feature matrix")
    common(p, features=False)
    p.add_argument("--manifest", help="manifest file or dataset directory to scan")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("select", help="run forward feature selection on a feature matrix")
    common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("eval", help="cross-validated evaluation of a feature subset")
    common(p, selected=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("relevance", help="leave-one-channel-out sensitivity analysis")
    common(p, selected=True)
    p.set_defaults(func=cmd_relevance)

    p = sub.add_parser("ablate", help="cumulative feature-group ablation")
    common(p, selected=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A shown warning is one line; which warnings show is the filters' call.
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except (ValueError, OSError, UserWarning) as exc:
        # A UserWarning gets here only as -W error makes one; it flags input.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
