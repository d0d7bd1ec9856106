"""Command-line front end for reproducible extraction and evaluation runs.

Commands: extract, select, eval, relevance, ablate. Every command is driven
by an optional flat key-value config file plus a few overriding flags, and
writes deterministic CSV/JSON outputs: the same config and seed always
produce byte-identical files. Exit codes: 0 success, 1 internal error,
2 user/input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from emgactions.crossval import monte_carlo
from emgactions.dataset import load_dataset, read_manifest, scan_action_tree
from emgactions.experiment import ExperimentConfig, _integer, read_config
from emgactions.features.assemble import extract_feature_matrix, registry_for
from emgactions.features.export import (
    read_feature_csv,
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
from emgactions.pnn import PnnConfig


def _load_config(args) -> ExperimentConfig:
    cfg = read_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        try:
            cfg = replace(cfg, seed=_integer("seed", str(args.seed)))
        except ValueError as exc:
            raise ValueError(f"--seed: {exc}") from None
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _parse_selected(spec: str | None, n_features: int, registry=None) -> tuple:
    """Resolve a --selected value into 1-based feature indices.

    Accepts 'all', 'reference', a comma-separated index list, or a path to
    either a selection CSV (with an 'index' column) or a plain list file.
    """
    if spec is None or spec == "all":
        indices = tuple(range(1, n_features + 1))
    elif spec == "reference":
        if registry is None:
            raise ValueError("'reference' selection needs the standard feature registry")
        indices = reference_selection(registry)
    elif os.path.isfile(spec):
        indices = _read_selected_file(spec)
    else:
        try:
            indices = tuple(int(v) for v in spec.split(",") if v.strip())
        except ValueError:
            raise ValueError(f"cannot parse --selected value {spec!r}") from None
        if not indices:
            raise ValueError("empty --selected list")
    for idx in indices:
        if not 1 <= idx <= n_features:
            raise BadIndexError(f"feature index {idx} outside 1..{n_features}")
    return indices


def _read_selected_file(path: str) -> tuple:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty selection file")
    header = [c.strip().lower() for c in rows[0]]
    if "index" in header:
        col = header.index("index")
        return tuple(int(row[col]) for row in rows[1:])
    return tuple(int(v) for row in rows for v in row)


def _check_registry(names, registry, context: str) -> None:
    if list(names) != registry.names():
        raise ValueError(
            f"{context}: feature columns do not match the configured registry; "
            "re-extract with the same config or adjust it"
        )


def _write_confusion_csv(path: str, confusion: np.ndarray) -> None:
    C = confusion.shape[0]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [str(c) for c in range(1, C + 1)])
        for c in range(C):
            writer.writerow([c + 1] + [int(v) for v in confusion[c]])


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    manifest_path = args.manifest or cfg.manifest
    if not manifest_path:
        raise ValueError("extract needs a manifest (--manifest or config key)")
    if os.path.isdir(manifest_path):
        manifest = scan_action_tree(manifest_path, channels=cfg.channels)
        if not manifest.entries:
            raise ValueError(f"no recording found: {manifest_path} holds no action-named .txt file")
    else:
        manifest = read_manifest(manifest_path)
        if not manifest.entries:
            raise ValueError(f"no recording found: manifest {manifest_path} has no 'entry' line")
    recordings = load_dataset(manifest)
    feature_config = cfg.feature_config()
    X, y, subjects, trials = extract_feature_matrix(recordings, feature_config)
    registry = registry_for(feature_config, channels=cfg.channels)
    os.makedirs(cfg.out, exist_ok=True)
    features_path = os.path.join(cfg.out, "features.csv")
    registry_path = os.path.join(cfg.out, "registry.csv")
    write_feature_csv(features_path, X, y, subjects, trials, registry)
    write_registry_csv(registry_path, registry)
    print(f"wrote {features_path} ({X.shape[0]} patterns x {X.shape[1]} features)")
    print(f"wrote {registry_path}")
    return 0


def cmd_select(args) -> int:
    cfg = _load_config(args)
    X, y, _, _, names = read_feature_csv(args.features)
    criterion = cv_accuracy_criterion(
        X,
        y,
        k=cfg.sfs_folds,
        config=PnnConfig(sigma=cfg.sfs_sigma),
        seed=cfg.seed,
    )
    trace = sfs(X, y, criterion, max_features=cfg.max_features, patience=cfg.patience)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "selection.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "index", "name", "criterion"])
        for step, (idx, score) in enumerate(trace.steps, start=1):
            writer.writerow([step, idx, names[idx - 1], repr(float(score))])
    print(f"wrote {path} ({len(trace)} features)")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    X, y, _, _, names = read_feature_csv(args.features)
    registry = registry_for(cfg.feature_config(), channels=cfg.channels)
    if args.selected == "reference":
        _check_registry(names, registry, args.features)
    selected = _parse_selected(args.selected, X.shape[1], registry)
    cols = np.asarray(selected, dtype=int) - 1
    result = monte_carlo(
        X[:, cols],
        y,
        k=cfg.cv_folds,
        runs=cfg.runs,
        base_seed=cfg.seed,
        config=cfg.pnn_config(),
    )
    os.makedirs(cfg.out, exist_ok=True)
    report_path = os.path.join(cfg.out, "report.json")
    confusion_path = os.path.join(cfg.out, "confusion.csv")
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
        "confusion": [[int(v) for v in row] for row in result.confusion],
        "config": cfg.to_dict(),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_confusion_csv(confusion_path, result.confusion)
    print(f"alpha={result.mean_alpha:.4f} kappa={result.mean_kappa:.4f}")
    print(f"wrote {report_path}")
    print(f"wrote {confusion_path}")
    return 0


def cmd_relevance(args) -> int:
    cfg = _load_config(args)
    X, y, _, _, names = read_feature_csv(args.features)
    registry = registry_for(cfg.feature_config(), channels=cfg.channels)
    _check_registry(names, registry, args.features)
    selected = _parse_selected(args.selected, X.shape[1], registry)
    results = channel_relevance(
        X,
        y,
        selected,
        registry,
        channels=cfg.channels,
        k=cfg.cv_folds,
        runs=cfg.runs,
        base_seed=cfg.seed,
        config=cfg.pnn_config(),
    )
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "relevance.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["channel", "alpha", "kappa"])
        for ch, res in enumerate(results, start=1):
            writer.writerow([ch, repr(res.mean_alpha), repr(res.mean_kappa)])
    print(f"wrote {path}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    X, y, _, _, names = read_feature_csv(args.features)
    registry = registry_for(cfg.feature_config(), channels=cfg.channels)
    _check_registry(names, registry, args.features)
    selected = _parse_selected(args.selected, X.shape[1], registry)
    groups = ablation_groups(selected, registry)
    groups = {name: idx for name, idx in groups.items() if idx}
    results = ablation(
        X,
        y,
        groups,
        k=cfg.cv_folds,
        runs=cfg.runs,
        base_seed=cfg.seed,
        config=cfg.pnn_config(),
    )
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "ablation.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["group", "alpha", "kappa", "delta_kappa"])
        prev = None
        for name, res in results:
            delta = "" if prev is None else repr(res.mean_kappa - prev)
            writer.writerow([name, repr(res.mean_alpha), repr(res.mean_kappa), delta])
            prev = res.mean_kappa
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emgactions",
        description="Physical-action classification pipeline for multi-channel EMG recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, features=True, selected=False):
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
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
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
