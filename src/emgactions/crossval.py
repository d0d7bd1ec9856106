"""Stratified k-fold cross-validation with Monte-Carlo repetition."""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from emgactions.metrics import accuracy, confusion_matrix, kappa
from emgactions.pnn import (
    DEFAULT_SIGMA_GRID,
    NonFiniteScoreError,
    PnnConfig,
    check_sigma,
    decided_labels,
    fit_pnn,
    require_finite,
)

# Distance cells (test rows x training rows, summed over the scoring a call
# may do) that a call must hold for each process it runs beyond this one; a
# smaller call stays serial, since forking a process costs more than scoring
# a few cells. The sigma search scores only the rows decided_labels leaves
# open, so its count is an upper bound.
FORK_CELLS = 1 << 24


class TooFewSamplesError(ValueError):
    """Every class needs at least k samples for stratified k-fold CV."""


class EmptyGridError(ValueError):
    """Sigma selection needs a nonempty candidate grid."""


class SigmaGridEdgeWarning(UserWarning):
    """The sigma search chose an end of its grid: no width beyond it was scored."""


@dataclass
class EvalReport:
    """Pooled result of one cross-validated run.

    alpha is exactly trace/total of the pooled confusion matrix; every
    pattern is tested exactly once, so the matrix total equals the sample
    count.
    """

    confusion: np.ndarray
    alpha: float
    kappa: float
    sigmas: tuple = ()  # the kernel width each fold used, in fold order

    def __post_init__(self):
        self.confusion = np.asarray(self.confusion, dtype=int)


@dataclass
class MonteCarloResult:
    """Per-run metrics plus the summed confusion matrix."""

    alphas: np.ndarray
    kappas: np.ndarray
    confusion: np.ndarray
    folds: int
    base_seed: int
    sigmas: tuple = ()  # per run, the kernel width each fold used

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.kappas = np.asarray(self.kappas, dtype=float)
        self.confusion = np.asarray(self.confusion, dtype=int)

    @property
    def runs(self) -> int:
        return self.alphas.size

    @property
    def mean_alpha(self) -> float:
        return float(self.alphas.mean())

    @property
    def std_alpha(self) -> float:
        return float(self.alphas.std())

    @property
    def mean_kappa(self) -> float:
        return float(self.kappas.mean())

    @property
    def std_kappa(self) -> float:
        return float(self.kappas.std())


def stratified_folds(y, k: int, seed: int) -> np.ndarray:
    """Assign each sample a fold id in 0..k-1.

    Samples are shuffled by the seed, then each class is dealt round-robin
    across folds, so per-class fold counts differ by at most one.
    """
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    order = rng.permutation(y.size)
    assignment = np.empty(y.size, dtype=int)
    for cid in np.unique(y):
        members = order[y[order] == cid]
        assignment[members] = np.arange(members.size) % k
    return assignment


def kfold_assignment(y, k: int, seed: int) -> np.ndarray:
    """stratified_folds for a k-fold evaluation, which tests every sample once.

    Raises:
        ValueError: k < 2, or every sample has one label.
        TooFewSamplesError: some class has fewer than k samples, so some
            fold would lack it.
    """
    y = np.asarray(y, dtype=int)
    if k < 2:
        raise ValueError("k must be >= 2")
    ids, counts = np.unique(y, return_counts=True)
    if ids.size == 1:
        raise ValueError(f"every sample has label {ids[0]}; classification needs two classes")
    if counts.min() < k:
        lacking = ids[counts.argmin()]
        raise TooFewSamplesError(
            f"class {lacking} has {counts.min()} samples, fewer than k={k}"
        )
    return stratified_folds(y, k, seed)


def fold_splits(assignment) -> list:
    """Each fold's (training rows, test rows) in fold order, both ascending
    index arrays; a fold whose training or test rows are empty is skipped."""
    rows = np.arange(len(assignment))
    by_fold = np.argsort(assignment, kind="stable")  # keeps each fold's rows ascending
    tests = np.split(by_fold, np.cumsum(np.bincount(assignment))[:-1])
    return [(np.delete(rows, test), test) for test in tests if 0 < test.size < rows.size]


def select_sigma(X, y, grid=DEFAULT_SIGMA_GRID, folds: int = 5, seed: int = 0) -> float:
    """Pick the kernel width maximizing internal cross-validated accuracy.

    Candidates are scored in ascending order and the first with the most
    hits wins, so ties resolve toward the smallest sigma. Runs entirely on
    the given data; callers pass their training split only. Each inner
    split is fitted once, and its test rows' squared distances and their
    per-class minima computed once: none depends on sigma. For each
    candidate, decided_labels labels the rows whose nearest distances fix
    their label, and one predict_batch call scores the rest by their rows
    of the same buffer, which it leaves unchanged. An inner split that lacks
    a class does not warn.

    Raises:
        EmptyGridError: no candidates.
        NonPositiveSigmaError: a candidate is not finite and > 0.
        ValueError: folds < 2, or a value of X is NaN or infinite (named by
            its row and column of X).
        NonFiniteScoreError: an inner test row has no finite class score;
            it names the row of X.
    """
    grid = sorted(check_sigma(s) for s in grid)
    if not grid:
        raise EmptyGridError("sigma grid is empty")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    require_finite(X, "X")
    correct = [0] * len(grid)
    for train, test in fold_splits(stratified_folds(y, folds, seed)):
        model = fit_pnn(X[train], y[train], grid[0], n_classes=int(y.max()), warn=False)
        X_test, y_test = X[test], y[test]
        try:
            d2 = model.distances(X_test)
            nearest = np.minimum.reduceat(d2, np.cumsum(model.counts) - model.counts, axis=1)
            for i, sigma in enumerate(grid):
                decided, labels = decided_labels(nearest, sigma, model.counts, model.class_ids)
                rows = np.flatnonzero(~decided)
                labels[rows], _ = replace(model, sigma=sigma).predict_batch(X_test, d2, rows)
                correct[i] += int(np.count_nonzero(labels == y_test))
        except NonFiniteScoreError as exc:
            raise exc.reindexed(rows=test) from None
    return grid[int(np.argmax(correct))]


def kfold_cv(
    X,
    y,
    k: int = 10,
    config: PnnConfig = PnnConfig(),
    seed: int = 0,
) -> EvalReport:
    """Stratified k-fold evaluation pooling one confusion matrix.

    The fold split is seeded and deterministic: the same arguments always
    produce the same report. Normalization and any sigma selection happen
    inside each training fold only.

    A call whose distance cells (each fold's test rows x training rows, and
    under sigma=None a bound on its inner splits' once per grid value) are
    worth more than one process by cell_processes scores contiguous chunks
    of the folds at once through map_chunks, one per usable CPU.
    Each chunk returns its integer confusion matrix and sigmas, so the
    report keeps every bit, and the first error in fold order is raised as
    scoring serially raises it.

    Raises:
        TooFewSamplesError: some class has fewer than k samples.
        ValueError: a value of X is NaN or infinite (named by its row and
            column of X).
        NonFiniteScoreError: a row has no finite class score, in a test
            fold or in sigma selection; it names the row of X.
        RuntimeError: a forked process exited without sending its folds.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    require_finite(X, "X")
    splits = fold_splits(kfold_assignment(y, k, seed))
    C = int(y.max())
    cells = split_cells(splits)
    if config.sigma is None and config.selection_folds >= 2:
        # Each grid value scores at most every inner split's cells: f inner
        # splits of n training rows hold at most n^2 (f - 1) / f of them.
        f = config.selection_folds
        cells += sum(len(config.sigma_grid) * t.size**2 * (f - 1) // f for t, _ in splits)

    def score(chunk) -> tuple:
        """(confusion matrix, sigma per fold) of a chunk of the splits."""
        cm = np.zeros((C, C), dtype=int)
        sigmas = []
        for train, test in chunk:
            X_train, y_train = X[train], y[train]
            sigma = config.sigma
            if sigma is None:
                try:
                    sigma = select_sigma(
                        X_train,
                        y_train,
                        config.sigma_grid,
                        folds=config.selection_folds,
                        seed=config.selection_seed,
                    )
                except NonFiniteScoreError as exc:
                    raise exc.reindexed(rows=train) from None
            model = fit_pnn(X_train, y_train, sigma, n_classes=C)
            try:
                labels, _ = model.predict_batch(X[test])
            except NonFiniteScoreError as exc:
                raise exc.reindexed(rows=test) from None
            cm += confusion_matrix(y[test], labels, n_classes=C)
            sigmas.append(model.sigma)
        return cm, sigmas

    cm = np.zeros((C, C), dtype=int)
    sigmas = []
    for chunk_cm, chunk_sigmas in map_chunks(score, splits, cell_processes(cells)):
        cm += chunk_cm
        sigmas += chunk_sigmas
    return EvalReport(confusion=cm, alpha=accuracy(cm), kappa=kappa(cm), sigmas=tuple(sigmas))


def split_cells(splits) -> int:
    """Distance cells (test rows x training rows) that scoring the splits
    once computes."""
    return sum(test.size * train.size for train, test in splits)


def cell_processes(cells: int) -> int:
    """Processes worth running for cells distance cells: one, plus one per FORK_CELLS."""
    return 1 + cells // FORK_CELLS


def monte_carlo(
    X,
    y,
    k: int = 10,
    runs: int = 10,
    base_seed: int = 0,
    config: PnnConfig = PnnConfig(),
) -> MonteCarloResult:
    """Repeat kfold_cv with seeds base_seed..base_seed+runs-1.

    Returns per-run alpha/kappa (population standard deviation over runs)
    and the confusion matrix summed across runs.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    alphas = np.empty(runs)
    kappas = np.empty(runs)
    confusion = None
    sigmas = []
    for r in range(runs):
        report = kfold_cv(X, y, k=k, config=config, seed=base_seed + r)
        alphas[r] = report.alpha
        kappas[r] = report.kappa
        confusion = report.confusion if confusion is None else confusion + report.confusion
        sigmas.append(report.sigmas)
    return MonteCarloResult(
        alphas=alphas,
        kappas=kappas,
        confusion=confusion,
        folds=k,
        base_seed=base_seed,
        sigmas=tuple(sigmas),
    )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(fn, items, processes: int) -> list:
    """[fn(chunk) for chunk in chunks], where chunks cut items into contiguous
    runs, one per process: this process computes the first and a forked child
    process each other (see _map_forked).

    processes is the number of processes the work is worth; a call runs that
    many, at most one per item and one per usable CPU, and stays serial
    where os.fork is missing.
    """
    n = len(items)
    if not n:
        return []
    processes = min(n, processes)
    if processes > 1:
        processes = min(processes, usable_cpus()) if hasattr(os, "fork") else 1
    bounds = [n * p // processes for p in range(processes + 1)]
    return _map_forked(fn, [items[a:b] for a, b in zip(bounds, bounds[1:])])


def _map_forked(fn, items) -> list:
    """[fn(item) for item in items], with fn(items[0]) computed here while a
    forked child process computes each other item.

    A child sends back through a pipe its pickled result, or the exception
    fn raised, with the warnings fn issued, which it does not show; it
    leaves by os._exit, so it never returns into the caller's code. Results
    are taken in item order, as the list comprehension takes them: a child's
    warnings are issued here, after those of the items before it, and then
    its exception, if any, is raised. Every child is reaped before this
    returns or raises; if this process fails first, its children are killed.

    Raises:
        RuntimeError: a child exited without sending its result.
    """
    if len(items) == 1:
        return [fn(items[0])]
    import pickle
    import signal

    children = []  # (pid, read end of the pipe it writes to)
    statuses = []
    try:
        for item in items[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        try:
                            outcome = fn(item), None
                        except Exception as exc:
                            outcome = None, exc
                    issued = [(w.message, w.category, w.filename, w.lineno) for w in caught]
                    data = pickle.dumps((outcome, issued), pickle.HIGHEST_PROTOCOL)
                    with open(write, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, read))
        results = [fn(items[0])]
        payloads = []
        for _, read in children:
            with open(read, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), data, status in zip(children, payloads, statuses):
        if not data:
            raise RuntimeError(
                f"forked process {pid} exited without sending its result "
                f"(exit code {os.waitstatus_to_exitcode(status)})"
            )
        (result, failure), issued = pickle.loads(data)
        _reissue(issued)
        if failure is not None:
            raise failure
        results.append(result)
    return results


def _reissue(issued) -> None:
    """Issue (message, category, filename, lineno) warnings here as at their
    origin: the filters and the once-per-location registry of the module
    that filename names decide, as they do for this process's own."""
    if not issued:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in issued:
        module = modules.get(filename)
        namespace = vars(module) if module is not None else {}
        warnings.warn_explicit(
            message,
            category,
            filename,
            lineno,
            module=namespace.get("__name__"),
            registry=namespace.setdefault("__warningregistry__", {}),
        )
