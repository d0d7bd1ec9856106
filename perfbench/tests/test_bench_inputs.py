"""The input generator is a pure function of its spec and seed."""

import filecmp
import os

import inputs

SMALL_CORPUS = inputs.Corpus(subjects=(1, 2), actions=(1, 12), rows=1510)
SMALL_MATRIX = inputs.Matrix(subjects=1, trials=3)


def _files(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs
    )


def _same_tree(a, b):
    names = _files(a)
    return names == _files(b) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in names
    )


def test_corpus_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.generate(SMALL_CORPUS, seed, str(tmp_path / name))
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "c")
    assert _files(tmp_path / "a") == [
        "sub1/Aggressive/Txt/Frontkicking.txt",
        "sub1/Normal/Txt/Bowing.txt",
        "sub2/Aggressive/Txt/Frontkicking.txt",
        "sub2/Normal/Txt/Bowing.txt",
    ]


def test_one_subject_slice_matches_full_tree(tmp_path):
    inputs.generate(SMALL_CORPUS, 5, str(tmp_path / "full"))
    inputs.generate(inputs.Corpus(subjects=(2,), actions=(1, 12), rows=1510), 5, str(tmp_path / "slice"))
    assert _same_tree(tmp_path / "full" / "sub2", tmp_path / "slice" / "sub2")


def test_matrix_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.generate(SMALL_MATRIX, seed, str(tmp_path / name))
    a, b, c = (tmp_path / n / "features.csv" for n in "abc")
    assert filecmp.cmp(a, b, shallow=False)
    assert not filecmp.cmp(a, c, shallow=False)
    header = a.read_text().splitlines()[0].split(",")
    assert len(header) == 276 + 3 and header[0] == "tds_ch1_mean"


def test_cache_reuses_and_evicts(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CACHE_KEEP", 2)
    src = os.path.join(os.path.dirname(os.path.dirname(inputs.__file__)), "src")
    cache = str(tmp_path / "cache")
    first = inputs.ensure(SMALL_MATRIX, 1, cache, src)
    stamp = os.path.getmtime(os.path.join(first, "features.csv"))
    assert inputs.ensure(SMALL_MATRIX, 1, cache, src) == first
    assert os.path.getmtime(os.path.join(first, "features.csv")) == stamp
    inputs.ensure(SMALL_MATRIX, 2, cache, src)
    inputs.ensure(SMALL_MATRIX, 3, cache, src)
    assert len(os.listdir(cache)) == 2 and not os.path.exists(first)
