import os
from pathlib import Path

import numpy as np
import pytest

from gafs.nslkdd import (
    FEATURE_NAMES,
    BinaryLabeledDataset,
    build_codebook,
    encode,
    parse_file,
    relabel,
)

from synthdata import synth_rows, write_nslkdd


def _real_data_paths() -> tuple[Path, Path] | None:
    """Locate KDDTrain+/KDDTest+ via env vars or the repo data/ directory."""
    train = os.environ.get("NSLKDD_TRAIN")
    test = os.environ.get("NSLKDD_TEST")
    if train and test and Path(train).exists() and Path(test).exists():
        return Path(train), Path(test)
    candidates = []
    if os.environ.get("NSLKDD_DATA_DIR"):
        candidates.append(Path(os.environ["NSLKDD_DATA_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    candidates.append(Path("data"))
    for base in candidates:
        train_path = base / "KDDTrain+.txt"
        test_path = base / "KDDTest+.txt"
        if train_path.exists() and test_path.exists():
            return train_path, test_path
    return None


@pytest.fixture(scope="session")
def real_paths() -> tuple[Path, Path]:
    paths = _real_data_paths()
    if paths is None:
        pytest.skip(
            "NSL-KDD files not found: place KDDTrain+.txt and KDDTest+.txt in "
            "./data or set NSLKDD_DATA_DIR (or NSLKDD_TRAIN/NSLKDD_TEST)"
        )
    return paths


@pytest.fixture(scope="session")
def real_encoded(real_paths):
    """Parsed and encoded real NSL-KDD train/test sets (shared: expensive)."""
    train_path, test_path = real_paths
    train_raw = parse_file(train_path, role="training")
    test_raw = parse_file(test_path, role="test")
    book = build_codebook(train_raw)
    return encode(train_raw, book), encode(test_raw, book), book


@pytest.fixture(scope="session")
def synth_files(tmp_path_factory) -> tuple[Path, Path]:
    """Synthetic NSL-KDD-format files: 43-column train, 42-column test."""
    base = tmp_path_factory.mktemp("synth")
    train = base / "train.txt"
    test = base / "test.txt"
    write_nslkdd(train, synth_rows(700, seed=11), difficulty=True)
    write_nslkdd(test, synth_rows(400, seed=23, unseen_service=True))
    return train, test


@pytest.fixture(scope="session")
def synth_encoded(synth_files):
    train_path, test_path = synth_files
    train_raw = parse_file(train_path, role="training")
    test_raw = parse_file(test_path, role="test")
    book = build_codebook(train_raw)
    return encode(train_raw, book), encode(test_raw, book), book


@pytest.fixture(scope="session")
def synth_flood(synth_encoded):
    """Synthetic sets relabeled for the exactly separable attack."""
    train, test, _ = synth_encoded
    return relabel(train, {"flood"}), relabel(test, {"flood"})


@pytest.fixture(scope="session")
def synth_burst(synth_encoded):
    """Synthetic sets relabeled for the only partially separable attack."""
    train, test, _ = synth_encoded
    return relabel(train, {"burst"}), relabel(test, {"burst"})


def tiny_binary(n=80, k=5, seed=3, noise=0.0) -> BinaryLabeledDataset:
    """A small in-memory task for tree micro tests: column 0 carries the
    signal, the rest is noise."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, k)).astype(float)
    y = X[:, 0] >= 3.0
    if noise:
        flip = rng.random(n) < noise
        y = y ^ flip
    return BinaryLabeledDataset(X, y)


def tiny_binary41(n=80, seed=3, noise=0.1) -> BinaryLabeledDataset:
    """A small 41-column task with canonical names, usable by GA masks.

    The first column carries a noisy signal, a handful of others are noise,
    the rest are constant; keeps per-individual evaluation cheap."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, len(FEATURE_NAMES)))
    X[:, 0] = rng.integers(0, 6, size=n)
    for col in (4, 5, 22, 23, 28):
        X[:, col] = rng.integers(0, 4, size=n)
    y = X[:, 0] >= 3.0
    if noise:
        y = y ^ (rng.random(n) < noise)
    return BinaryLabeledDataset(X, y)


@pytest.fixture
def tiny_task() -> BinaryLabeledDataset:
    return tiny_binary()
