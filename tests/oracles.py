"""Independent brute-force oracles used by the property and acceptance tests.

These recompute expected answers with plain scalar arithmetic and exhaustive
enumeration, on purpose sharing no code with the implementation paths they
check.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np


def node_impurity(labels, criterion: str) -> float:
    n = len(labels)
    pos = sum(labels)
    neg = n - pos
    if criterion == "entropy":
        total = 0.0
        for c in (pos, neg):
            if c:
                p = c / n
                total -= p * math.log2(p)
        return total
    return 1.0 - (pos / n) ** 2 - (neg / n) ** 2


def brute_force_splits(X, y, criterion: str) -> list[tuple[int, float, float]]:
    """Every candidate (feature, midpoint threshold, impurity decrease)."""
    n = len(y)
    parent = node_impurity(y, criterion)
    results = []
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            left = [y[i] for i in range(n) if X[i, f] <= t]
            right = [y[i] for i in range(n) if X[i, f] > t]
            decrease = parent - (
                len(left) * node_impurity(left, criterion)
                + len(right) * node_impurity(right, criterion)
            ) / n
            results.append((f, t, decrease))
    return results


# ------------------------------------------------------- row-wise NSL-KDD load
#
# The row-wise loader that the columnar ``parse_file``/``build_codebook``/
# ``encode`` replaced, kept as their reference: one record per line, every
# column re-walked per row. Inputs must not carry whitespace around symbolic
# fields, which the columnar loader strips and this one keeps.


def rowwise_parse(path, n_features: int, role: str = ""):
    """(records, role): one (values, label) pair per line, in file order."""
    path = Path(path)
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            fields = line.split(",")
            if len(fields) not in (n_features + 1, n_features + 2):
                raise ValueError(f"{path.name}: line {lineno}: found {len(fields)} columns")
            values = tuple(sys.intern(f) for f in fields[:n_features])
            if "" in values:
                raise ValueError(f"{path.name}: line {lineno}: empty field")
            label = fields[n_features].strip()
            if not label:
                raise ValueError(f"{path.name}: line {lineno}: empty label")
            if len(fields) == n_features + 2:
                int(fields[n_features + 1].strip())
            records.append((values, sys.intern(label)))
    return records, role


def rowwise_codebook(train, feature_names, symbolic_columns) -> dict:
    """Codebook document (``Codebook.to_dict`` form) in first-appearance order."""
    records, role = train
    columns = {name: {} for name in symbolic_columns}
    for values, _ in records:
        for name in symbolic_columns:
            mapping = columns[name]
            value = values[feature_names.index(name)]
            if value not in mapping:
                mapping[value] = len(mapping)
    return {"built_from": role or "training", "columns": columns, "extensions": []}


def rowwise_encode(data, book: dict, feature_names, symbolic_columns):
    """(features, labels); unseen categories are appended to ``book``."""
    records, _ = data
    features = np.empty((len(records), len(feature_names)), dtype=np.float64)
    for ci, name in enumerate(feature_names):
        column = [values[ci] for values, _ in records]
        if name in symbolic_columns:
            mapping = book["columns"][name]
            for ri, value in enumerate(column):
                if value not in mapping:
                    mapping[value] = len(mapping)
                    book["extensions"].append([name, value, mapping[value]])
                features[ri, ci] = mapping[value]
            continue
        values = np.asarray(column, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError(f"column {name!r} is not finite")
        features[:, ci] = values
    return features, tuple(label for _, label in records)
