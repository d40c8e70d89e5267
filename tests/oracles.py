"""Independent brute-force oracles used by the property and acceptance tests.

These recompute expected answers with plain scalar arithmetic, exhaustive
enumeration or the code a faster path replaced, on purpose sharing no code
with the implementation paths they check.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
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


def unique_ranks(matrix) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``rank_columns`` as it was before counting: ``np.unique`` of every column."""
    ranks = np.empty(matrix.shape[::-1], dtype=np.int32)
    values = []
    for j in range(matrix.shape[1]):
        distinct, ranks[j] = np.unique(matrix[:, j], return_inverse=True)
        values.append(distinct)
    return ranks, tuple(values)


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


# ------------------------------------------------------------ per-node tree fit
#
# The per-node CART that the level-synchronous ``gafs.tree.fit`` replaced, kept
# as its differential reference: every node re-sorts its own submatrix and
# ``pernode_best_split`` scans it. ``bfs_arrays`` lays the resulting object
# tree out in the flat breadth-first form of ``gafs.tree.DecisionTree``.


@dataclass
class TreeNode:
    """Internal node (feature_index >= 0) or leaf (children are None)."""

    class_counts: tuple[int, int]
    predicted: bool
    feature_index: int = -1
    threshold: float = 0.0
    impurity_decrease: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class Split:
    feature_index: int
    threshold: float
    impurity_decrease: float


@dataclass
class PerNodeTree:
    root: TreeNode
    criterion: str
    feature_count: int
    depth: int = 0
    node_count: int = 0


def _plog2p(p: np.ndarray) -> np.ndarray:
    # p * log2(p) with the 0 * log2(0) = 0 convention; exact 0.0 at p in {0, 1}
    return p * np.log2(np.where(p > 0.0, p, 1.0))


def _impurity_arrays(pos: np.ndarray, n: np.ndarray, criterion: str) -> np.ndarray:
    p = pos / n
    q = (n - pos) / n
    if criterion == "entropy":
        return -(_plog2p(p) + _plog2p(q))
    return 1.0 - (p * p + q * q)


def pernode_best_split(features, targets, criterion: str) -> Split | None:
    """Best (feature, threshold) by weighted impurity decrease, or None.

    Returns None when the node is already pure or when no feature has two
    distinct values. A zero-decrease split on an impure node is still
    returned: separable structure may only appear deeper down.

    All features are scanned in one vectorized pass; candidates and gains
    live in (n-1, k) arrays and the winner is taken feature-major, which
    realizes the tie-break order (lowest feature index, then lowest
    threshold) without any per-feature loop.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=bool)
    n = y.size
    total_pos = int(np.count_nonzero(y))
    if total_pos in (0, n):
        return None
    order = np.argsort(X, axis=0)  # per-column sort
    values = np.take_along_axis(X, order, axis=0)
    lo, hi = values[:-1], values[1:]
    thresholds = 0.5 * (lo + hi)
    # a candidate needs two distinct neighbours; the midpoint guards cover
    # float collapse onto a neighbour for extreme adjacent values
    valid = (hi > lo) & (thresholds >= lo) & (thresholds < hi)
    # feature-major candidate order realizes the tie-break rule; impurities
    # are only computed at the (few) valid positions
    candidates = np.flatnonzero(np.ravel(valid, order="F"))
    if candidates.size == 0:
        return None
    left_pos_all = np.cumsum(y[order], axis=0)[:-1]
    left_pos = np.ravel(left_pos_all, order="F")[candidates].astype(np.float64)
    left_n = (candidates % (n - 1)).astype(np.float64) + 1.0
    right_n = n - left_n
    right_pos = total_pos - left_pos
    parent = float(_impurity_arrays(np.float64(total_pos), np.float64(n), criterion))
    children = (
        left_n * _impurity_arrays(left_pos, left_n, criterion)
        + right_n * _impurity_arrays(right_pos, right_n, criterion)
    ) / n
    gains = parent - children
    best = int(np.argmax(gains))  # first max: lowest feature, lowest threshold
    flat = int(candidates[best])
    split_at, feature = flat % (n - 1), flat // (n - 1)
    return Split(
        feature_index=int(feature),
        threshold=float(thresholds[split_at, feature]),
        impurity_decrease=float(gains[best]),
    )


def pernode_fit(train, criterion: str = "entropy") -> "PerNodeTree":
    """Grow a tree on the (already projected) training set.

    A node becomes a leaf when it is pure or when no candidate split exists.
    Same inputs always give a structurally identical tree.
    """
    X = np.ascontiguousarray(train.features, dtype=np.float64)
    y = np.asarray(train.targets, dtype=bool)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must contain at least one record")
    if X.shape[1] == 0:
        raise ValueError("training data must contain at least one feature column")
    if X.shape[0] != y.size:
        raise ValueError("feature matrix and targets differ in length")

    max_depth_seen = 0
    node_count = 0

    def make_node(yn: np.ndarray) -> TreeNode:
        pos = int(np.count_nonzero(yn))
        neg = yn.size - pos
        return TreeNode(class_counts=(neg, pos), predicted=pos > neg)

    root = make_node(y)
    # explicit stack: tree depth on real traffic can exceed the interpreter's
    # recursion limit
    stack: list[tuple[TreeNode, np.ndarray, np.ndarray, int]] = [(root, X, y, 0)]
    while stack:
        node, Xn, yn, depth = stack.pop()
        node_count += 1
        max_depth_seen = max(max_depth_seen, depth)
        pos = node.class_counts[1]
        if pos in (0, yn.size):
            continue
        split = pernode_best_split(Xn, yn, criterion)
        if split is None:
            continue
        go_left = Xn[:, split.feature_index] <= split.threshold
        node.feature_index = split.feature_index
        node.threshold = split.threshold
        node.impurity_decrease = split.impurity_decrease
        left_X, left_y = Xn[go_left], yn[go_left]
        right_X, right_y = Xn[~go_left], yn[~go_left]
        node.left = make_node(left_y)
        node.right = make_node(right_y)
        stack.append((node.left, left_X, left_y, depth + 1))
        stack.append((node.right, right_X, right_y, depth + 1))

    return PerNodeTree(
        root=root,
        criterion=criterion,
        feature_count=X.shape[1],
        depth=max_depth_seen,
        node_count=node_count,
    )


def bfs_arrays(root: TreeNode) -> dict[str, np.ndarray]:
    """The object tree as ``DecisionTree`` arrays, nodes in breadth-first order."""
    nodes = [root]
    for node in nodes:  # grows while walked: breadth-first
        if not node.is_leaf:
            nodes += [node.left, node.right]
    index = {id(node): i for i, node in enumerate(nodes)}
    return {
        "feature": np.array([n.feature_index for n in nodes], dtype=np.intp),
        "threshold": np.array([n.threshold for n in nodes], dtype=np.float64),
        "impurity_decrease": np.array([n.impurity_decrease for n in nodes], dtype=np.float64),
        "left": np.array([-1 if n.is_leaf else index[id(n.left)] for n in nodes], dtype=np.intp),
        "right": np.array([-1 if n.is_leaf else index[id(n.right)] for n in nodes], dtype=np.intp),
        "counts": np.array([n.class_counts for n in nodes], dtype=np.int64).reshape(-1, 2),
        "predicted": np.array([n.predicted for n in nodes], dtype=bool),
    }


def predict(tree, features) -> bool:
    """Classify a single feature vector by walking ``tree``'s arrays node by node."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.size != tree.feature_count:
        raise ValueError(
            f"expected a feature vector of length {tree.feature_count}, got shape {x.shape}"
        )
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return bool(tree.predicted[node])


# The subset-rule fitness memo that ``gafs.ga.FitnessMemo``'s union rule
# replaced, kept as the oracle of what the memo must at least serve.
class SubsetMemo:
    """Serves a non-empty X when one fitted M with used features U has
    U <= X <= M; a group of one U keeps only its largest masks."""

    def __init__(self) -> None:
        self._groups: dict = {}  # U -> M -> result
        self.exact_hits = 0
        self.memo_hits = 0

    def lookup(self, mask):
        x = mask.bitmask
        served = None
        for used, fitted in self._groups.items():
            if used & ~x:
                continue
            if x in fitted:
                self.exact_hits += 1
                return fitted[x]
            if served is None and x:  # only its own evaluation serves the empty mask
                served = next((r for m, r in fitted.items() if not x & ~m), None)
        if served is None:
            return None
        self.memo_hits += 1
        return dataclasses.replace(served, mask=mask)

    def add(self, individual) -> None:
        used = individual.used_features
        group = self._groups.setdefault(0 if used is None else used.bitmask, {})
        x = individual.mask.bitmask
        if x:  # the empty mask stays apart: it has no tree
            for m in [m for m in group if m and not m & ~x]:
                del group[m]
        group[x] = individual
