"""Binary decision tree with threshold splits and a selectable impurity criterion.

Splits are axis-aligned (``value <= threshold`` goes left), candidate
thresholds are midpoints between consecutive distinct sorted values, and
growth is greedy: every impure node that still has a candidate threshold is
split by the largest weighted impurity decrease. Ties are broken by lowest
feature index, then lowest threshold, so training is fully deterministic.

Growth is level-synchronous over presorted columns (SLIQ; XGBoost's exact
greedy search): each training column is argsorted once; at each depth the
open nodes' rows lie node after node, value-sorted within their node in
every column, one vectorised pass splits them all, and stable partitions
carry the order down. Trees are flat arrays in breadth-first node order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nslkdd import BinaryLabeledDataset, sorted_columns

CRITERIA = ("entropy", "gini")

# Layout elements handled at once: wide levels go in blocks of columns (~8 MB temporaries).
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class TreeConfig:
    criterion: str = "entropy"
    max_depth: int | None = None
    min_split_samples: int = 2

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be a positive integer or None")
        if self.min_split_samples < 2:
            raise ValueError("min_split_samples must be at least 2")


@dataclass(frozen=True)
class Split:
    feature_index: int
    threshold: float
    impurity_decrease: float


@dataclass
class DecisionTree:
    """Flat arrays in breadth-first node order; node 0 is the root.

    Leaves have ``feature``/``left``/``right`` -1 and threshold and decrease
    0.0. ``counts`` is (negatives, positives) of the training samples at each
    node; ``predicted`` is the majority class, negative on an exact tie.
    """

    feature: np.ndarray  # (m,) intp
    threshold: np.ndarray  # (m,) float64
    impurity_decrease: np.ndarray  # (m,) float64
    left: np.ndarray  # (m,) intp
    right: np.ndarray  # (m,) intp
    counts: np.ndarray  # (m, 2) int64
    predicted: np.ndarray  # (m,) bool
    config: TreeConfig
    feature_count: int
    depth: int
    feature_names: tuple[str, ...] = ()

    @property
    def node_count(self) -> int:
        return self.feature.size


def _plog2p(p: np.ndarray) -> np.ndarray:
    # p * log2(p) with the 0 * log2(0) = 0 convention; exact 0.0 at p in {0, 1}
    return p * np.log2(np.where(p > 0.0, p, 1.0))


def _impurity_arrays(pos: np.ndarray, n: np.ndarray, criterion: str) -> np.ndarray:
    p = pos / n
    q = (n - pos) / n
    if criterion == "entropy":
        return -(_plog2p(p) + _plog2p(q))
    return 1.0 - (p * p + q * q)


def impurity(class_counts, criterion: str) -> float:
    """Entropy or Gini impurity of a two-class count pair."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    a, b = class_counts
    if a < 0 or b < 0:
        raise ValueError("class counts must be nonnegative")
    n = a + b
    if n == 0:
        raise ValueError("impurity of an empty node is undefined")
    value = _impurity_arrays(np.float64(b), np.float64(n), criterion)
    return float(value)


def _level_splits(values, labels, size, pos, criterion: str):
    """Best split of every node of one level, in one pass over the layout.

    ``values[j]`` is column j of the level's rows node after node (``size``
    rows, ``pos`` positives each), sorted within each node; ``labels`` are
    their targets. Returns per node the feature (-1: no candidate),
    threshold, decrease, and the left child's size and positives.
    """
    k, width = values.shape
    m = size.size
    start = np.cumsum(size) - size
    node_at = np.repeat(np.arange(m), size)  # node of each layout position
    # a candidate pairs a position with the next one of the same node
    inner = np.ones(width - 1, dtype=bool)
    inner[(start + size - 1)[:-1]] = False
    size_f, pos_f = size.astype(np.float64), pos.astype(np.float64)
    parent = _impurity_arrays(pos_f, size_f, criterion)
    pos_before = np.cumsum(pos) - pos  # positives laid out before each node
    feature = np.full(m, -1, dtype=np.intp)
    best, threshold = np.full(m, -np.inf), np.zeros(m)
    left_size, left_pos = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    block = max(1, _BLOCK_ELEMENTS // width)
    for first in range(0, k, block):
        block_values = values[first:first + block]
        # a candidate needs two distinct neighbours; the midpoint guards cover
        # float collapse onto a neighbour for extreme adjacent values
        candidates = np.flatnonzero((block_values[:, 1:] > block_values[:, :-1]) & inner)
        column, at = np.divmod(candidates, width - 1)
        flat = candidates + column  # the same place in the raveled block
        lo, hi = block_values.ravel()[flat], block_values.ravel()[flat + 1]
        thresholds = 0.5 * (lo + hi)
        valid = (thresholds >= lo) & (thresholds < hi)
        column, at, flat, thresholds = column[valid], at[valid], flat[valid], thresholds[valid]
        node = node_at[at]
        cumulative = np.cumsum(labels[first:first + block].ravel(), dtype=np.int32)
        cand_pos = cumulative[flat] - column * pos.sum() - pos_before[node]
        cand_size = at - start[node] + 1
        lp, ln, n = cand_pos.astype(np.float64), cand_size.astype(np.float64), size_f[node]
        rn, rp = n - ln, pos_f[node] - lp
        children = (
            ln * _impurity_arrays(lp, ln, criterion) + rn * _impurity_arrays(rp, rn, criterion)
        ) / n
        gains = parent[node] - children
        top = np.full(m, -np.inf)
        np.maximum.at(top, node, gains)
        # candidates are in column-major order, so a node's first one at its
        # maximum has the lowest feature index, then the lowest threshold
        hits = np.flatnonzero(gains == top[node])
        won, first_hit = np.unique(node[hits], return_index=True)
        chosen = hits[first_hit]
        # strictly better only: on a tie the lower columns of earlier blocks win
        better = top[won] > best[won]
        won, chosen = won[better], chosen[better]
        best[won] = top[won]
        feature[won] = first + column[chosen]
        threshold[won] = thresholds[chosen]
        left_size[won] = cand_size[chosen]
        left_pos[won] = cand_pos[chosen]
    return feature, threshold, best, left_size, left_pos


def best_split(features, targets, criterion: str) -> Split | None:
    """Best (feature, threshold) by weighted impurity decrease, or None.

    Returns None when the node is already pure or when no feature has two
    distinct values. A zero-decrease split on an impure node is still
    returned: separable structure may only appear deeper down. This is the
    level search of ``fit`` run on one node.
    """
    y = np.asarray(targets, dtype=bool)
    total_pos = int(np.count_nonzero(y))
    if total_pos in (0, y.size):
        return None
    rows, values = sorted_columns(np.asarray(features, dtype=np.float64))
    feature, threshold, decrease, _, _ = _level_splits(
        values, y[rows], np.array([y.size]), np.array([total_pos]), criterion)
    if feature[0] < 0:
        return None
    return Split(int(feature[0]), float(threshold[0]), float(decrease[0]))


def fit(train: BinaryLabeledDataset, config: TreeConfig | None = None) -> DecisionTree:
    """Grow a tree on the (already projected) training set, a level at a time.

    A node becomes a leaf when it is pure, has no candidate split, holds fewer
    than ``min_split_samples`` samples or is at ``max_depth``. Same inputs
    always give an identical tree.
    """
    config = config or TreeConfig()
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.targets, dtype=bool)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must contain at least one record")
    if X.shape[1] == 0:
        raise ValueError("training data must contain at least one feature column")
    if X.shape[0] != y.size:
        raise ValueError("feature matrix and targets differ in length")
    n, k = X.shape

    def is_open(size: np.ndarray, pos: np.ndarray, depth: int) -> np.ndarray:
        deep = config.max_depth is not None and depth >= config.max_depth
        return (pos > 0) & (pos < size) & (size >= config.min_split_samples) & (not deep)

    # per level: the nodes made (ids, sizes, positives) and the splits made
    made = [(np.array([0]), np.array([n]), np.array([np.count_nonzero(y)]))]
    splits = []
    ids, size, pos = (a[is_open(made[0][1], made[0][2], 0)] for a in made[0])
    depth = 0
    if ids.size:
        rows, values = (train.column_order() if train.column_order is not None
                        else sorted_columns(X))
        labels = y[rows]
    while ids.size:
        feature, threshold, decrease, left_size, left_pos = _level_splits(
            values, labels, size, pos, config.criterion)
        split = feature >= 0
        if not split.any():
            break
        # children are numbered breadth-first: by parent id, left before right
        parents = ids[split]
        rank = np.empty(parents.size, dtype=np.intp)
        rank[np.argsort(parents)] = np.arange(parents.size)
        left_id = sum(node.size for node, _, _ in made) + 2 * rank
        splits.append((parents, feature[split], threshold[split], decrease[split],
                       left_id, left_id + 1))
        depth += 1
        ls, lp = left_size[split], left_pos[split]
        rs, rp = size[split] - ls, pos[split] - lp
        made.append((np.r_[left_id, left_id + 1], np.r_[ls, rs], np.r_[lp, rp]))
        left_open, right_open = is_open(ls, lp, depth), is_open(rs, rp, depth)
        if not (left_open.any() or right_open.any()):
            break
        # side of each row of the level: 1 to an open left child, 2 to an open
        # right child, else 0; the split column's order tells which rows go left
        moved = np.flatnonzero(np.repeat(split, size))
        which = np.repeat(np.arange(parents.size), size[split])
        go_left = moved - (np.cumsum(size) - size)[split][which] < ls[which]
        side = np.zeros(n, dtype=np.int8)
        side[rows[feature[split][which], moved]] = np.where(
            go_left, left_open[which], 2 * right_open[which])
        rows, values, labels = _partition(
            (rows, values, labels), side, ls[left_open].sum(), rs[right_open].sum())
        ids = np.r_[left_id[left_open], left_id[right_open] + 1]
        size = np.r_[ls[left_open], rs[right_open]]
        pos = np.r_[lp[left_open], rp[right_open]]

    node, node_size, node_pos = map(np.concatenate, zip(*made))
    counts = np.empty((node.size, 2), dtype=np.int64)
    counts[node] = np.c_[node_size - node_pos, node_pos]
    feature, left, right = (np.full(node.size, -1, dtype=np.intp) for _ in range(3))
    threshold, decrease = np.zeros(node.size), np.zeros(node.size)
    if splits:
        parent, *columns = map(np.concatenate, zip(*splits))
        feature[parent], threshold[parent], decrease[parent], left[parent], right[parent] = columns
    return DecisionTree(feature, threshold, decrease, left, right, counts,
                        counts[:, 1] > counts[:, 0], config, k, depth, tuple(train.feature_names))


def _partition(layout, side: np.ndarray, width_left: int, width_right: int):
    """The next level's layout: in each column, the places whose row has
    ``side`` 1 (open left children), then those with ``side`` 2, in order."""
    rows = layout[0]
    out = tuple(np.empty((len(rows), width_left + width_right), dtype=a.dtype) for a in layout)
    block = max(1, _BLOCK_ELEMENTS // rows.shape[1])
    for first in range(0, len(rows), block):
        at_side = side[rows[first:first + block]]
        b = at_side.shape[0]
        order = np.concatenate((np.flatnonzero(at_side == 1).reshape(b, width_left),
                                np.flatnonzero(at_side == 2).reshape(b, width_right)), axis=1)
        for a, o in zip(layout, out):
            np.take(a[first:first + b].ravel(), order, out=o[first:first + b], mode="clip")
    return out


def predict_batch(tree: DecisionTree, features) -> np.ndarray:
    """Classify every row of a feature matrix, a tree level per step; a bool vector."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.feature_count:
        raise ValueError(f"expected a matrix with {tree.feature_count} columns, "
                         f"got shape {X.shape}")
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        inner = tree.feature[at] >= 0
        rows, at = rows[inner], at[inner]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.predicted[node]
