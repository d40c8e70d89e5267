"""Binary decision tree with threshold splits and a selectable impurity criterion.

Splits are axis-aligned (``value <= threshold`` goes left), candidate
thresholds are midpoints between consecutive distinct sorted values, and
growth is greedy, to purity: every impure node with a candidate threshold is
split by the largest weighted impurity decrease. Ties are broken by lowest
feature index, then lowest threshold, so training is fully deterministic.

Growth is level-synchronous and exact, from histograms (LightGBM's split
search with one bin per distinct value): each training column is ranked once
among its distinct values; at each depth two bincounts per column count the
rows and positives of every (node, rank) cell, one pass over the cells scores
every node's candidates, and rows move down by comparing ranks. Nothing is
presorted or partitioned. Trees are flat arrays in breadth-first node order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nslkdd import BinaryLabeledDataset

CRITERIA = ("entropy", "gini")

# A level's histogram of a column is a dense table of node x rank cells while
# it has at most this many cells per row; past that its cells come from a sort.
_DENSE_CELLS_PER_ROW = 4


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
    criterion: str
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


def check_criterion(criterion: str) -> None:
    """Raise ValueError unless ``criterion`` is one of ``CRITERIA``."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")


def impurity(class_counts, criterion: str) -> float:
    """Entropy or Gini impurity of a two-class count pair."""
    check_criterion(criterion)
    a, b = class_counts
    if a < 0 or b < 0:
        raise ValueError("class counts must be nonnegative")
    n = a + b
    if n == 0:
        raise ValueError("impurity of an empty node is undefined")
    value = _impurity_arrays(np.float64(b), np.float64(n), criterion)
    return float(value)


def _level_splits(ranks, values, columns, rows, node, size, pos, criterion: str):
    """Best split of every open node of one level, from a histogram per column.

    ``ranks[j]`` and ``values[j]`` are column j's dense ranks and distinct
    values (``rank_columns``); ``columns`` are searched in tie-break order.
    ``rows`` are the level's rows, positives first, and ``node`` their node,
    which holds ``size`` rows and ``pos`` positives. Returns per node the
    position in ``columns`` of the split column (-1: no candidate), the
    threshold, the decrease, the left child's size and positives, and the
    rank of the largest value that goes left.
    """
    m, positives = size.size, pos.sum()
    start, pos_before = np.cumsum(size) - size, np.cumsum(pos) - pos
    size_f, pos_f = size.astype(np.float64), pos.astype(np.float64)
    parent = _impurity_arrays(pos_f, size_f, criterion)
    feature = np.full(m, -1, dtype=np.intp)
    best, threshold = np.full(m, -np.inf), np.zeros(m)
    left_size, left_pos, cut = (np.zeros(m, dtype=np.int64) for _ in range(3))
    for f, j in enumerate(columns):
        d = values[j].size
        if d == 1:  # constant on the training set: no candidate anywhere
            continue
        # the (node, rank) cell of each row; the present cells in order, with
        # their rows and positives
        key = node * d + ranks[j][rows]
        if m * d <= _DENSE_CELLS_PER_ROW * key.size:
            count = np.bincount(key, minlength=m * d)
            cell = np.flatnonzero(count)
            count, cell_pos = count[cell], np.bincount(key[:positives], minlength=m * d)[cell]
        else:
            cell, count = np.unique(key, return_counts=True)
            positive_cell, positive_count = np.unique(key[:positives], return_counts=True)
            cell_pos = np.zeros(cell.size, dtype=np.int64)
            cell_pos[np.searchsorted(cell, positive_cell)] = positive_count
        at, rank = np.divmod(cell, d)
        # a candidate pairs a present rank with the next one of the same node;
        # the midpoint guards cover float collapse onto a neighbour for
        # extreme adjacent values
        candidates = np.flatnonzero(at[1:] == at[:-1])
        lo, hi = values[j][rank[candidates]], values[j][rank[candidates + 1]]
        thresholds = 0.5 * (lo + hi)  # may overflow (see fit): inf fails the guard below
        valid = (thresholds >= lo) & (thresholds < hi)
        candidates, thresholds, at = candidates[valid], thresholds[valid], at[candidates[valid]]
        if not candidates.size:
            continue
        cand_size = np.cumsum(count)[candidates] - start[at]
        cand_pos = np.cumsum(cell_pos)[candidates] - pos_before[at]
        lp, ln, n = cand_pos.astype(np.float64), cand_size.astype(np.float64), size_f[at]
        rn, rp = n - ln, pos_f[at] - lp
        children = (
            ln * _impurity_arrays(lp, ln, criterion) + rn * _impurity_arrays(rp, rn, criterion)
        ) / n
        gains = parent[at] - children
        # candidates run node by node, each node's by threshold, so the first
        # one at its node's maximum has the lowest threshold
        first = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
        top = np.maximum.reduceat(gains, first)
        hits = np.flatnonzero(gains == np.repeat(top, np.diff(np.append(first, at.size))))
        chosen = hits[np.searchsorted(hits, first)]
        better = top > best[at[first]]  # strictly: on a tie the lower column wins
        won, chosen = at[chosen[better]], chosen[better]
        best[won], feature[won], threshold[won] = top[better], f, thresholds[chosen]
        left_size[won], left_pos[won] = cand_size[chosen], cand_pos[chosen]
        cut[won] = rank[candidates[chosen]]
    return feature, threshold, best, left_size, left_pos, cut


def fit(train: BinaryLabeledDataset, criterion: str = "entropy",
        columns: list[int] | None = None) -> DecisionTree:
    """Grow a tree on some columns of the training set, a level at a time.

    ``columns`` are positions in ``train.features`` (all of them when None);
    the tree's feature indices count within them. They are read out of the
    training set's rank table (``train.ranks``, made by the first fit on the
    matrix), so no projected copy is built. The tree is always grown to
    purity: a node becomes a leaf only when it is pure or has no candidate
    split. Same inputs always give an identical tree.
    """
    check_criterion(criterion)
    X = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.targets, dtype=bool)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must contain at least one record")
    columns = list(range(X.shape[1]) if columns is None else columns)
    if not columns:
        raise ValueError("training data must contain at least one feature column")
    if X.shape[0] != y.size:
        raise ValueError("feature matrix and targets differ in length")
    ranks, values = train.ranks.of(X)
    column_of = np.asarray(columns)
    n = y.size

    def is_open(size: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return (pos > 0) & (pos < size)  # impure, so it holds at least two rows

    # per level: the nodes made (ids, sizes, positives) and the splits made
    made = [(np.array([0]), np.array([n]), np.array([np.count_nonzero(y)]))]
    splits = []
    ids, size, pos = (a[is_open(made[0][1], made[0][2])] for a in made[0])
    # the open nodes' rows, positives first, and the open node of each
    rows = np.concatenate((np.flatnonzero(y), np.flatnonzero(~y)))
    node = np.zeros(n, dtype=np.intp)
    depth = 0
    while ids.size:
        with np.errstate(over="ignore"):  # an overflowing midpoint is no candidate
            feature, threshold, decrease, left_size, left_pos, cut = _level_splits(
                ranks, values, columns, rows, node, size, pos, criterion)
        split = feature >= 0
        if not split.any():
            break
        # children are numbered breadth-first: by parent id, left before right;
        # a level's ids ascend, so the parents are already in id order
        parents = ids[split]
        left_id = sum(made_ids.size for made_ids, _, _ in made) + 2 * np.arange(parents.size)
        splits.append((parents, feature[split], threshold[split], decrease[split],
                       left_id, left_id + 1))
        depth += 1
        ls, lp = left_size[split], left_pos[split]
        rs, rp = size[split] - ls, pos[split] - lp
        made.append((np.r_[left_id, left_id + 1], np.r_[ls, rs], np.r_[lp, rp]))
        # the next level's nodes are the open children, each left before its right
        child_open = np.c_[is_open(ls, lp), is_open(rs, rp)].ravel()
        if not child_open.any():
            break
        child = np.full(2 * ids.size, -1, dtype=np.intp)  # by (node, side)
        child[np.repeat(split, 2)] = np.where(child_open, np.cumsum(child_open) - 1, -1)
        # a row goes right when its rank in the split column is above the cut;
        # rows of a node without a split read any column and drop out
        right = ranks[column_of[feature[node]], rows] > cut[node]
        node = child[2 * node + right]
        rows, node = rows[node >= 0], node[node >= 0]
        ids = np.c_[left_id, left_id + 1].ravel()[child_open]
        size = np.c_[ls, rs].ravel()[child_open]
        pos = np.c_[lp, rp].ravel()[child_open]

    node, node_size, node_pos = map(np.concatenate, zip(*made))
    counts = np.empty((node.size, 2), dtype=np.int64)
    counts[node] = np.c_[node_size - node_pos, node_pos]
    feature, left, right = (np.full(node.size, -1, dtype=np.intp) for _ in range(3))
    threshold, decrease = np.zeros(node.size), np.zeros(node.size)
    if splits:
        parent, *arrays = map(np.concatenate, zip(*splits))
        feature[parent], threshold[parent], decrease[parent], left[parent], right[parent] = arrays
    return DecisionTree(feature, threshold, decrease, left, right, counts,
                        counts[:, 1] > counts[:, 0], criterion, len(columns), depth,
                        tuple(train.feature_names[i] for i in columns))


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
