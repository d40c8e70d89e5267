"""Binary decision tree with threshold splits and a selectable impurity criterion.

Splits are axis-aligned (``value <= threshold`` goes left), candidate
thresholds are midpoints between consecutive distinct sorted values, and
growth is greedy, to purity: every impure node with a candidate threshold is
split by the largest weighted impurity decrease. Ties are broken by lowest
feature index, then lowest threshold, so training is fully deterministic.

Growth is level-synchronous and exact, from histograms (LightGBM's split
search with one bin per distinct value): each training column is ranked once
among its distinct values, and the root's histogram of each column (the rows
and positives of every rank) is counted once per labelled training set. Below
the root, two bincounts per column count the rows and positives of each
(node, rank) cell of the counted nodes. On a level whose larger children hold
many rows only the smaller child of each split is counted, and its open
sibling's cells are the parent's minus the counted child's (LightGBM's
histogram subtraction, exact on integer counts); the parent level's cells are
kept per column for that. One pass over each column's cells scores every
node's candidates, and rows move down by comparing ranks. Nothing is
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

# A level derives the histograms of larger children from their parents' only
# when those children hold at least this many rows; below it, counting them
# costs less than the extra numpy calls per column.
_MIN_DERIVED_ROWS = 32768


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


def _root_histograms(ranks, values, targets, count_type) -> dict:
    """Every non-constant column's histogram at the root of a labelled training
    set: each rank is present, with its rows and positives (see ``_histogram``)."""
    positive = np.flatnonzero(targets)
    return {
        j: (np.arange(v.size), np.bincount(ranks[j]).astype(count_type),
            np.bincount(ranks[j][positive], minlength=v.size).astype(count_type))
        for j, v in enumerate(values) if v.size > 1
    }


def _histogram(key, positives, cells, dense, derived):
    """Column histogram of one level: its present cells in ascending order, with
    the rows and positives of each.

    A cell is (node, rank) as ``node * d + rank``; the level has ``cells`` of
    them. ``key`` is the cell of each row of the counted nodes, positives (the
    first ``positives``) first. ``derived``, when not None, is (cell, sibling,
    rows, positives): every present cell of a parent with a derived child, as
    that child's cell and as its counted sibling's, with the parent's counts
    there. The derived child's counts are the parent's minus the sibling's,
    exact in integers, and cells left empty are dropped. The histogram comes
    from a dense table of every cell when ``dense``, else from a sort of the
    counted keys.
    """
    if dense:
        count = np.bincount(key, minlength=cells)
        pos = np.bincount(key[:positives], minlength=cells)
        if derived is not None:
            cell, sibling, parent_count, parent_pos = derived
            count[cell] = parent_count - count[sibling]
            pos[cell] = parent_pos - pos[sibling]
        present = np.flatnonzero(count)
        return present, count[present], pos[present]
    present, count = np.unique(key, return_counts=True)
    positive_cell, positive_count = np.unique(key[:positives], return_counts=True)
    pos = np.zeros(present.size, dtype=np.int64)
    pos[np.searchsorted(present, positive_cell)] = positive_count
    if derived is None:
        return present, count, pos
    cell, sibling, parent_count, parent_pos = derived
    # the sibling's counts at each parent cell, zero where it has no rows
    at = np.minimum(np.searchsorted(present, sibling), present.size - 1)
    hit = present[at] == sibling
    count_left = parent_count - np.where(hit, count[at], 0)
    pos_left = parent_pos - np.where(hit, pos[at], 0)
    keep = count_left > 0
    return (np.concatenate((present, cell[keep])), np.concatenate((count, count_left[keep])),
            np.concatenate((pos, pos_left[keep])))


def _level_splits(values, columns, histogram, size, pos, criterion: str):
    """Best split of every node of one level, from a histogram per column.

    ``values[j]`` are column j's distinct values (``rank_columns``);
    ``columns`` are searched in tie-break order. ``histogram(j, d)`` gives
    column j's present cells at this level, ascending, with their rows and
    positives: counted, or derived by subtraction, or the root table (see
    ``_histogram``); node i holds ``size[i]`` rows and ``pos[i]`` positives.
    Each column's cells are scored in one pass over all the level's nodes.
    Returns per node the position in ``columns`` of the split column (-1: no
    candidate), the threshold, the decrease, the left child's size and
    positives, and the rank of the largest value that goes left; and each
    column's histogram, which the next level's subtraction reads.
    """
    m = size.size
    start, pos_before = np.cumsum(size) - size, np.cumsum(pos) - pos
    size_f, pos_f = size.astype(np.float64), pos.astype(np.float64)
    parent = _impurity_arrays(pos_f, size_f, criterion)
    feature = np.full(m, -1, dtype=np.intp)
    best, threshold = np.full(m, -np.inf), np.zeros(m)
    left_size, left_pos, cut = (np.zeros(m, dtype=np.int64) for _ in range(3))
    histograms = {}
    for f, j in enumerate(columns):
        d = values[j].size
        if d == 1:  # constant on the training set: no candidate anywhere
            continue
        cell, count, cell_pos = histograms[j] = histogram(j, d)
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
    return feature, threshold, best, left_size, left_pos, cut, histograms


def _parent_cells(histograms, values, child, sibling, count_type) -> dict:
    """The next level's ``derived`` input of ``_histogram``, by column: every
    cell of a node with a derived child (``child[node] >= 0``), renumbered to
    that child and to its counted sibling (``sibling[node]``)."""
    derived = {}
    for j, (cell, count, pos) in histograms.items():
        d = values[j].size
        at, rank = np.divmod(cell, d)
        keep = np.flatnonzero(child[at] >= 0)
        at, rank = at[keep], rank[keep]
        derived[j] = (child[at] * d + rank, sibling[at] * d + rank,
                      count[keep].astype(count_type), pos[keep].astype(count_type))
    return derived


def fit(train: BinaryLabeledDataset, criterion: str = "entropy",
        columns: list[int] | None = None) -> DecisionTree:
    """Grow a tree on some columns of the training set, a level at a time.

    ``columns`` are positions in ``train.features`` (all of them when None);
    the tree's feature indices count within them. They are read out of the
    training set's rank table (``train.ranks``, made by the first fit on the
    matrix) and its root histograms (``train.root_histograms``, made by the
    first fit on the labelled set), so no projected copy is built. The tree
    is always grown to purity: a node becomes a leaf only when it is pure or
    has no candidate split. Same inputs always give an identical tree.
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
    n = y.size
    count_type = np.int32 if n <= np.iinfo(np.int32).max else np.int64  # of kept histograms
    ranks, values = train.ranks.of(X)
    root = train.root_histograms.of(lambda: _root_histograms(ranks, values, y, count_type))
    column_of = np.asarray(columns)

    def is_open(size: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return (pos > 0) & (pos < size)  # impure, so it holds at least two rows

    # per level: the nodes made (ids, sizes, positives) and the splits made
    made = [(np.array([0]), np.array([n]), np.array([np.count_nonzero(y)]))]
    splits = []
    # the level's working nodes (ids, sizes, positives, open or not); the
    # histograms of the first ``counted`` are counted from their rows and the
    # others' derived from their parents' (the root's is the root table)
    ids, size, pos = made[0]
    is_open_node, counted = is_open(size, pos), 0
    # the working nodes' rows, positives first, and the working node of each
    rows = np.concatenate((np.flatnonzero(y), np.flatnonzero(~y)))
    node = np.zeros(n, dtype=np.intp)
    depth, derived = 0, {}

    def histogram(j: int, d: int):
        if not counted:
            return root[j]
        cells = size.size * d
        return _histogram(count_node * d + ranks[j][count_rows], positives, cells,
                          cells <= dense_cells, derived.get(j))

    while is_open_node.any():
        if counted:
            count_rows, count_node = rows, node
            if derived:
                mine = node < counted
                count_rows, count_node = rows[mine], node[mine]
            positives, dense_cells = pos[:counted].sum(), _DENSE_CELLS_PER_ROW * rows.size
        with np.errstate(over="ignore"):  # an overflowing midpoint is no candidate
            feature, threshold, decrease, left_size, left_pos, cut, histograms = _level_splits(
                values, columns, histogram, size, pos, criterion)
        split = (feature >= 0) & is_open_node
        if not split.any():
            break
        # children are numbered breadth-first: by parent id, left before right
        parents = ids[split]
        left_id = np.empty(parents.size, dtype=np.intp)
        left_id[np.argsort(parents)] = (sum(made_ids.size for made_ids, _, _ in made)
                                        + 2 * np.arange(parents.size))
        splits.append((parents, feature[split], threshold[split], decrease[split],
                       left_id, left_id + 1))
        depth += 1
        ls, lp = left_size[split], left_pos[split]
        rs, rp = size[split] - ls, pos[split] - lp
        left_open, right_open = is_open(ls, lp), is_open(rs, rp)
        # the children by (split node, side)
        child_id, child_size, child_pos, child_open = (
            np.array(pair).ravel("F") for pair in ((left_id, left_id + 1), (ls, rs), (lp, rp),
                                                   (left_open, right_open)))
        made.append((child_id, child_size, child_pos))
        # the next level's working nodes, in order: the open children, all
        # counted; or, on a level whose open larger children hold enough rows,
        # the smaller child of every split node with an open child, counted
        # even when closed, then the open larger children, each derived as its
        # parent minus its smaller sibling
        small_left = ls <= rs  # on a tie the left child is the smaller
        large_open = np.where(small_left, right_open, left_open)
        if np.where(small_left, rs, ls)[large_open].sum() >= _MIN_DERIVED_ROWS:
            first = 2 * np.arange(ls.size)
            small = (first + ~small_left)[left_open | right_open]
            order = np.r_[small, (first + small_left)[large_open]]
            counted = small.size
        else:
            order = np.flatnonzero(child_open)
            counted = order.size
        if not order.size:
            break
        ids, size, pos, is_open_node = (
            a[order] for a in (child_id, child_size, child_pos, child_open))
        split_node = np.flatnonzero(split)
        child = np.full(2 * feature.size, -1, dtype=np.intp)  # the next level's, by (node, side)
        child[(2 * split_node[:, None] + (0, 1)).ravel()[order]] = np.arange(order.size)
        # a row goes right when its rank in the split column is above the cut;
        # rows of a node without a split read any column and drop out
        right = ranks[column_of[feature[node]], rows] > cut[node]
        node = child[2 * node + right]
        rows, node = rows[node >= 0], node[node >= 0]
        derived = {}
        if counted < order.size:
            parent = split_node[large_open]
            derived_child, counted_sibling = (np.full(feature.size, -1, dtype=np.intp)
                                              for _ in range(2))
            derived_child[parent] = np.arange(counted, order.size)
            counted_sibling[parent] = (np.cumsum(left_open | right_open) - 1)[large_open]
            derived = _parent_cells(histograms, values, derived_child, counted_sibling,
                                    count_type)

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
