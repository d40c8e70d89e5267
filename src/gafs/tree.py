"""Binary decision tree with threshold splits and a selectable impurity criterion.

Splits are axis-aligned (``value <= threshold`` goes left), candidate
thresholds are midpoints between consecutive distinct sorted values, and
growth is greedy, to purity: every impure node with a candidate threshold is
split by the largest weighted impurity decrease. Ties are broken by lowest
feature index, then lowest threshold, so training is fully deterministic.

Growth is level-synchronous and exact, from histograms (LightGBM's split
search with one bin per distinct value): each training column is ranked once
among its distinct values, and at each level two bincounts per column count
the rows and positives of each (node, rank) cell. One pass over the cells of
all the level's columns scores every candidate, one reduction picks each
node's split, and rows move down by comparing ranks. Nothing is presorted or
partitioned. Trees are flat arrays in breadth-first node order.

Every fit grows through a ``SplitTable``, which carries split searches from
one fit to the next on one training set under one criterion; a fit given
none makes its own. A node's rows are fixed by its path from the root, the
(column, cut rank, side) of every split above it, whatever other columns the
tree may use, and so is each column's best split there. The table keeps that
per (path, column) for the root and every node holding at least 1% of the
rows, and a fit counts and scores a column only at the nodes whose entry is
missing. A fit reads entries only for paths the table held when it started,
since a path it made itself has never been searched, so a level whose kept
paths are all new reads nothing. Both come from the same integer counts
through the same expressions, so a tree is bit-identical whichever table it
grows through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nslkdd import BinaryLabeledDataset

CRITERIA = ("entropy", "gini")

# A level's histogram of a column is a dense table of node x rank cells while
# it has at most this many cells per row; past that its cells come from a sort.
_DENSE_CELLS_PER_ROW = 4

# A SplitTable keeps only nodes holding at least this share of the training
# rows, and at most this many bytes of entries.
_TABLE_MIN_SHARE = 0.01
_TABLE_MAX_BYTES = 64 << 20


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


def _histogram(key, positives, cells, dense):
    """Column histogram of one level: its present cells in ascending order, with
    the rows and positives of each.

    A cell is (node, rank) as ``node * d + rank``; the level has ``cells`` of
    them. ``key`` is the cell of each counted row, positives (the first
    ``positives``) first. The histogram comes from a dense table of every cell
    when ``dense``, else from a sort of the keys.
    """
    if dense:
        count = np.bincount(key, minlength=cells)
        pos = np.bincount(key[:positives], minlength=cells)
        present = np.flatnonzero(count)
        return present, count[present], pos[present]
    present, count = np.unique(key, return_counts=True)
    positive_cell, positive_count = np.unique(key[:positives], return_counts=True)
    pos = np.zeros(present.size, dtype=np.int64)
    pos[np.searchsorted(present, positive_cell)] = positive_count
    return present, count, pos


class SplitTable:
    """Split searches shared by the fits on one training set under one criterion.

    A node is named by its path (see the module docstring), columns counted
    in ``train.features``. Each path gets a small integer id (the root's is
    0), interned from its parent's id and its last step. Each column that
    varies on the training set has a slot (``slot[j]``); the constant ones
    share one that is never scored. For path id p and slot s, ``scored[p, s]``
    tells whether a fit has searched the column there; if so, ``gain[p, s]``
    is the gain of its first-best split (-inf: no candidate), and
    ``threshold``, ``cut`` (the rank of the largest value that goes left),
    ``left_size`` and ``left_pos`` hold the rest of it. ``hits`` counts the
    (node, column) searches served. Fits through one table run one at a time.

    Only nodes holding at least ``_TABLE_MIN_SHARE`` (1%) of the n training
    rows are looked up or kept, so a tree has at most 100 of them at each
    depth. A path costs ``ENTRY_BYTES`` (29) per slot: 1,218 bytes when all
    41 NSL-KDD features vary. Past ``_TABLE_MAX_BYTES`` (64 MiB) new paths
    are scored but not kept.
    """

    # (name, dtype, value before a fit scores the slot) of each entry array
    FIELDS = (("gain", np.float64, -np.inf), ("threshold", np.float64, 0.0),
              ("cut", np.int32, 0), ("left_size", np.int32, 0), ("left_pos", np.int32, 0),
              ("scored", np.bool_, False))
    ENTRY_BYTES = sum(np.dtype(dtype).itemsize for _, dtype, _ in FIELDS)

    def __init__(self, train: BinaryLabeledDataset, criterion: str) -> None:
        check_criterion(criterion)
        n, k = np.shape(train.features)
        if n > np.iinfo(np.int32).max:
            raise ValueError("a split table holds row counts as int32")
        self.train, self.criterion = train, criterion
        self.floor = _TABLE_MIN_SHARE * n
        _, values = train.ranks.of(np.asarray(train.features, dtype=np.float64))
        varying = [j for j, v in enumerate(values) if v.size > 1]
        self.slot = np.full(k, len(varying), dtype=np.intp)
        self.slot[varying] = np.arange(len(varying))
        self.width = len(varying) + 1
        self.max_paths = max(1, _TABLE_MAX_BYTES // (self.width * self.ENTRY_BYTES))
        self._ids: dict[tuple[int, int, int, int], int] = {}  # (parent, column, cut, side) -> id
        self.hits = 0
        self._grow(1)

    @property
    def paths(self) -> int:
        return len(self._ids) + 1

    def _grow(self, capacity: int) -> None:
        for name, dtype, empty in self.FIELDS:
            old = getattr(self, name, np.empty((0, self.width), dtype=dtype))
            added = np.full((capacity - len(old), self.width), empty, dtype=dtype)
            setattr(self, name, np.concatenate((old, added)))

    def child_paths(self, parent, column, cut, side) -> np.ndarray:
        """Ids of the paths that extend ``parent`` by one step each, made on
        first sight; -1 where the table is full."""
        ids, out = self._ids, []
        for key in zip(parent.tolist(), column.tolist(), cut.tolist(), side.tolist()):
            path = ids.get(key, -1)
            if path < 0 and len(ids) + 1 < self.max_paths:
                path = ids[key] = len(ids) + 1
            out.append(path)
        if self.paths > len(self.gain):
            self._grow(min(2 * self.paths, self.max_paths))
        return np.array(out, dtype=np.intp)


def _run_starts(a):
    """Mask of the positions of a non-empty array that start a run of equal values."""
    starts = np.empty(a.size, dtype=bool)
    starts[0] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _joined(parts):
    """One array of a non-empty list of parts; the part itself when there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _level_splits(values, ranks, columns, rows, node, size, pos, criterion, table, path, born):
    """Best split of every node of one level, from a histogram per column.

    ``values[j]`` are column j's distinct values and ``ranks[j]`` each row's
    rank among them (``rank_columns``); ``columns`` (an array) are searched in
    tie-break order. ``rows`` are the level's rows, positives first, and
    ``node`` the node of each; node i holds ``size[i]`` rows and ``pos[i]``
    positives, and its path id in ``table`` is ``path[i]`` (-1: not kept).
    Paths with ids from ``born`` on were made by the running fit, so they
    have no entries yet: only the older ones are read, in one gather, and a
    column is counted only at the nodes whose entry it lacks. The cells of
    every counted column are scored in one pass, as (column, node) groups;
    each group's first-best split joins the entries read, each node takes
    the highest gain (the lowest column position on a tie), and the new
    entries of kept nodes are stored in one scatter. Returns per node the
    position in ``columns`` of the split column (-1: no candidate), the
    decrease, the threshold, the rank of the largest value that goes left,
    and the left child's size and positives.
    """
    m = size.size
    size_f, pos_f = size.astype(np.float64), pos.astype(np.float64)
    parent = _impurity_arrays(pos_f, size_f, criterion)
    slots = table.slot[columns]
    # per (node, column position) with a candidate: the split's gain,
    # threshold, cut rank, left size and positives; first the entries read
    found = []
    known = [0] * columns.size  # nodes with an entry, by column
    old = ((path >= 0) & (path < born)).nonzero()[0]  # nodes whose path may hold entries
    if old.size:
        at = path[old][:, None]
        scored = table.scored[at, slots]
        known = scored.sum(axis=0).tolist()
        table.hits += sum(known)
        has_entry = np.zeros((m, columns.size), dtype=bool)
        has_entry[old] = scored
        i, f = (table.gain[at, slots] > -np.inf).nonzero()
        if i.size:
            p, j = path[old[i]], slots[f]
            found.append((old[i], f, *(getattr(table, name)[p, j]
                                       for name, _, _ in table.FIELDS[:-1])))
    subsets = {}  # the counted nodes' rows, node of each and positives, by the nodes counted

    def counted(need):
        key = None if need is None else need.tobytes()
        if key not in subsets:
            if need is None:
                subsets[key] = rows, node, pos.sum()
            else:
                mine = need[node]
                subsets[key] = rows[mine], node[mine], pos[need].sum()
        return subsets[key]

    scored_here, histograms = [], []  # the columns counted, and their cells
    for f, j in enumerate(columns.tolist()):
        d = values[j].size
        # constant on the training set (no candidate anywhere), or every
        # node's entry was read above
        if d == 1 or known[f] == m:
            continue
        count_rows, count_node, positives = counted(~has_entry[:, f] if known[f] else None)
        cells = m * d
        cell, count, cell_pos = _histogram(count_node * d + ranks[j][count_rows], positives,
                                           cells, cells <= _DENSE_CELLS_PER_ROW * count_rows.size)
        cell_node, rank = np.divmod(cell, d)
        scored_here.append(f)
        histograms.append((f * m + cell_node, rank, values[j][rank], count, cell_pos))
    fresh = None  # the first-best split of each (column, node) group scored here
    if histograms:
        # groups ascend, and so do a group's ranks
        group, rank, value, count, cell_pos = map(_joined, zip(*histograms))
        # a candidate pairs a present rank with the next one of the same
        # group; the midpoint guards cover float collapse onto a neighbour
        # for extreme adjacent values
        candidates = (group[1:] == group[:-1]).nonzero()[0]
        after = candidates + 1
        lo, hi = value[candidates], value[after]
        thresholds = 0.5 * (lo + hi)  # may overflow (see fit): inf fails the guard below
        valid = (thresholds >= lo) & (thresholds < hi)
        if not valid.all():
            candidates, after, thresholds = candidates[valid], after[valid], thresholds[valid]
    if histograms and candidates.size:
        # a candidate's left rows and positives count from its group's first cell
        g = group[candidates]
        start = group.searchsorted(g)
        before, pos_before = count.cumsum() - count, cell_pos.cumsum() - cell_pos
        cand_size = before[after] - before[start]
        cand_pos = pos_before[after] - pos_before[start]
        cand_node = g % m
        lp, ln, n = cand_pos.astype(np.float64), cand_size.astype(np.float64), size_f[cand_node]
        rn, rp = n - ln, pos_f[cand_node] - lp
        children = (ln * _impurity_arrays(lp, ln, criterion)
                    + rn * _impurity_arrays(rp, rn, criterion)) / n
        gains = parent[cand_node] - children
        # candidates run group by group, each group's by threshold, so the
        # first one at its group's maximum has the lowest threshold
        starts = _run_starts(g)
        first = starts.nonzero()[0]
        top = np.maximum.reduceat(gains, first)
        at_top = (gains == top[starts.cumsum() - 1]).nonzero()[0]
        chosen = at_top[at_top.searchsorted(first)]
        f, cand_node = np.divmod(g[first], m)
        fresh = (cand_node, f, top, thresholds[chosen], rank[candidates[chosen]],
                 cand_size[chosen], cand_pos[chosen])
        found.append(fresh)
    out = (np.full(m, -1, dtype=np.intp), np.full(m, -np.inf), np.zeros(m),
           *(np.zeros(m, dtype=np.int64) for _ in range(3)))
    if found:
        # each node's split: the highest gain, then the lowest column position
        nodes, f, gain, *fields = map(_joined, zip(*found))
        order = np.lexsort((f, -gain, nodes))
        won = order[_run_starts(nodes[order])]
        winners = nodes[won]
        for array, value in zip(out, (f, gain, *fields)):
            array[winners] = value[won]
    tracked = path[path >= 0]
    if tracked.size and scored_here:  # store what was scored at the kept nodes
        table.scored[tracked[:, None], slots[scored_here]] = True
        if fresh is not None:
            nodes, f, *fields = fresh
            kept = path[nodes] >= 0
            p, j = path[nodes[kept]], slots[f[kept]]
            for (name, _, _), value in zip(table.FIELDS, fields):
                getattr(table, name)[p, j] = value[kept]
    return out


def fit(train: BinaryLabeledDataset, criterion: str = "entropy",
        columns: list[int] | None = None, table: SplitTable | None = None) -> DecisionTree:
    """Grow a tree on some columns of the training set, a level at a time.

    ``columns`` are positions in ``train.features`` (all of them when None);
    the tree's feature indices count within them. They are read out of the
    training set's rank table (``train.ranks``, made by the first fit on the
    matrix), so no projected copy is built. The split searches go through
    ``table``, which must be made for this training set and criterion: it
    serves the searches earlier fits made and keeps this fit's. Only paths
    the table held when the fit started can have entries, so a level whose
    kept paths are all new reads none. Without a table the fit makes its
    own. The tree is always grown to purity: a node becomes a leaf only when
    it is pure or has no candidate split. Same inputs always give an
    identical tree.
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
    if table is None:
        table = SplitTable(train, criterion)
    elif table.train is not train or table.criterion != criterion:
        raise ValueError("a split table serves only the training set and criterion "
                         "it was made for")
    n = y.size
    born = table.paths  # ids from here on are paths this fit makes
    ranks, values = train.ranks.of(X)
    flat_ranks = ranks.reshape(-1)  # column j's rank of row i at j * n + i
    column_of = np.asarray(columns)

    def is_open(size: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return (pos > 0) & (pos < size)  # impure, so it holds at least two rows

    # per level: the nodes made (sizes, positives) and the splits made; nodes
    # are numbered in the order they are made, made_count so far
    made, made_count = [(np.array([n]), np.array([np.count_nonzero(y)]))], 1
    splits = []
    # the level's open nodes (ids, sizes, positives, path ids in the table),
    # their rows, positives first, and the node of each
    root_open = is_open(*made[0])
    size, pos = (a[root_open] for a in made[0])
    ids = np.zeros(size.size, dtype=np.intp)
    path = np.zeros(size.size, dtype=np.intp)
    rows = np.concatenate((np.flatnonzero(y), np.flatnonzero(~y)))
    node = np.zeros(n, dtype=np.intp)
    depth = 0

    while size.size:
        with np.errstate(over="ignore"):  # an overflowing midpoint is no candidate
            feature, decrease, threshold, cut, left_size, left_pos = _level_splits(
                values, ranks, column_of, rows, node, size, pos, criterion, table, path, born)
        split = (feature >= 0).nonzero()[0]
        if not split.size:
            break
        # the children by (split node, side), numbered breadth-first: by
        # parent id, left before right
        child_id = np.arange(made_count, made_count + 2 * split.size)
        made_count += child_id.size
        splits.append((ids[split], feature[split], threshold[split], decrease[split],
                       child_id[::2], child_id[1::2]))
        depth += 1
        child_size, child_pos = np.empty((2, child_id.size), dtype=np.int64)
        child_size[::2], child_pos[::2] = left_size[split], left_pos[split]
        child_size[1::2] = size[split] - child_size[::2]
        child_pos[1::2] = pos[split] - child_pos[::2]
        made.append((child_size, child_pos))
        child_open = is_open(child_size, child_pos)
        order = child_open.nonzero()[0]  # the next level's nodes
        if not order.size:
            break
        # the children's paths, kept for open ones above the floor
        child_path = np.full(child_id.size, -1, dtype=np.intp)
        step = split.repeat(2)
        keep = (child_open & (path[step] >= 0) & (child_size >= table.floor)).nonzero()[0]
        if keep.size:
            at = step[keep]
            child_path[keep] = table.child_paths(path[at], column_of[feature[at]], cut[at],
                                                 keep % 2)
        path = child_path[order]
        ids, size, pos = child_id[order], child_size[order], child_pos[order]
        # the next level's node of each (node, side)
        child = np.full((feature.size, 2), -1, dtype=np.intp)
        nested = np.full(child_id.size, -1, dtype=np.intp)
        nested[order] = np.arange(order.size)
        child[split] = nested.reshape(-1, 2)
        # a row goes right when its rank in the split column is above the cut;
        # rows of a node without a split read any column and drop out
        right = flat_ranks[(column_of[feature] * n)[node] + rows] > cut[node]
        node = child.reshape(-1)[2 * node + right]
        stays = node >= 0
        rows, node = rows[stays], node[stays]

    node_size, node_pos = map(np.concatenate, zip(*made))
    counts = np.c_[node_size - node_pos, node_pos]
    feature, left, right = (np.full(made_count, -1, dtype=np.intp) for _ in range(3))
    threshold, decrease = np.zeros(made_count), np.zeros(made_count)
    if splits:
        parent, *arrays = map(np.concatenate, zip(*splits))
        feature[parent], threshold[parent], decrease[parent], left[parent], right[parent] = arrays
    return DecisionTree(feature, threshold, decrease, left, right, counts,
                        counts[:, 1] > counts[:, 0], criterion, len(columns), depth,
                        tuple(train.feature_names[i] for i in columns))


def predict_batch(tree: DecisionTree, features, columns=None) -> np.ndarray:
    """Classify every row of a feature matrix, a tree level per step; a bool vector.

    ``columns`` are the positions in ``features`` of the tree's features, so
    a tree fitted on some columns of a matrix reads a matrix of the same
    layout in place; when None, the matrix holds just the tree's features,
    in order. Either layout is read in place.
    """
    X = np.asarray(features, dtype=np.float64)
    width = X.shape[1] if X.ndim == 2 else -1
    if columns is None:
        if width != tree.feature_count:
            raise ValueError(f"expected a matrix with {tree.feature_count} columns, "
                             f"got shape {X.shape}")
        columns = np.arange(width)
    columns = np.asarray(columns, dtype=np.intp)
    if columns.shape != (tree.feature_count,) or not ((0 <= columns) & (columns < width)).all():
        raise ValueError(f"expected {tree.feature_count} positions of columns of a matrix, "
                         f"got {columns.tolist()} for shape {X.shape}")
    if not X.flags.f_contiguous:
        X = np.ascontiguousarray(X)
    # a view of either layout: row i's column j at i * row_step + j * column_step
    flat = X.ravel(order="A")
    row_step, column_step = (stride // X.itemsize for stride in X.strides)
    offset = columns * column_step  # of each of the tree's features
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        feature = tree.feature[at]
        inner = feature >= 0
        rows, at, feature = rows[inner], at[inner], feature[inner]
        go_left = flat[rows * row_step + offset[feature]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.predicted[node]
