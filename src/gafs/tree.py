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

Rows that agree on the label and on every column a fit may split on share
every node and every (node, rank) cell. A mask of a few low-cardinality
columns leaves many such duplicates, so when few distinct (ranks, label)
units stand for the rows, a fit grows over the units: one row stands for
each, and the histograms add up each unit's row count as its weight. The
counts, and so the tree, are the same as counting every row. A column that
counted one present rank at every node of a level has no candidate below it
and is not counted again in that fit.

Every fit grows through a ``SplitTable``, which holds the training context
(the checked training set's rank table and row order) and carries split
searches from one fit to the next on one training set under one criterion; a
fit given none makes its own. A node's rows are fixed by its path from the
root, the (column, cut rank, side) of every split above it, whatever other
columns the tree may use, and so is each column's best split there. The
table keeps that split as one 28-byte record per (path, column) for the root
and every node holding at least 1% of the rows, and a fit counts and scores a
column only at the nodes whose entry is missing; a path the running fit
made has no entries yet, so it reads as unsearched. Both come from the same
integer counts through the same expressions, so a tree is bit-identical
whichever table it grows through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nslkdd import BinaryLabeledDataset

CRITERIA = ("entropy", "gini")

# A level's histogram of a column is a dense table of node x rank cells while
# it has at most this many cells per row; past that its cells come from a sort.
_DENSE_CELLS_PER_ROW = 4

# A fit counts units of duplicate rows (see _units) when their composite key
# spans at most this many cells per training row, and they number at most
# this share of the rows.
_UNIT_SPAN_PER_ROW = 4
_UNIT_MAX_SHARE = 0.5

# A SplitTable keeps only nodes holding at least this share of the training
# rows, and at most this many bytes of entries.
_TABLE_MIN_SHARE = 0.01
_TABLE_MAX_BYTES = 64 << 20


@dataclass
class DecisionTree:
    """Flat arrays in breadth-first node order; node 0 is the root.

    ``feature`` is a column of the matrix the tree was fitted on, which has
    ``feature_count`` columns. Leaves have ``feature``/``left``/``right`` -1
    and threshold and decrease 0.0. ``counts`` is (negatives, positives) of
    the training samples at each node; ``predicted`` is the majority class,
    negative on an exact tie.
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


def _histogram(key, positives, cells, dense, weight=None):
    """Column histogram of one level: its present cells in ascending order, with
    the rows and positives of each.

    A cell is (node, rank) as ``node * d + rank``; the level has ``cells`` of
    them. ``key`` is the cell of each counted unit, positive units (the first
    ``positives``) first; a unit stands for ``weight`` rows (None: one each),
    and weighted counts come as float64, exact. The histogram comes from
    dense tables of every cell when ``dense``, one for the positive units and
    one for the negative, else from one sort of the keys, each tagged in its
    lowest bit with 1 for a negative unit.
    """
    if dense:
        head, tail = (None, None) if weight is None else (weight[:positives], weight[positives:])
        pos = np.bincount(key[:positives], head, minlength=cells)
        count = pos + np.bincount(key[positives:], tail, minlength=cells)
        present = np.flatnonzero(count)
        return present, count[present], pos[present]
    tagged = key << 1
    tagged[positives:] += 1
    if weight is None:
        tagged.sort()
        negative = tagged & 1
    else:
        order = tagged.argsort()
        tagged, weight = tagged[order], weight[order]
        negative = np.where(tagged & 1, weight, 0.0)
    first = _run_starts(tagged >> 1).nonzero()[0]
    count = (np.diff(first, append=tagged.size) if weight is None
             else np.add.reduceat(weight, first))
    return tagged[first] >> 1, count, count - np.add.reduceat(negative, first)


class SplitTable:
    """Split searches shared by the fits on one training set under one criterion.

    The table checks the training set once and holds what every fit on it
    reads: the rank table (``ranks``, ``values``: ``rank_columns``, shared
    through ``train.ranks``), the row indices positives first (``rows``,
    read-only), the positive count (``positives``) and which rows are
    negative (``negative``).

    A node is named by its path (see the module docstring), columns counted
    in ``train.features``. Each path gets a small integer id (the root's is
    0), interned from its parent's id and its last step. Each column that
    varies on the training set has a slot (``slot[j]``); a constant one has
    none (-1), since no fit searches it. ``entries[p, s]`` is one ``ENTRY``
    record for path id p and slot s: the gain of the first-best split there
    (NaN: not searched yet; -inf: searched, no candidate), its threshold,
    ``cut`` (the rank of the largest value that goes left), and the left
    child's size and positives. ``hits`` counts the (node, column) searches
    served. Fits through one table run one at a time.

    Only nodes holding at least ``_TABLE_MIN_SHARE`` (1%) of the n training
    rows are looked up or kept, so a tree has at most 100 of them at each
    depth. A path costs ``ENTRY.itemsize`` (28) bytes per slot: 1,148 bytes
    when all 41 NSL-KDD features vary. Past ``_TABLE_MAX_BYTES`` (64 MiB)
    new paths are searched but not kept.
    """

    ENTRY = np.dtype([("gain", np.float64), ("threshold", np.float64), ("cut", np.int32),
                      ("left_size", np.int32), ("left_pos", np.int32)])

    def __init__(self, train: BinaryLabeledDataset, criterion: str) -> None:
        check_criterion(criterion)
        X = np.asarray(train.features, dtype=np.float64)
        y = np.asarray(train.targets, dtype=bool)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("training data must contain at least one record")
        if X.shape[0] != y.size:
            raise ValueError("feature matrix and targets differ in length")
        if y.size > np.iinfo(np.int32).max:
            raise ValueError("a split table holds row counts as int32")
        self.train, self.criterion = train, criterion
        self.floor = _TABLE_MIN_SHARE * y.size
        self.ranks, self.values = train.ranks.of(X)
        self.negative = ~y
        self.rows = np.concatenate((np.flatnonzero(y), np.flatnonzero(self.negative)))
        self.rows.flags.writeable = False
        self.positives = np.count_nonzero(y)
        varying = [j for j, v in enumerate(self.values) if v.size > 1]
        self.slot = np.full(X.shape[1], -1, dtype=np.intp)
        self.slot[varying] = np.arange(len(varying))
        self.width = len(varying)
        self.max_paths = max(1, _TABLE_MAX_BYTES // (max(1, self.width) * self.ENTRY.itemsize))
        self._ids: dict[tuple[int, int, int, int], int] = {}  # (parent, column, cut, side) -> id
        self.hits = 0
        self.entries = self.unsearched(1, self.width)

    @property
    def paths(self) -> int:
        return len(self._ids) + 1

    @classmethod
    def unsearched(cls, *shape) -> np.ndarray:
        """Entries that no fit has searched: NaN gains, zeros elsewhere."""
        entries = np.zeros(shape, dtype=cls.ENTRY)
        entries["gain"] = np.nan
        return entries

    def child_paths(self, parent, column, cut, side) -> np.ndarray:
        """Ids of the paths that extend ``parent`` by one step each, made on
        first sight; -1 where the table is full."""
        ids, out = self._ids, []
        for key in zip(parent.tolist(), column.tolist(), cut.tolist(), side.tolist()):
            path = ids.get(key, -1)
            if path < 0 and len(ids) + 1 < self.max_paths:
                path = ids[key] = len(ids) + 1
            out.append(path)
        if self.paths > len(self.entries):
            added = min(2 * self.paths, self.max_paths) - len(self.entries)
            self.entries = np.concatenate((self.entries, self.unsearched(added, self.width)))
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


class _Sample(NamedTuple):
    """The units a level counts, positive ones (the first ``positives``)
    first: a row standing for each (``rows``), the rows it stands for
    (``weight``; None: one each) and its node at the level (``node``)."""

    rows: np.ndarray
    weight: np.ndarray | None
    positives: int
    node: np.ndarray

    def where(self, keep: np.ndarray) -> _Sample:
        """The units where the bool vector ``keep`` holds, in order."""
        return _Sample(self.rows[keep], None if self.weight is None else self.weight[keep],
                       np.count_nonzero(keep[:self.positives]), self.node[keep])


def _units(table, columns):
    """The root's sample of a fit on ``columns`` (varying, distinct): one unit
    per row, or, when that pays, one per distinct (ranks in ``columns``,
    label) of the training rows, standing for its rows.

    A unit's rows share a node and a (node, rank) cell at every level, so
    counting each unit once with its weight gives every count, and so every
    gain, of counting its rows. Units are found by one count of a composite
    key, the label its highest digit and the ranks mixed-radix below it, and
    only when that key spans at most ``_UNIT_SPAN_PER_ROW`` cells per row;
    they are kept when there are at most ``_UNIT_MAX_SHARE`` of them per row.
    """
    n = table.rows.size
    by_rows = _Sample(table.rows, None, table.positives, np.zeros(n, dtype=np.intp))
    radix = [table.values[j].size for j in columns]
    span = 2 * math.prod(radix)  # exact: a Python int
    if span > _UNIT_SPAN_PER_ROW * n:
        return by_rows
    key = table.negative.astype(np.int64)
    for j, d in zip(columns, radix):
        key *= d
        key += table.ranks[j]
    count = np.bincount(key)
    units = count.nonzero()[0]  # a positive unit's key is below span // 2
    if units.size > _UNIT_MAX_SHARE * n:
        return by_rows
    row_of = np.empty(count.size, dtype=np.intp)
    row_of[key] = np.arange(n)  # any row of a unit stands for it
    return _Sample(row_of[units], count[units].astype(np.float64),
                   int(units.searchsorted(span // 2)), np.zeros(units.size, dtype=np.intp))


def _level_splits(table, columns, dead, sample, size, pos, path):
    """Best split of every node of one level, from a histogram per column.

    ``columns`` (an array) vary on the training set and are searched in
    tie-break order, with the values, ranks and criterion of ``table``; a
    column marked in ``dead`` has no candidate at any node from here down,
    and this level marks each column it counts at every node without finding
    two present ranks at one. ``sample`` holds the level's units; node i
    holds ``size[i]`` rows and ``pos[i]`` positives, and its path id in
    ``table`` is ``path[i]`` (-1: not kept). The kept paths' entries are read
    in one gather, and a column is counted only at the nodes whose entry it
    lacks (a path the running fit made has none yet). The cells of every
    counted column are scored in one pass, as (column, node) groups; each
    group's first-best split joins the entries read, each node takes the
    highest gain (the lowest column position on a tie), and the counted or
    dead entries of kept nodes are stored in one scatter. Returns per node
    the position in ``columns`` of the split column (-1: no candidate) and
    the split, as a ``SplitTable.ENTRY``.
    """
    m = size.size
    size_f, pos_f = size.astype(np.float64), pos.astype(np.float64)
    parent = _impurity_arrays(pos_f, size_f, table.criterion)
    slots = table.slot[columns]
    # the split of each (node, column position); first the entries read
    level = SplitTable.unsearched(m, columns.size)
    gain = level["gain"]
    known = [0] * columns.size  # nodes with an entry, by column
    kept = (path >= 0).nonzero()[0]
    if kept.size:
        level[kept] = table.entries[path[kept][:, None], slots]
        known = (~np.isnan(gain)).sum(axis=0).tolist()
        table.hits += sum(known)
    subsets = {}  # the counted nodes' units, by the nodes counted

    def counted(need):
        key = None if need is None else need.tobytes()
        if key not in subsets:
            subsets[key] = sample if need is None else sample.where(need[sample.node])
        return subsets[key]

    searched, histograms = [], []  # the columns counted or dead, and the cells counted
    for f, j in enumerate(columns.tolist()):
        if known[f] == m:  # every node's entry was read above
            continue
        searched.append(f)
        if dead[f]:
            continue
        units = counted(np.isnan(gain[:, f]) if known[f] else None)
        values = table.values[j]
        d = values.size
        cells = m * d
        cell, count, cell_pos = _histogram(units.node * d + table.ranks[j][units.rows],
                                           units.positives, cells,
                                           cells <= _DENSE_CELLS_PER_ROW * units.rows.size,
                                           units.weight)
        if not known[f] and cell.size == m:  # one present rank at every node
            dead[f] = True
            continue
        cell_node, rank = np.divmod(cell, d)
        histograms.append((f * m + cell_node, cell_node, rank, values[rank], count, cell_pos))
    if histograms:
        # groups ascend, and so do a group's ranks
        group, cell_node, rank, value, count, cell_pos = map(_joined, zip(*histograms))
        # a candidate pairs a present rank with the next one of the same
        # group; the midpoint guards cover float collapse onto a neighbour
        # for extreme adjacent values
        opens = _run_starts(group)
        candidates = (~opens[1:]).nonzero()[0]
        after = candidates + 1
        lo, hi = value[candidates], value[after]
        thresholds = 0.5 * (lo + hi)  # may overflow (see fit): inf fails the guard below
        valid = (thresholds >= lo) & (thresholds < hi)
        if not valid.all():
            candidates, after, thresholds = candidates[valid], after[valid], thresholds[valid]
    if histograms and candidates.size:
        # a candidate's left rows and positives count from its group's first
        # cell, the last group start at or before it
        start = np.maximum.accumulate(np.where(opens, np.arange(group.size), 0))[candidates]
        before, pos_before = count.cumsum() - count, cell_pos.cumsum() - cell_pos
        cand_size = before[after] - before[start]
        cand_pos = pos_before[after] - pos_before[start]
        cand_node = cell_node[candidates]
        lp, ln, n = cand_pos.astype(np.float64), cand_size.astype(np.float64), size_f[cand_node]
        rn, rp = n - ln, pos_f[cand_node] - lp
        children = (ln * _impurity_arrays(lp, ln, table.criterion)
                    + rn * _impurity_arrays(rp, rn, table.criterion)) / n
        gains = parent[cand_node] - children
        # candidates run group by group, each group's by threshold, so the
        # first one at its group's maximum has the lowest threshold
        g = group[candidates]
        first = _run_starts(g).nonzero()[0]
        top = np.maximum.reduceat(gains, first)
        at_top = (gains == top.repeat(np.diff(first, append=g.size))).nonzero()[0]
        chosen = at_top[at_top.searchsorted(first)]
        f, cand_node = g[first] // m, cand_node[first]
        fresh = (top, thresholds[chosen], rank[candidates[chosen]], cand_size[chosen],
                 cand_pos[chosen])
        for name, field in zip(SplitTable.ENTRY.names, fresh):
            level[name][cand_node, f] = field
    # a slot still NaN was counted without a candidate, or its column is dead
    np.fmax(gain, -np.inf, out=gain)
    feature = gain.argmax(axis=1)  # the highest gain, at the lowest column position
    best = level[np.arange(m), feature]
    feature[best["gain"] == -np.inf] = -1
    if kept.size and searched:  # store the columns counted or dead at the kept nodes
        table.entries[path[kept][:, None], slots[searched]] = level[kept[:, None], searched]
    return feature, best


def fit(train: BinaryLabeledDataset, criterion: str = "entropy",
        columns: list[int] | None = None, table: SplitTable | None = None) -> DecisionTree:
    """Grow a tree on some columns of the training set, a level at a time.

    ``columns`` are positions in ``train.features`` (all of them when None),
    in tie-break order, and the tree's ``feature`` holds the column each
    node splits on. The fit reads them out of ``table``'s rank table, so no
    projected copy is built. ``table`` must be made for this training set
    and criterion: it holds the training context (rank table and row
    order), serves the split searches earlier fits made and keeps this
    fit's. Without a table the fit makes its own. Only the columns that vary
    on the training set are searched, and a column is dropped from the
    search below a level that found one present rank at every node. When
    few distinct (ranks, label) units stand for the rows (see ``_units``),
    the fit counts each unit once, by its weight, instead of each row; every
    count, and so the tree, is the same. The tree is always grown to purity:
    a node becomes a leaf only when it is pure or has no candidate split.
    Same inputs always give an identical tree.
    """
    check_criterion(criterion)
    if table is None:
        table = SplitTable(train, criterion)
    elif table.train is not train or table.criterion != criterion:
        raise ValueError("a split table serves only the training set and criterion "
                         "it was made for")
    columns = list(range(table.slot.size) if columns is None else columns)
    if not columns:
        raise ValueError("training data must contain at least one feature column")
    n = table.rows.size
    flat_ranks = table.ranks.reshape(-1)  # column j's rank of row i at j * n + i
    # the columns that vary, the only ones a split can use
    column_of = np.asarray(columns, dtype=np.intp)[table.slot[columns] >= 0]
    dead = np.zeros(column_of.size, dtype=bool)

    def is_open(size: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return (pos > 0) & (pos < size)  # impure, so it holds at least two rows

    # per level: the nodes made (sizes, positives) and the splits made; nodes
    # are numbered in the order they are made, made_count so far
    made, made_count = [(np.array([n]), np.array([table.positives]))], 1
    splits = []
    # the level's open nodes (ids, sizes, positives, path ids in the table)
    # and its units
    root_open = is_open(*made[0]) & bool(column_of.size)  # no varying column: a leaf
    size, pos = (a[root_open] for a in made[0])
    ids = np.zeros(size.size, dtype=np.intp)
    path = np.zeros(size.size, dtype=np.intp)
    sample = _units(table, sorted(set(column_of.tolist()))) if size.size else None
    depth = 0

    while size.size:
        with np.errstate(over="ignore"):  # an overflowing midpoint is no candidate
            feature, best = _level_splits(table, column_of, dead, sample, size, pos, path)
        split = (feature >= 0).nonzero()[0]
        if not split.size:
            break
        # each node's split column; a node without a split reads the last one
        column = column_of[feature]
        # the children by (split node, side), numbered breadth-first: by
        # parent id, left before right
        child_id = np.arange(made_count, made_count + 2 * split.size)
        made_count += child_id.size
        won = best[split]
        splits.append((ids[split], column[split], won["threshold"], won["gain"],
                       child_id[::2], child_id[1::2]))
        depth += 1
        child_size, child_pos = np.empty((2, child_id.size), dtype=np.int64)
        child_size[::2], child_pos[::2] = won["left_size"], won["left_pos"]
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
            child_path[keep] = table.child_paths(path[at], column[at],
                                                 best["cut"][at], keep % 2)
        path = child_path[order]
        ids, size, pos = child_id[order], child_size[order], child_pos[order]
        # the next level's node of each (node, side)
        child = np.full((feature.size, 2), -1, dtype=np.intp)
        nested = np.full(child_id.size, -1, dtype=np.intp)
        nested[order] = np.arange(order.size)
        child[split] = nested.reshape(-1, 2)
        # a unit goes right when its rank in the split column is above the
        # cut; units of a node without a split read any column and drop out
        node = sample.node
        right = flat_ranks[(column * n)[node] + sample.rows] > best["cut"][node]
        node = child.reshape(-1)[2 * node + right]
        sample = sample._replace(node=node).where(node >= 0)

    node_size, node_pos = map(np.concatenate, zip(*made))
    counts = np.c_[node_size - node_pos, node_pos]
    feature, left, right = (np.full(made_count, -1, dtype=np.intp) for _ in range(3))
    threshold, decrease = np.zeros(made_count), np.zeros(made_count)
    if splits:
        parent, *arrays = map(np.concatenate, zip(*splits))
        feature[parent], threshold[parent], decrease[parent], left[parent], right[parent] = arrays
    return DecisionTree(feature, threshold, decrease, left, right, counts,
                        counts[:, 1] > counts[:, 0], criterion, table.slot.size, depth)


def predict_batch(tree: DecisionTree, features) -> np.ndarray:
    """Classify every row of a feature matrix, a tree level per step; a bool vector.

    The matrix has the columns of the one the tree was fitted on, in the same
    order, so a tree fitted on some columns of a matrix reads a matrix of
    that layout in place. A column-major matrix, as ``Dataset.features`` is,
    is read in place; any other is copied to that layout first.
    """
    X = np.asfortranarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.feature_count:
        raise ValueError(f"expected a matrix with {tree.feature_count} columns, "
                         f"got shape {X.shape}")
    n = X.shape[0]
    flat = X.ravel(order="F")  # a view: row i's column j at i + j * n
    node = np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    while rows.size:
        at = node[rows]
        feature = tree.feature[at]
        inner = feature >= 0
        rows, at, feature = rows[inner], at[inner], feature[inner]
        go_left = flat[rows + feature * n] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.predicted[node]
