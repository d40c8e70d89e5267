import contextlib
import gc
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gafs import ga, nslkdd, tree as tree_module
from gafs.ga import compute_fitness
from gafs.nslkdd import (
    N_FEATURES, BinaryLabeledDataset, FeatureMask, project, rank_columns, relabel,
)
from gafs.tree import CRITERIA, SplitTable, fit, impurity, predict_batch

import oracles
from oracles import bfs_arrays, brute_force_splits, pernode_fit, predict

TREE_ARRAYS = ("feature", "threshold", "impurity_decrease", "left", "right",
               "counts", "predicted")


def in_columns(reference, columns):
    """The arrays of a tree fitted on the projection to ``columns`` (a
    ``DecisionTree`` or ``bfs_arrays``' dict), as a fit on those columns of
    the full matrix gives them: each feature, a position in ``columns``, is
    mapped to its column; leaves stay -1."""
    arrays = {name: reference[name] if isinstance(reference, dict) else getattr(reference, name)
              for name in TREE_ARRAYS}
    feature = arrays["feature"].copy()
    inner = feature >= 0
    feature[inner] = np.asarray(columns, dtype=np.intp)[feature[inner]]
    return {**arrays, "feature": feature}


def assert_same_arrays(tree, arrays):
    """Each of ``tree``'s arrays has the dtype and bytes of ``arrays``'."""
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), arrays[name]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def binary(X, y):
    return BinaryLabeledDataset(np.asarray(X, dtype=float), np.asarray(y, bool))


# ------------------------------------------------------------------ impurity


def test_impurity_pure_node_is_zero():
    assert impurity((10, 0), "entropy") == 0.0
    assert impurity((0, 10), "gini") == 0.0


def test_impurity_balanced_node():
    assert impurity((5, 5), "entropy") == pytest.approx(1.0)
    assert impurity((5, 5), "gini") == pytest.approx(0.5)


def test_impurity_eight_two():
    # -0.8*log2(0.8) - 0.2*log2(0.2) and 1 - 0.64 - 0.04, worked by hand
    assert impurity((8, 2), "entropy") == pytest.approx(0.72193, abs=1e-5)
    assert impurity((8, 2), "gini") == pytest.approx(0.32, abs=1e-12)


def test_impurity_empty_node_rejected():
    with pytest.raises(ValueError):
        impurity((0, 0), "entropy")


def test_impurity_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        impurity((1, 1), "variance")


@given(
    a=st.integers(min_value=0, max_value=10_000),
    b=st.integers(min_value=0, max_value=10_000),
    criterion=st.sampled_from(["entropy", "gini"]),
)
def test_impurity_bounds_and_purity(a, b, criterion):
    if a + b == 0:
        return
    value = impurity((a, b), criterion)
    upper = 1.0 if criterion == "entropy" else 0.5
    assert -1e-12 <= value <= upper + 1e-12
    if a == 0 or b == 0:
        assert value == 0.0
    else:
        assert value > 0.0


# ------------------------------------------------------------ the root split
#
# The root node of ``fit`` is the best split of the whole training set; a root
# with feature -1 is a leaf: no split.


def test_perfect_separator_gains_parent_impurity():
    tree = fit(binary([[0.0], [1.0], [0.0], [1.0]], [False, True, False, True]), "entropy")
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(0.5)
    assert tree.impurity_decrease[0] == pytest.approx(1.0)


def test_identical_feature_vectors_give_no_split():
    X = np.ones((6, 3))
    y = [True, False, True, False, False, True]
    assert fit(binary(X, y), "entropy").feature[0] == -1
    assert fit(binary(X, y), "gini").feature[0] == -1


def test_pure_node_gives_no_split():
    X = np.arange(8.0).reshape(4, 2)
    assert fit(binary(X, [True] * 4), "gini").feature[0] == -1


def test_tie_breaks_prefer_lowest_feature_then_threshold():
    # both columns separate perfectly; feature 0 must win
    X = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
    y = [False, False, True, True]
    assert fit(binary(X, y), "gini").feature[0] == 0
    # within one column, two equally good thresholds: the lower wins
    X2 = np.array([[0.0], [1.0], [2.0], [3.0]])
    y2 = [False, True, False, True]
    assert fit(binary(X2, y2), "entropy").threshold[0] == pytest.approx(0.5)


small_instances = st.tuples(
    st.integers(min_value=2, max_value=12),  # records
    st.integers(min_value=1, max_value=3),  # features
).flatmap(
    lambda shape: st.tuples(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=3),
                     min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ),
        st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]),
    )
)


@settings(max_examples=300, deadline=None)
@given(instance=small_instances, criterion=st.sampled_from(["entropy", "gini"]))
def test_root_split_matches_exhaustive_search(instance, criterion):
    rows, y = instance
    X = np.array(rows, dtype=float)
    tree = fit(binary(X, y), criterion)
    oracle = brute_force_splits(X, y, criterion)
    pos = sum(y)
    if pos in (0, len(y)) or not oracle:
        assert tree.feature[0] == -1
        return
    best_decrease = max(d for _, _, d in oracle)
    assert tree.feature[0] >= 0
    assert tree.impurity_decrease[0] == pytest.approx(best_decrease, abs=1e-9)
    # the implementation's pick must be among the oracle's optimal splits
    # (1e-9 window absorbs float noise between the two computations)
    optimal = [(f, t) for f, t, d in oracle if d >= best_decrease - 1e-9]
    assert (tree.feature[0], tree.threshold[0]) in [
        (f, pytest.approx(t)) for f, t in optimal
    ]
    if len(optimal) == 1:
        f, t = optimal[0]
        assert tree.feature[0] == f
        assert tree.threshold[0] == pytest.approx(t)


# ----------------------------------------------------------------------- fit


def test_constant_labels_give_single_leaf():
    data = binary([[1, 2], [3, 4], [5, 6]], [False, False, False])
    tree = fit(data, "entropy")
    assert tree.node_count == 1
    assert tree.feature[0] == -1 and tree.left[0] == -1
    assert bool(tree.predicted[0]) is False


def test_xor_reaches_depth_two_and_fits_training_data():
    data = binary([[0, 0], [0, 1], [1, 0], [1, 1]], [False, True, True, False])
    for criterion in ("entropy", "gini"):
        tree = fit(data, criterion)
        assert tree.depth == 2
        assert np.array_equal(predict_batch(tree, data.features), data.targets)


def test_fully_grown_tree_has_zero_training_error(tiny_task):
    tree = fit(tiny_task, "entropy")
    assert np.array_equal(predict_batch(tree, tiny_task.features), tiny_task.targets)


def test_fit_rejects_empty_inputs():
    with pytest.raises(ValueError):
        fit(binary(np.empty((0, 2)), []))
    with pytest.raises(ValueError):
        fit(binary(np.empty((3, 0)), [True, False, True]))


def test_fit_rejects_unknown_criterion(tiny_task):
    with pytest.raises(ValueError, match="criterion must be one of"):
        fit(tiny_task, "variance")


def test_leaf_tie_predicts_negative():
    data = binary([[1], [1]], [True, False])
    tree = fit(data, "entropy")
    assert tree.feature[0] == -1 and tree.left[0] == -1
    assert bool(tree.predicted[0]) is False


def test_fit_is_deterministic(tiny_task):
    a = fit(tiny_task, "entropy")
    b = fit(tiny_task, "entropy")
    for name in TREE_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.node_count, a.depth) == (b.node_count, b.depth)


def test_internal_decreases_are_nonnegative(tiny_task):
    tree = fit(tiny_task, "gini")
    # every internal node, found by walking down from the root
    internal, stack = [], [0]
    while stack:
        node = stack.pop()
        if tree.feature[node] >= 0:
            internal.append(node)
            stack += [tree.left[node], tree.right[node]]
    assert sorted(internal) == list(np.flatnonzero(tree.feature >= 0))
    assert (tree.impurity_decrease[internal] >= 0.0).all()
    assert tree.node_count >= 3


# ------------------------------------------------------------------- predict


def test_single_leaf_tree_predicts_its_class_for_any_input():
    data = binary([[1, 2], [3, 4]], [True, True])
    tree = fit(data, "gini")
    assert predict(tree, [0, 0]) is True
    assert predict(tree, [99, -5]) is True


def test_predict_rejects_length_mismatch(tiny_task):
    tree = fit(tiny_task, "entropy")
    with pytest.raises(ValueError):
        predict(tree, [0.0] * (tree.feature_count + 1))
    with pytest.raises(ValueError):
        predict_batch(tree, np.zeros((3, tree.feature_count + 1)))


def test_predict_batch_agrees_with_predict(tiny_task):
    tree = fit(tiny_task, "entropy")
    batch = predict_batch(tree, tiny_task.features)
    singles = [predict(tree, row) for row in tiny_task.features]
    assert list(batch) == singles


def test_masked_out_features_cannot_affect_predictions(synth_flood):
    train, test = synth_flood
    mask = FeatureMask.from_names(["protocol_type", "wrong_fragment", "count"])
    tree = fit(project(train, mask), "entropy")
    baseline = predict_batch(tree, project(test, mask).features)

    rng = np.random.default_rng(7)
    perturbed_features = test.features.copy()
    masked_out = [i for i, g in enumerate(mask.genes) if not g]
    perturbed_features[:, masked_out] = rng.random((len(test), len(masked_out))) * 1e6
    perturbed = BinaryLabeledDataset(perturbed_features, test.targets)
    assert np.array_equal(
        predict_batch(tree, project(perturbed, mask).features), baseline
    )


# ------------------------------- level-synchronous fit vs the per-node reference


def assert_same_tree(data, criterion, extreme=False, dense_bounds=(None,)):
    """``fit`` gives the per-node reference's tree, array bytes and all, under
    each of ``dense_bounds`` on the dense histogram cells (None: the
    module's).

    With ``extreme``, the verbatim reference may overflow a midpoint and warn;
    ``fit`` itself must stay silent.
    """
    trees = []
    for dense in dense_bounds:
        with mock.patch.object(tree_module, "_DENSE_CELLS_PER_ROW",
                               tree_module._DENSE_CELLS_PER_ROW if dense is None else dense):
            trees.append(fit(data, criterion))
    with np.errstate(over="ignore") if extreme else contextlib.nullcontext():
        reference = pernode_fit(data, criterion)
    arrays = bfs_arrays(reference.root)
    for tree in trees:
        for name in TREE_ARRAYS:
            got, want = getattr(tree, name), arrays[name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert (tree.node_count, tree.depth) == (reference.node_count, reference.depth)
    return trees[0]


@pytest.mark.parametrize("k", [8, 20, 41])
@pytest.mark.parametrize("target", ["flood", "burst"])
def test_fit_matches_pernode_reference_on_synthetic_traffic(request, target, k):
    train, _ = request.getfixturevalue(f"synth_{target}")
    chosen = np.random.default_rng(k).choice(N_FEATURES, k, replace=False)
    mask = FeatureMask.from_indices(chosen.tolist())
    projected = project(train, mask)
    columns = list(mask.indices())
    for criterion in CRITERIA:
        tree = assert_same_tree(projected, criterion)
        # the mask's columns read in place, out of the sort of all 41
        in_place = fit(train, criterion, columns)
        assert_same_arrays(in_place, in_columns(tree, columns))
        assert (tree.feature_count, in_place.feature_count) == (k, 41)
        assert in_place.depth == tree.depth


tied_instances = st.tuples(
    st.integers(min_value=2, max_value=40),  # records
    st.integers(min_value=1, max_value=4),  # features
).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5]),
                          min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]),
    )
)


@settings(max_examples=200, deadline=None)
@given(instance=tied_instances, criterion=st.sampled_from(["entropy", "gini"]))
def test_fit_matches_pernode_reference_on_tied_matrices(instance, criterion):
    rows, y = instance
    # as set, then every histogram from a sort, then every one a dense table
    assert_same_tree(binary(rows, y), criterion, dense_bounds=(None, 0, np.inf))


# huge values whose midpoint overflows, subnormals, signed zeros, and adjacent
# floats whose midpoint rounds onto one of the two neighbours
one_up = float(np.nextafter(1.0, 2.0))
EXTREME_VALUES = [
    -1.7976931348623157e308, -1e308, 1e308, 1.5e308, 1.7976931348623157e308,
    5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, -0.0, 0.0,
    1.0, one_up, float(np.nextafter(one_up, 2.0)), float(np.nextafter(1.0, 0.0)),
]


@settings(max_examples=200, deadline=None)
@given(
    instance=st.integers(min_value=2, max_value=30).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.sampled_from(EXTREME_VALUES), min_size=2, max_size=2),
                     min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    ),
    criterion=st.sampled_from(["entropy", "gini"]),
)
def test_fit_matches_pernode_reference_on_extreme_adjacent_floats(instance, criterion):
    rows, y = instance
    assert_same_tree(binary(rows, y), criterion, extreme=True)


def test_fit_matches_pernode_reference_on_every_extreme_value():
    values = np.array(EXTREME_VALUES * 2)
    X = np.column_stack([values, values[::-1], -values])
    y = np.arange(values.size) % 3 == 0
    for criterion in CRITERIA:
        assert_same_tree(binary(X, y), criterion, extreme=True)


# the bound on dense histogram cells per row: 1 mixes both paths on the
# synthetic set, 64 and 4096 take nearly every histogram from a dense table
@pytest.mark.parametrize("block", [1, 64, 4096])
def test_fit_in_column_blocks_matches_pernode_reference(synth_burst, monkeypatch, block):
    train, _ = synth_burst
    monkeypatch.setattr(tree_module, "_DENSE_CELLS_PER_ROW", block)
    for criterion in CRITERIA:
        assert_same_tree(train, criterion)


@pytest.mark.parametrize("bound", [0, np.inf], ids=["sorted", "dense"])
@pytest.mark.parametrize("target", ["flood", "burst"])
def test_each_histogram_path_alone_matches_pernode_reference(request, monkeypatch, target, bound):
    train, _ = request.getfixturevalue(f"synth_{target}")
    monkeypatch.setattr(tree_module, "_DENSE_CELLS_PER_ROW", bound)
    for criterion in CRITERIA:
        assert_same_tree(train, criterion)


@st.composite
def histogram_cases(draw):
    """Cell keys of counted rows, positives first: (key, positives, cells)."""
    cells = draw(st.integers(1, 1000))
    key = draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=300))
    if draw(st.booleans()):
        key.append(cells - 1)  # the largest cell
    positives = draw(st.sampled_from([0, len(key)]) | st.integers(0, len(key)))
    return np.array(key, dtype=np.intp), positives, cells


@settings(max_examples=300)
@example(case=(np.array([0], dtype=np.intp), 1, 1))  # a single key, positive
@example(case=(np.array([3], dtype=np.intp), 0, 4))  # a single key in the largest cell
@example(case=(np.array([5, 0, 5, 2], dtype=np.intp), 0, 6))  # no positives
@example(case=(np.array([5, 0, 5, 2], dtype=np.intp), 4, 6))  # all positives
@given(case=histogram_cases())
def test_histogram_dense_and_sparse_paths_agree(case):
    key, positives, cells = case
    drawn = key.copy()
    dense = tree_module._histogram(key, positives, cells, True)
    sparse = tree_module._histogram(key, positives, cells, False)
    assert np.array_equal(key, drawn)
    assert [a.tolist() for a in dense] == [a.tolist() for a in sparse]
    present = sorted(set(key.tolist()))
    rows, pos = Counter(key.tolist()), Counter(key[:positives].tolist())
    assert sparse[0].tolist() == present
    assert sparse[1].tolist() == [rows[cell] for cell in present]
    assert sparse[2].tolist() == [pos[cell] for cell in present]


def test_signed_zeros_share_one_rank():
    # -0.0 and 0.0 are one value: no split between them, and rows of both
    # go left of a threshold next to zero
    x = np.array([-1.0, -0.0, 0.0, -0.0, 0.0, 2.0, -1.0, 0.0, 2.0, -0.0])
    y = np.array([True, False, True, True, False, True, False, False, True, True])
    X = np.column_stack([x, np.zeros_like(x), -x])
    for criterion in CRITERIA:
        tree = assert_same_tree(binary(X, y), criterion)
        assert set(tree.threshold[tree.feature >= 0]) <= {-0.5, 1.0}
    ranks, values = rank_columns(X)
    assert np.array_equal(values[0], [-1.0, 0.0, 2.0])
    assert np.array_equal(ranks[0] == 1, x == 0.0)


def test_constant_columns_alone_give_one_leaf(synth_burst):
    train, _ = synth_burst
    constant = [j for j in range(train.features.shape[1])
                if np.ptp(train.features[:, j]) == 0.0]
    assert len(constant) >= 2
    for criterion in CRITERIA:
        tree = fit(train, criterion, constant)
        assert tree.node_count == 1 and tree.depth == 0
        assert_same_tree(project(train, FeatureMask.from_indices(constant)), criterion)


def test_constant_columns_before_the_winning_column():
    rng = np.random.default_rng(5)
    signal = rng.integers(0, 8, 60).astype(float)
    y = (signal >= 4) ^ (rng.random(60) < 0.2)
    X = np.column_stack([np.full(60, 3.0), np.zeros(60), signal, np.full(60, -1.0),
                         rng.integers(0, 3, 60).astype(float)])
    for criterion in CRITERIA:
        tree = assert_same_tree(binary(X, y), criterion)
        assert tree.feature[0] in (2, 4)
        assert not np.isin(tree.feature, [0, 1, 3]).any()


def test_equal_size_siblings_match_pernode_reference():
    # the rows are a cube of binary columns, so every split halves its node
    bits = (np.arange(64)[:, None] >> np.arange(6)) & 1
    y = (bits[:, 0] ^ bits[:, 1] ^ (bits[:, 2] & bits[:, 3])).astype(bool)
    for criterion in CRITERIA:
        tree = assert_same_tree(binary(bits, y), criterion)
        inner = np.flatnonzero(tree.feature >= 0)
        sizes = tree.counts.sum(axis=1)
        assert np.array_equal(sizes[tree.left[inner]], sizes[tree.right[inner]])
        assert tree.depth >= 3


def test_closed_or_unsplittable_siblings_match_pernode_reference():
    # blocks of rows that the trees split apart: a pure smaller child beside
    # an open larger one, a pure larger child, and an open larger child of
    # identical rows, which has no candidate
    def block(x0, n, y, identical=False):
        rest = [np.zeros(n)] * 2 if identical else [np.arange(n) % 3, np.arange(n) % 2]
        return np.column_stack([np.full(n, x0), *rest]), np.asarray(y, bool)

    cases = [
        [block(0.0, 3, [1, 1, 1]), block(1.0, 12, np.arange(12) % 3 == 0)],
        [block(0.0, 12, [0] * 12), block(1.0, 4, [1, 0, 0, 1])],
        [block(0.0, 12, np.arange(12) % 2 == 0, identical=True),
         block(1.0, 5, [1, 0, 1, 1, 0])],
    ]
    for blocks in cases:
        X = np.concatenate([b[0] for b in blocks] + [b[0] for b in blocks[::-1]])
        y = np.concatenate([b[1] for b in blocks] + [b[1] for b in blocks[::-1]])
        for criterion in CRITERIA:
            assert_same_tree(binary(X, y), criterion)


# ------------------------------------------------- units of duplicate rows
#
# A fit over few distinct (ranks, label) combinations counts each once, as a
# unit weighted by its rows; every tree must stay the per-node reference's.

# patches that make every fit count units, and that make none do so
ALL_UNITS = {"_UNIT_SPAN_PER_ROW": 1 << 20, "_UNIT_MAX_SHARE": 1.0}
NO_UNITS = {"_UNIT_SPAN_PER_ROW": 0, "_UNIT_MAX_SHARE": 0.0}


def units_of(data, columns):
    """The root sample a fit of ``columns`` counts, under the module's rule."""
    table = SplitTable(data, "gini")
    varying = sorted({j for j in columns if table.slot[j] >= 0})
    return table, tree_module._units(table, varying)


def assert_same_tree_by_units(data, criterion, dense_bounds=(None,)):
    """Under each of ``dense_bounds``, fits that count every unit and fits
    that count every row both give the per-node reference's tree."""
    for patch in (ALL_UNITS, NO_UNITS):
        with mock.patch.multiple(tree_module, **patch):
            assert_same_tree(data, criterion, dense_bounds=dense_bounds)


@settings(max_examples=100, deadline=None)
@given(instance=tied_instances, criterion=st.sampled_from(["entropy", "gini"]),
       tiles=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_unit_growth_matches_pernode_reference_on_tiled_tied_matrices(
        instance, criterion, tiles, seed):
    rows, y = instance
    # each row repeated, in shuffled order, so units stand for several rows
    order = np.random.default_rng(seed).permutation(len(rows) * tiles)
    X, labels = np.tile(np.asarray(rows), (tiles, 1))[order], np.tile(y, tiles)[order]
    data = binary(X, labels)
    with mock.patch.multiple(tree_module, **ALL_UNITS):
        _, sample = units_of(data, range(X.shape[1]))
    if tiles > 1 and X.shape[1] and np.ptp(X, axis=0).any():
        assert sample.weight is not None and sample.rows.size <= X.shape[0] // tiles
    assert_same_tree_by_units(data, criterion, dense_bounds=(None, 0, np.inf))


# few-column masks of the synthetic set that the module's rule grows by units
FEW_COLUMN_MASKS = [[22], [23], [7, 11, 23], [1, 2, 3, 7, 11], [0, 6, 11, 8]]


@pytest.mark.parametrize("target", ["flood", "burst"])
def test_unit_growth_matches_pernode_reference_on_few_column_masks(request, target):
    train, _ = request.getfixturevalue(f"synth_{target}")
    for columns in FEW_COLUMN_MASKS:
        _, sample = units_of(train, columns)
        assert sample.weight is not None and sample.rows.size < 0.5 * len(train.targets)
        mask = FeatureMask.from_indices(columns)
        projected = project(train, mask)
        for criterion in CRITERIA:
            tree = assert_same_tree(projected, criterion, dense_bounds=(None, 0, np.inf))
            in_train = list(mask.indices())
            arrays = in_columns(tree, in_train)
            assert_same_arrays(fit(train, criterion, in_train), arrays)
            with mock.patch.multiple(tree_module, **NO_UNITS):
                assert_same_arrays(fit(train, criterion, in_train), arrays)


def test_units_stand_for_every_row_once(synth_burst):
    train, _ = synth_burst
    table, sample = units_of(train, [1, 2, 3, 7, 11])
    ranks = table.ranks[[1, 2, 3, 7, 11]]
    y = np.asarray(train.targets)
    # one unit per distinct (ranks, label), positive units first
    want = Counter(zip(map(tuple, ranks.T.tolist()), y.tolist()))
    got = Counter()
    for row, weight in zip(sample.rows.tolist(), sample.weight.tolist()):
        got[tuple(ranks[:, row].tolist()), bool(y[row])] += weight
    assert got == want and len(want) == sample.rows.size
    assert y[sample.rows[:sample.positives]].all() and not y[sample.rows[sample.positives:]].any()
    assert sample.weight.dtype == np.float64 and not sample.node.any()
    # each unit counted once per row it stands for: the positives too
    assert sample.weight[:sample.positives].sum() == table.positives


def test_unit_growth_through_one_split_table_with_partly_known_levels(synth_burst, monkeypatch):
    # masks that share columns, fitted in turn through one table without a
    # floor, so later fits count a column at some nodes of a level only
    train, _ = synth_burst
    column_sets = [[1, 7, 11], [1, 2, 7, 11], [2, 3, 11], [1, 2, 3, 7, 11], [3, 7], [1, 2, 3]]
    partial = []
    real_where = tree_module._Sample.where

    def where(self, keep):
        if sys._getframe(1).f_code.co_name == "counted":  # some nodes of a level
            partial.append((self.weight is not None, int(keep.sum()), keep.size))
        return real_where(self, keep)

    monkeypatch.setattr(tree_module._Sample, "where", where)
    for criterion in CRITERIA:
        partial.clear()
        assert_same_through_table(train, criterion, column_sets)
        # levels partly known, counted over a subset of the units
        assert any(weighted and 0 < kept < size for weighted, kept, size in partial)
        assert all(units_of(train, columns)[1].weight is not None for columns in column_sets)


def test_masks_whose_unit_key_would_overflow_int64_grow_by_rows(monkeypatch):
    # 24 columns of 8 distinct values each: a composite key spans 2 * 8**24
    # (about 9.4e21) cells, past int64; the same rows' first two columns
    # key 128 cells, so they grow by units
    rng = np.random.default_rng(9)
    X = rng.integers(0, 8, (96, 24)).astype(float)
    X = np.tile(X, (3, 1))
    X[:, :2] = np.arange(8)[rng.integers(0, 8, (X.shape[0], 2))]
    y = (X[:, 0] + rng.integers(0, 3, X.shape[0])) % 2 == 1
    data = binary(X, y)
    assert 2 * 8**24 > np.iinfo(np.int64).max
    keys = []
    real_units = tree_module._units
    monkeypatch.setattr(tree_module, "_units",
                        lambda table, columns: keys.append(len(columns)) or real_units(table, columns))
    # as set, every histogram from a sort, and every one a dense table
    for bound in (None, 0, np.inf):
        assert units_of(data, range(24))[1].weight is None
        assert units_of(data, [0, 1])[1].weight is not None
        for criterion in CRITERIA:
            keys.clear()
            with mock.patch.object(tree_module, "_DENSE_CELLS_PER_ROW",
                                   tree_module._DENSE_CELLS_PER_ROW if bound is None else bound):
                for columns in (list(range(24)), [0, 1]):
                    projected = binary(X[:, columns], y)
                    assert_same_tree(projected, criterion)
                    assert_same_arrays(fit(data, criterion, columns),
                                       in_columns(fit(projected, criterion), columns))
            assert 24 in keys and 2 in keys


def test_a_column_without_two_ranks_at_any_node_is_not_counted_again():
    # column 1 is whether column 0 is at least 5, so below a root split at
    # that cut it has one rank at every node; column 2 is noise
    rng = np.random.default_rng(11)
    signal = rng.integers(0, 10, 400).astype(float)
    X = np.column_stack([signal, signal >= 5, rng.integers(0, 4, 400)])
    y = (signal >= 5) ^ (rng.random(400) < 0.3)
    levels = []  # per level: its node count, then the cells of each histogram
    real_level, real_histogram = tree_module._level_splits, tree_module._histogram

    def level(table, columns, dead, sample, size, pos, path):
        levels.append([size.size])
        return real_level(table, columns, dead, sample, size, pos, path)

    def histogram(key, positives, cells, *rest):
        levels[-1].append(cells)
        return real_histogram(key, positives, cells, *rest)

    for criterion in CRITERIA:
        tree = assert_same_tree(binary(X, y), criterion)
        assert tree.depth >= 4 and tree.feature[0] == 0
        levels.clear()
        with mock.patch.multiple(tree_module, _level_splits=level, _histogram=histogram):
            fit(binary(X, y), criterion)
        # the ranks of each column counted at each level
        ranks = [[cells // m for cells in counted] for m, *counted in levels]
        assert ranks[:2] == [[10, 2, 4], [10, 2, 4]]
        assert all(2 not in counted for counted in ranks[2:]) and len(ranks) >= 4


@st.composite
def weighted_histogram_cases(draw):
    """Cell keys of counted units, positives first, and their weights."""
    key, positives, cells = draw(histogram_cases())
    weight = draw(st.lists(st.integers(1, 1000), min_size=key.size, max_size=key.size))
    return key, positives, cells, np.array(weight, dtype=np.float64)


@settings(max_examples=300)
@example(case=(np.array([0], dtype=np.intp), 1, 1, np.array([7.0])))
@example(case=(np.array([3, 3, 0], dtype=np.intp), 1, 4, np.array([2.0, 5.0, 1.0])))
@given(case=weighted_histogram_cases())
def test_weighted_histogram_counts_each_unit_by_its_weight(case):
    key, positives, cells, weight = case
    drawn, weights = key.copy(), weight.copy()
    dense = tree_module._histogram(key, positives, cells, True, weight)
    sparse = tree_module._histogram(key, positives, cells, False, weight)
    assert np.array_equal(key, drawn) and np.array_equal(weight, weights)
    assert [a.tolist() for a in dense] == [a.tolist() for a in sparse]
    rows, pos = Counter(), Counter()
    for i, (cell, w) in enumerate(zip(key.tolist(), weight.tolist())):
        rows[cell] += w
        pos[cell] += w if i < positives else 0
    present = sorted(rows)
    assert sparse[0].tolist() == present
    assert sparse[1].tolist() == [rows[cell] for cell in present]
    assert sparse[2].tolist() == [pos[cell] for cell in present]
    # weights of one count a unit as one row
    ones = tree_module._histogram(key, positives, cells, False, np.ones(key.size))
    plain = tree_module._histogram(key, positives, cells, False)
    assert [a.tolist() for a in ones] == [a.tolist() for a in plain]


# ----------------------------------------------------------- the split table


def assert_same_through_table(data, criterion, column_sets, extreme=False, min_share=0,
                              max_bytes=tree_module._TABLE_MAX_BYTES):
    """Fitting ``column_sets`` in order through one split table, with no
    node-size floor unless ``min_share`` sets one, gives for each the tree of
    a table-free ``fit`` and of the per-node reference, array bytes and all.
    Returns the table."""
    with mock.patch.multiple(tree_module, _TABLE_MIN_SHARE=min_share,
                             _TABLE_MAX_BYTES=max_bytes):
        table = SplitTable(data, criterion)
    X = np.asarray(data.features)
    for columns in column_sets:
        got, alone = fit(data, criterion, columns, table), fit(data, criterion, columns)
        projected = BinaryLabeledDataset(X[:, columns], data.targets)
        with np.errstate(over="ignore") if extreme else contextlib.nullcontext():
            reference = pernode_fit(projected, criterion)
        arrays = in_columns(bfs_arrays(reference.root), columns)
        assert_same_arrays(got, arrays)
        assert_same_arrays(alone, arrays)
        assert (got.node_count, got.depth, got.feature_count) == \
            (alone.node_count, alone.depth, alone.feature_count)
        assert (got.node_count, got.depth) == (reference.node_count, reference.depth)
    return table


@pytest.mark.parametrize("target", ["flood", "burst"])
def test_fits_through_one_split_table_match_table_free_fits(request, target):
    train, _ = request.getfixturevalue(f"synth_{target}")
    k = train.features.shape[1]
    constant = [j for j in range(k) if np.ptp(train.features[:, j]) == 0.0]
    rng = np.random.default_rng(3)
    column_sets = [sorted(rng.choice(k, rng.integers(1, k + 1), replace=False).tolist())
                   for _ in range(8)]
    # constant columns alone (a leaf), beside the strongest columns, and a
    # mask fitted twice, whose second fit reads every entry it needs
    column_sets += [constant, sorted(constant + [4, 7, 22]), column_sets[0]]
    for criterion in CRITERIA:
        order = [column_sets[i] for i in rng.permutation(len(column_sets))]
        table = assert_same_through_table(train, criterion, order)
        assert table.hits > 0 and table.paths > 1
        # a node-size floor keeps fewer paths
        floored = assert_same_through_table(train, criterion, order, min_share=0.05)
        assert 1 < floored.paths < table.paths
        # a floor of every row keeps only the root, so no level below it has
        # a kept node
        rooted = assert_same_through_table(train, criterion, order, min_share=1.0)
        assert rooted.paths == 1 and rooted.hits > 0
    # a table that is full after three paths scores the other nodes afresh
    cap = 3 * SplitTable(train, "gini").width * SplitTable.ENTRY.itemsize
    table = assert_same_through_table(train, "gini", column_sets[:4], max_bytes=cap)
    assert table.paths == 3 and table.hits > 0


@settings(max_examples=100, deadline=None)
@given(instance=tied_instances, criterion=st.sampled_from(["entropy", "gini"]),
       draw=st.randoms(use_true_random=False))
def test_split_table_matches_on_tied_matrices(instance, criterion, draw):
    rows, y = instance
    k = len(rows[0])
    column_sets = [sorted(draw.sample(range(k), draw.randint(1, k))) for _ in range(5)]
    assert_same_through_table(binary(rows, y), criterion, column_sets)


@settings(max_examples=100, deadline=None)
@given(
    instance=st.integers(min_value=2, max_value=30).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.sampled_from(EXTREME_VALUES), min_size=3, max_size=3),
                     min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    ),
    criterion=st.sampled_from(["entropy", "gini"]),
    draw=st.randoms(use_true_random=False),
)
def test_split_table_matches_on_extreme_adjacent_floats(instance, criterion, draw):
    rows, y = instance
    column_sets = [sorted(draw.sample(range(3), draw.randint(1, 3))) for _ in range(5)]
    assert_same_through_table(binary(rows, y), criterion, column_sets, extreme=True)


def test_split_table_serves_one_training_set_and_criterion(synth_flood, synth_burst):
    train, _ = synth_flood
    table = SplitTable(train, "entropy")
    fit(train, "entropy", [4, 7], table)
    for data, criterion in ((train, "gini"), (synth_burst[0], "entropy")):
        with pytest.raises(ValueError, match="split table serves only"):
            fit(data, criterion, [4, 7], table)


def test_split_table_marks_each_slot_a_fit_searched(synth_burst):
    train, _ = synth_burst
    table = SplitTable(train, "entropy")
    assert table.entries.dtype == SplitTable.ENTRY and SplitTable.ENTRY.itemsize == 28
    assert table.max_paths == tree_module._TABLE_MAX_BYTES // (table.width * 28)
    assert table.entries.shape == (1, table.width) and np.isnan(table.entries["gain"]).all()

    def searched(path):
        return set(np.flatnonzero(~np.isnan(table.entries["gain"][path])).tolist())

    # a slot for each varying column, none (-1) for a constant one
    varying = np.ptp(train.features, axis=0) > 0
    assert table.width == varying.sum() < varying.size
    assert sorted(table.slot[varying]) == list(range(table.width))
    assert (table.slot[~varying] == -1).all()
    masks = [0, 4, 7, 22, 30], list(range(1, 41, 3))
    # the slots of each mask's varying columns
    first, second = ({table.slot[j] for j in mask} - {-1} for mask in masks)
    fit(train, "entropy", masks[0], table)
    born = table.paths
    # each kept path is the root or a node of the fit, which counted each of
    # its varying columns there
    assert born > 1 and all(searched(path) == first for path in range(born))
    fit(train, "entropy", masks[1], table)
    assert table.paths > born and searched(0) == first | second
    assert all(searched(path) in (first, first | second) for path in range(1, born))
    assert all(searched(path) == second for path in range(born, table.paths))
    gain = table.entries["gain"]
    assert np.isnan(gain[table.paths:]).all()
    assert (gain[:table.paths] == -np.inf).any()  # searched, without a candidate


def test_predict_batch_agrees_with_predict_on_deep_trees(synth_burst):
    train, test = synth_burst
    tree = fit(train, "gini")
    assert tree.depth >= 5
    assert list(predict_batch(tree, test.features)) == [predict(tree, r) for r in test.features]


def test_predict_batch_reads_every_matrix_layout(synth_burst):
    train, test = synth_burst
    columns = list(range(0, N_FEATURES, 3))
    tree = fit(train, "gini", columns)
    X = test.features
    assert X.flags.f_contiguous and not X.flags.c_contiguous
    want = [predict(tree, r) for r in X]
    for matrix, expected in ((X, want), (np.ascontiguousarray(X), want),
                             (X[::-1], want[::-1]),  # neither layout
                             (np.repeat(X, 2, axis=1)[:, ::2], want)):
        assert list(predict_batch(tree, matrix)) == expected


# ------------------------------------------------------ the shared rank table


def test_relabels_and_masks_of_one_matrix_share_one_rank_table(synth_encoded, monkeypatch):
    train, test, _ = synth_encoded
    fresh = nslkdd.Dataset(train.features.copy(), train.labels)
    ranked = []
    real = nslkdd.rank_columns
    monkeypatch.setattr(nslkdd, "rank_columns", lambda m: ranked.append(id(m)) or real(m))
    for target in ("flood", "burst"):
        for names in (["count"], ["count", "src_bytes", "service"], ["duration"]):
            compute_fitness(FeatureMask.from_names(names),
                            relabel(fresh, {target}), relabel(test, {target}))
    # one ranking of the training matrix; the test matrix is never ranked
    assert ranked == [id(fresh.features)]
    table = weakref.ref(fresh.ranks.of(fresh.features)[0])
    # the table goes with its dataset
    del fresh
    gc.collect()
    assert table() is None


def test_ranks_reproduce_each_column_value_order(synth_flood):
    train, _ = synth_flood
    ranks, values = train.ranks.of(train.features)
    assert ranks.dtype == np.int32 and ranks.shape == train.features.T.shape
    for j, column in enumerate(train.features.T):
        assert (np.diff(values[j]) > 0).all()
        assert np.array_equal(values[j][ranks[j]], column)
        order = np.argsort(column, kind="stable")
        assert np.array_equal(np.argsort(ranks[j], kind="stable"), order)


_N = 12
_EDGE = 2.0**52


def _column(*values):
    """A column of _N rows: ``values``, then repeats of its first value."""
    return np.array([*values] + [values[0]] * (_N - len(values)), dtype=np.float64)


# column -> whether rank_columns counts it, or needs no count (else np.unique ranks it)
_RANK_CASES = {
    "constant zeros": (_column(0.0), True),
    "constant whole": (_column(7.0), True),
    "constant negative": (_column(-3.0), True),
    "constant rate": (_column(0.5), True),
    "constant extreme": (_column(-1.7e308), True),
    "negative zeros": (_column(-0.0), False),
    "signed zeros": (_column(0.0, -0.0, 0.0, -0.0), False),
    "negative zero among whole numbers": (_column(3.0, -0.0, 1.0, 2.0), False),
    "negative zero below zero": (_column(-2.0, 1.0, -0.0), False),
    "zero among negative numbers": (_column(-2.0, 1.0, 0.0), True),
    "upper edge": (_column(_EDGE, _EDGE - 3, _EDGE - 1), True),
    "lower edge": (_column(-_EDGE, -_EDGE + 5, -_EDGE + 1), True),
    "past upper edge": (_column(_EDGE + 2, _EDGE, _EDGE - 1), False),
    "past lower edge": (_column(-_EDGE - 2, -_EDGE), False),
    "extreme floats": (_column(1.7e308, -1.7e308, 0.0, 1.0), False),
    "largest floats": (_column(np.finfo(np.float64).max, np.finfo(np.float64).min), False),
    "smallest subnormal": (_column(0.0, 5e-324, 1.0), False),
    # 1e-300 - (-1) rounds to the whole 1.0
    "tiny beside a whole minimum": (_column(-1.0, 1e-300, 0.0), False),
    "range of n": (_column(0.0, _N, 3.0), True),
    "range past n": (_column(0.0, _N + 1, 3.0), False),
    "rates": (_column(0.25, 0.01, 1.0, 0.0), False),
}


def assert_same_ranks(matrix):
    ranks, values = rank_columns(matrix)
    want_ranks, want_values = oracles.unique_ranks(matrix)
    assert ranks.dtype == want_ranks.dtype and ranks.tobytes() == want_ranks.tobytes()
    assert len(values) == len(want_values)
    for got, want in zip(values, want_values):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", _RANK_CASES)
def test_counted_ranks_match_unique(case):
    column, counted = _RANK_CASES[case]
    assert (nslkdd._count_ranks(column, _N) is not None) == counted
    shuffled = np.random.default_rng(4).permutation(column)
    matrix = np.column_stack([column, shuffled, np.zeros(_N)])
    for layout in (np.asfortranarray(matrix), np.ascontiguousarray(matrix)):
        assert_same_ranks(layout)


def test_counted_ranks_match_unique_on_the_synthetic_sets(synth_encoded):
    train, test, _ = synth_encoded
    for matrix in (train.features, test.features):
        assert sum(nslkdd._count_ranks(matrix[:, j], len(matrix)) is not None
                   for j in range(matrix.shape[1])) >= 20
        assert_same_ranks(matrix)
        assert_same_ranks(np.ascontiguousarray(matrix[:1]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6) | st.sampled_from([-0.0, 0.5, 2.0**52, -(2.0**52)]),
                min_size=1, max_size=30))
def test_counted_ranks_match_unique_on_drawn_columns(values):
    column = np.array(values, dtype=np.float64)
    assert_same_ranks(np.column_stack([column, -column, column * 3]))


def test_worker_threads_share_one_rank_table(synth_encoded, monkeypatch):
    train, _, _ = synth_encoded
    # large enough that ranking outlasts the threads' start
    labels = nslkdd.Categories(train.labels.values, np.tile(train.labels.codes, 20))
    fresh = nslkdd.Dataset(np.tile(train.features, (20, 1)), labels)
    calls = []
    real = nslkdd.rank_columns
    monkeypatch.setattr(nslkdd, "rank_columns", lambda m: calls.append(id(m)) or real(m))
    masks = [FeatureMask.from_indices(range(j, j + 3)) for j in range(24)]
    burst = relabel(fresh, {"burst"})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fit, burst, "gini", list(mask.indices()))
                       for mask in masks]
            trees = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert calls == [id(fresh.features)]
    for mask, tree in zip(masks, trees):
        alone = fit(project(burst, mask), "gini")
        assert_same_arrays(tree, in_columns(alone, mask.indices()))
    assert len(calls) == 1 + len(masks)  # each projection has a rank table of its own


def test_fits_on_two_threads_keep_their_own_overflow_state():
    # fit ignores an overflowing midpoint under np.errstate; were numpy's error
    # state shared by threads, one fit's exit would restore the "raise" set
    # below while the other thread computes midpoints that overflow to inf
    values = np.array(EXTREME_VALUES * 2)
    data = binary(np.column_stack([values, values[::-1], -values]),
                  np.arange(values.size) % 3 == 0)
    serial = {criterion: fit(data, criterion) for criterion in CRITERIA}
    start = threading.Barrier(len(CRITERIA))

    def fit_often(criterion):
        start.wait(timeout=60)
        with np.errstate(over="raise"):
            return [fit(data, criterion) for _ in range(100)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(CRITERIA)) as pool:
            threaded = dict(zip(CRITERIA, pool.map(fit_often, CRITERIA)))
    finally:
        sys.setswitchinterval(interval)
    for criterion, trees in threaded.items():
        arrays = {name: getattr(serial[criterion], name) for name in TREE_ARRAYS}
        for tree in trees:
            assert_same_arrays(tree, arrays)


def test_table_searches_the_root_once(synth_encoded, monkeypatch):
    train, _, _ = synth_encoded
    flood = relabel(train, {"flood"})
    columns = list(FeatureMask.from_names(["count"]).indices())
    counted = []
    real = tree_module._histogram
    monkeypatch.setattr(tree_module, "_histogram", lambda *a: counted.append(1) or real(*a))
    for criterion in CRITERIA:
        counted.clear()
        table = SplitTable(flood, criterion)
        first = fit(flood, criterion, columns, table)
        assert first.node_count == 3 and len(counted) == 1  # one split, two pure leaves
        second = fit(flood, criterion, columns, table)
        assert len(counted) == 1 and table.hits == 1  # the root entry served it
        # a fresh relabel and a fresh table give the same tree
        fresh = relabel(nslkdd.Dataset(train.features.copy(), train.labels), {"flood"})
        alone = fit(fresh, criterion, columns)
        for tree in (first, second):
            for name in TREE_ARRAYS:
                assert getattr(tree, name).tobytes() == getattr(alone, name).tobytes(), name


def test_table_entries_serve_a_refit_at_every_level_with_a_kept_path(synth_burst, monkeypatch):
    train, _ = synth_burst
    columns = list(range(0, N_FEATURES, 2))
    levels = []  # per level: [whether a node has a kept path, indexed entry reads]

    class ReadSpy(np.ndarray):
        def __getitem__(self, key):
            levels[-1][1] += 1
            return np.asarray(super().__getitem__(key))

    class SpiedTable(SplitTable):
        @property
        def entries(self):
            return self._entries

        @entries.setter
        def entries(self, entries):
            self._entries = entries.view(ReadSpy)

    real_level = tree_module._level_splits

    def level(table, columns, dead, sample, size, pos, path):
        levels.append([bool((path >= 0).any()), 0])
        return real_level(table, columns, dead, sample, size, pos, path)

    monkeypatch.setattr(tree_module, "_level_splits", level)
    projected = project(train, FeatureMask.from_indices(columns))
    for criterion in CRITERIA:
        table = SpiedTable(train, criterion)
        levels.clear()
        first = fit(train, criterion, columns, table)
        assert first.depth >= 5 and sum(kept for kept, _ in levels[1:]) >= 3
        assert levels[0][0] and levels[0][1] > 0
        levels.clear()
        second = fit(train, criterion, columns, table)
        # the refit finds every kept path made, so each level with one reads
        assert [reads > 0 for _, reads in levels] == [kept for kept, _ in levels]
        alone = fit(train, criterion, columns)
        arrays = in_columns(bfs_arrays(pernode_fit(projected, criterion).root), columns)
        for tree in (first, second, alone):
            assert_same_arrays(tree, arrays)


def test_one_pass_scores_each_level(synth_burst, monkeypatch):
    # a level evaluates the impurity expressions once for its nodes and twice
    # for the candidates of all its columns together, however many columns
    train, _ = synth_burst
    columns = sorted(np.random.default_rng(20).choice(N_FEATURES, 20, replace=False).tolist())
    assert sum(np.ptp(train.features[:, j]) > 0 for j in columns) >= 5
    calls = []
    real = tree_module._impurity_arrays
    monkeypatch.setattr(tree_module, "_impurity_arrays", lambda *a: calls.append(1) or real(*a))
    for criterion in CRITERIA:
        calls.clear()
        tree = fit(train, criterion, columns)
        assert tree.depth >= 5
        assert len(calls) <= 3 * (tree.depth + 1)


def test_compute_fitness_projects_nothing(synth_flood, monkeypatch):
    # the test matrix is read in place, and predicts what its projection does
    train, test = synth_flood
    projected, calls = [], []
    real_project, real_predict = nslkdd.project, ga.predict_batch
    for module in (ga, nslkdd):
        monkeypatch.setattr(module, "project",
                            lambda *args: projected.append(args) or real_project(*args))

    def predict_spy(*args):
        calls.append((args, real_predict(*args)))
        return calls[-1][1]

    monkeypatch.setattr(ga, "predict_batch", predict_spy)
    for names in (["count"], ["duration", "service", "src_bytes", "count"]):
        mask = FeatureMask.from_names(names)
        compute_fitness(mask, train, test)
        (tree, features), predictions = calls[-1]
        assert features is test.features
        # the tree of the mask's projection, predicting on the test projection
        alone = fit(real_project(train, mask), "entropy")
        expected = real_predict(alone, real_project(test, mask).features)
        assert np.array_equal(predictions, expected)
    assert len(calls) == 2 and projected == []
