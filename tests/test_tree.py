import contextlib
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gafs import ga, nslkdd, tree as tree_module
from gafs.ga import compute_fitness
from gafs.nslkdd import (
    BinaryLabeledDataset, FeatureMask, mask_columns, project, relabel, sorted_columns,
)
from gafs.tree import TreeConfig, best_split, fit, impurity, predict_batch

from oracles import bfs_arrays, brute_force_splits, pernode_fit, predict

TREE_ARRAYS = ("feature", "threshold", "impurity_decrease", "left", "right",
               "counts", "predicted")


def binary(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return BinaryLabeledDataset(X, np.asarray(y, bool), names, frozenset({"a"}))


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


# ---------------------------------------------------------------- best_split


def test_perfect_separator_gains_parent_impurity():
    split = best_split([[0.0], [1.0], [0.0], [1.0]], [False, True, False, True], "entropy")
    assert split.feature_index == 0
    assert split.threshold == pytest.approx(0.5)
    assert split.impurity_decrease == pytest.approx(1.0)


def test_identical_feature_vectors_give_no_split():
    X = np.ones((6, 3))
    y = [True, False, True, False, False, True]
    assert best_split(X, y, "entropy") is None
    assert best_split(X, y, "gini") is None


def test_pure_node_gives_no_split():
    X = np.arange(8.0).reshape(4, 2)
    assert best_split(X, [True] * 4, "gini") is None


def test_tie_breaks_prefer_lowest_feature_then_threshold():
    # both columns separate perfectly; feature 0 must win
    X = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
    y = [False, False, True, True]
    split = best_split(X, y, "gini")
    assert split.feature_index == 0
    # within one column, two equally good thresholds: the lower wins
    X2 = np.array([[0.0], [1.0], [2.0], [3.0]])
    y2 = [False, True, False, True]
    split2 = best_split(X2, y2, "entropy")
    assert split2.threshold == pytest.approx(0.5)


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
    chosen = best_split(X, y, criterion)
    oracle = brute_force_splits(X, y, criterion)
    pos = sum(y)
    if pos in (0, len(y)) or not oracle:
        assert chosen is None
        return
    best_decrease = max(d for _, _, d in oracle)
    assert chosen is not None
    assert chosen.impurity_decrease == pytest.approx(best_decrease, abs=1e-9)
    # the implementation's pick must be among the oracle's optimal splits
    # (1e-9 window absorbs float noise between the two computations)
    optimal = [(f, t) for f, t, d in oracle if d >= best_decrease - 1e-9]
    assert (chosen.feature_index, chosen.threshold) in [
        (f, pytest.approx(t)) for f, t in optimal
    ]
    if len(optimal) == 1:
        f, t = optimal[0]
        assert chosen.feature_index == f
        assert chosen.threshold == pytest.approx(t)


# ----------------------------------------------------------------------- fit


def test_constant_labels_give_single_leaf():
    data = binary([[1, 2], [3, 4], [5, 6]], [False, False, False])
    tree = fit(data, TreeConfig("entropy"))
    assert tree.node_count == 1
    assert tree.feature[0] == -1 and tree.left[0] == -1
    assert bool(tree.predicted[0]) is False


def test_xor_reaches_depth_two_and_fits_training_data():
    data = binary([[0, 0], [0, 1], [1, 0], [1, 1]], [False, True, True, False])
    for criterion in ("entropy", "gini"):
        tree = fit(data, TreeConfig(criterion))
        assert tree.depth == 2
        assert np.array_equal(predict_batch(tree, data.features), data.targets)


def test_fully_grown_tree_has_zero_training_error(tiny_task):
    tree = fit(tiny_task, TreeConfig("entropy"))
    assert np.array_equal(predict_batch(tree, tiny_task.features), tiny_task.targets)


def test_fit_rejects_empty_inputs():
    with pytest.raises(ValueError):
        fit(binary(np.empty((0, 2)), []), TreeConfig())
    with pytest.raises(ValueError):
        fit(binary(np.empty((3, 0)), [True, False, True]), TreeConfig())


def test_max_depth_bounds_growth(tiny_task):
    tree = fit(tiny_task, TreeConfig("gini", max_depth=2))
    assert tree.depth <= 2


def test_min_split_samples_stops_growth():
    data = binary([[0], [1], [2], [3]], [False, True, False, True])
    tree = fit(data, TreeConfig("entropy", min_split_samples=5))
    assert tree.node_count == 1


def test_leaf_tie_predicts_negative():
    data = binary([[1], [1]], [True, False])
    tree = fit(data, TreeConfig("entropy"))
    assert tree.feature[0] == -1 and tree.left[0] == -1
    assert bool(tree.predicted[0]) is False


def test_fit_is_deterministic(tiny_task):
    a = fit(tiny_task, TreeConfig("entropy"))
    b = fit(tiny_task, TreeConfig("entropy"))
    for name in TREE_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.node_count, a.depth) == (b.node_count, b.depth)


def test_internal_decreases_are_nonnegative(tiny_task):
    tree = fit(tiny_task, TreeConfig("gini"))
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
    tree = fit(data, TreeConfig("gini"))
    assert predict(tree, [0, 0]) is True
    assert predict(tree, [99, -5]) is True


def test_predict_rejects_length_mismatch(tiny_task):
    tree = fit(tiny_task, TreeConfig("entropy"))
    with pytest.raises(ValueError):
        predict(tree, [0.0] * (tree.feature_count + 1))
    with pytest.raises(ValueError):
        predict_batch(tree, np.zeros((3, tree.feature_count + 1)))


def test_predict_batch_agrees_with_predict(tiny_task):
    tree = fit(tiny_task, TreeConfig("entropy"))
    batch = predict_batch(tree, tiny_task.features)
    singles = [predict(tree, row) for row in tiny_task.features]
    assert list(batch) == singles


def test_masked_out_features_cannot_affect_predictions(synth_flood):
    train, test = synth_flood
    mask = FeatureMask.from_names(["protocol_type", "wrong_fragment", "count"])
    tree = fit(project(train, mask), TreeConfig("entropy"))
    baseline = predict_batch(tree, project(test, mask).features)

    rng = np.random.default_rng(7)
    perturbed_features = test.features.copy()
    masked_out = [i for i, g in enumerate(mask.genes) if not g]
    perturbed_features[:, masked_out] = rng.random((len(test), len(masked_out))) * 1e6
    perturbed = BinaryLabeledDataset(
        perturbed_features, test.targets, test.feature_names, test.target_spec
    )
    assert np.array_equal(
        predict_batch(tree, project(perturbed, mask).features), baseline
    )


# ------------------------------- level-synchronous fit vs the per-node reference


def assert_same_tree(data, config, extreme=False):
    """``fit`` gives the per-node reference's tree, array bytes and all.

    With ``extreme``, the verbatim reference may overflow a midpoint and warn;
    ``fit`` itself must stay silent.
    """
    tree = fit(data, config)
    with np.errstate(over="ignore") if extreme else contextlib.nullcontext():
        reference = pernode_fit(data, config)
    arrays = bfs_arrays(reference.root)
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), arrays[name]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (tree.node_count, tree.depth) == (reference.node_count, reference.depth)
    return tree


def config_variants():
    for criterion in ("entropy", "gini"):
        yield TreeConfig(criterion)
        yield TreeConfig(criterion, max_depth=3)
        yield TreeConfig(criterion, min_split_samples=7)


@pytest.mark.parametrize("k", [8, 20, 41])
@pytest.mark.parametrize("target", ["flood", "burst"])
def test_fit_matches_pernode_reference_on_synthetic_traffic(request, target, k):
    train, _ = request.getfixturevalue(f"synth_{target}")
    chosen = np.random.default_rng(k).choice(len(train.feature_names), k, replace=False)
    mask = FeatureMask.from_indices(chosen.tolist())
    projected = project(train, mask)
    for config in config_variants():
        tree = assert_same_tree(projected, config)
        # the mask's columns read in place, out of the sort of all 41
        in_place = fit(train, config, mask_columns(train, mask))
        for name in TREE_ARRAYS:
            assert getattr(in_place, name).tobytes() == getattr(tree, name).tobytes(), name
        assert in_place.feature_names == projected.feature_names
        assert (in_place.feature_count, in_place.depth) == (k, tree.depth)


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
@given(
    instance=tied_instances,
    criterion=st.sampled_from(["entropy", "gini"]),
    max_depth=st.none() | st.integers(min_value=1, max_value=4),
    min_split_samples=st.integers(min_value=2, max_value=6),
)
def test_fit_matches_pernode_reference_on_tied_matrices(
        instance, criterion, max_depth, min_split_samples):
    rows, y = instance
    config = TreeConfig(criterion, max_depth, min_split_samples)
    assert_same_tree(binary(rows, y), config)
    # one column per block: ties across blocks must still go to the lowest column
    with mock.patch.object(tree_module, "_BLOCK_ELEMENTS", 1):
        assert_same_tree(binary(rows, y), config)


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
    assert_same_tree(binary(rows, y), TreeConfig(criterion), extreme=True)


def test_fit_matches_pernode_reference_on_every_extreme_value():
    values = np.array(EXTREME_VALUES * 2)
    X = np.column_stack([values, values[::-1], -values])
    y = np.arange(values.size) % 3 == 0
    for config in config_variants():
        assert_same_tree(binary(X, y), config, extreme=True)


@pytest.mark.parametrize("block", [1, 64, 4096])
def test_fit_in_column_blocks_matches_pernode_reference(synth_burst, monkeypatch, block):
    train, _ = synth_burst
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", block)
    for config in config_variants():
        assert_same_tree(train, config)


def test_predict_batch_agrees_with_predict_on_deep_trees(synth_burst):
    train, test = synth_burst
    tree = fit(train, TreeConfig("gini"))
    assert tree.depth >= 5
    assert list(predict_batch(tree, test.features)) == [predict(tree, r) for r in test.features]


# ------------------------------------------------------ the shared column sort


def test_relabels_and_masks_of_one_matrix_share_one_sort(synth_encoded, monkeypatch):
    train, test, _ = synth_encoded
    fresh = nslkdd.Dataset(train.features.copy(), train.labels)
    sorted_matrices = []
    real = nslkdd.sorted_columns
    monkeypatch.setattr(
        nslkdd, "sorted_columns", lambda m: sorted_matrices.append(id(m)) or real(m))
    for target in ("flood", "burst"):
        for names in (["count"], ["count", "src_bytes", "service"], ["duration"]):
            compute_fitness(FeatureMask.from_names(names),
                            relabel(fresh, {target}), relabel(test, {target}))
    # one sort of the training matrix; the test matrix is never sorted
    assert sorted_matrices == [id(fresh.features)]
    cached = nslkdd._SORTED[id(fresh.features)]
    flood = relabel(fresh, {"flood"})
    count = mask_columns(flood, FeatureMask.from_names(["count"]))
    nslkdd._sorted_projection(flood.features, count)
    assert nslkdd._SORTED[id(fresh.features)] is cached
    # the cached sort goes with its matrix
    key = id(fresh.features)
    del cached, fresh, flood
    assert key not in nslkdd._SORTED


def test_projected_order_sorts_each_column(synth_flood):
    train, _ = synth_flood
    mask = FeatureMask.from_names(["duration", "service", "src_bytes", "count"])
    data = project(train, mask)
    rows, values = nslkdd._sorted_projection(train.features, mask_columns(train, mask))
    assert rows.dtype == np.int32 and rows.shape == data.features.T.shape
    for j in range(rows.shape[0]):
        assert np.array_equal(np.sort(rows[j]), np.arange(len(data)))
        assert np.array_equal(values[j], data.features[rows[j], j])
        assert (np.diff(data.features[rows[j], j]) >= 0).all()


def test_worker_threads_share_one_sort(synth_encoded, monkeypatch):
    train, _, _ = synth_encoded
    # large enough that the sort outlasts the threads' start
    fresh = nslkdd.Dataset(np.tile(train.features, (20, 1)), train.labels * 20)
    calls = []
    real = nslkdd.sorted_columns
    monkeypatch.setattr(nslkdd, "sorted_columns", lambda m: calls.append(id(m)) or real(m))
    masks = [FeatureMask.from_indices(range(j, j + 3)) for j in range(24)]
    burst = relabel(fresh, {"burst"})
    projected = [project(burst, mask) for mask in masks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(nslkdd._sorted_projection, burst.features,
                                   mask_columns(burst, mask)) for mask in masks]
            orders = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert calls == [id(fresh.features)]
    for data, (rows, _) in zip(projected, orders):
        assert np.array_equal(rows, sorted_columns(data.features)[0])


def test_compute_fitness_projects_only_the_test_set(synth_flood, monkeypatch):
    train, test = synth_flood
    seen = []
    real = ga.project
    monkeypatch.setattr(ga, "project", lambda data, mask: seen.append(data) or real(data, mask))
    for names in (["count"], ["duration", "service", "src_bytes", "count"]):
        compute_fitness(FeatureMask.from_names(names), train, test)
    assert len(seen) == 2 and all(data is test for data in seen)
