"""Attractor-tree classifier tests.

The margin dataset builder here is shared with the acceptance suite:
two classes of patterns drawn from per-feature bands [0, 0.3] and
[0.7, 1.0], a 0.4 margin apart.
"""

import json
import re

import numpy as np
import pytest

from matchdna import attractor_tree as at
from matchdna.attractor_tree import (
    FmacaTree,
    GaConfig,
    Internal,
    Leaf,
    basin_purity,
    build_tree,
    ca_feedback,
    classify,
    classify_batch,
    fit_window_classifier,
    fitness,
    group_basins,
    purity_ceiling,
    tree_to_dict,
)
from matchdna.diagnostics import DiagnosticsConfig, ga_diagnostics
from matchdna.fuzzy_ca import SUPPORTED_RULES, terminal_states

REFERENCE_RULES = [238, 254, 238, 252]


def make_margin_dataset(rng, n_per_class=100, n_cells=8):
    lo = rng.uniform(0.0, 0.3, size=(n_per_class, n_cells))
    hi = rng.uniform(0.7, 1.0, size=(n_per_class, n_cells))
    patterns = np.vstack([lo, hi])
    labels = np.array([1] * n_per_class + [2] * n_per_class)
    order = rng.permutation(len(patterns))
    return patterns[order], labels[order]


def make_motif_corpus(rng, n_per_class=60):
    """Letter windows: goal windows end in CCT, threat windows in CCC."""
    letters = np.array(list("ACGT"))
    windows, labels = [], []
    for _ in range(n_per_class):
        head = "".join(rng.choice(letters, size=2))
        windows.append(head + "CCT")
        labels.append("goal")
        windows.append(head + "CCC")
        labels.append("threat")
    return windows, labels


class TestBasinOf:
    """Which basin a pattern lands in, through terminal_states and the
    basin keys that fitness scores."""

    def test_reference_pattern_reaches_all_ones(self):
        terms, conv = terminal_states([[0.8, 0.2, 0.2, 0.0]], REFERENCE_RULES,
                                      max_steps=at.TERMINAL_MAX_STEPS)
        assert conv[0]
        np.testing.assert_allclose(terms[0], [1.0, 1.0, 1.0, 1.0], atol=1e-9)

    def test_identity_rules_keep_patterns_apart(self):
        patterns = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert fitness([204, 204], patterns, [1, 2]) == 1.0

    def test_constant_zero_rules_collapse_everything(self):
        patterns = np.array([[0.1, 0.9], [0.7, 0.3]])
        assert fitness([0, 0], patterns, [1, 2]) == 0.5


def make_contradictory_dataset():
    """Twelve 3-cell patterns on the 0.2 grid; the first two appear again
    under the other label, so no tree can classify every row."""
    rng = np.random.default_rng(2024)
    levels = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
    patterns = levels[rng.integers(0, 5, size=(10, 3))]
    labels = (patterns.sum(axis=1) > 1.0).astype(int) + 1
    return (np.vstack([patterns, patterns[:2]]),
            np.concatenate([labels, 3 - labels[:2]]))


class TestGaPinned:
    """GA outputs recorded before fitness was batched and memoized; the
    batch must not move the GA's trajectory."""

    def test_tree(self):
        patterns, labels = make_contradictory_dataset()
        tree = build_tree(patterns, labels, K=2,
                          ga=GaConfig(population_size=8, generations=5, rng_seed=3))
        assert tree_to_dict(tree)["root"] == {
            "kind": "internal", "rules": [15, 15, 3], "k": 2,
            "centroids": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.26666666666666666]],
            "children": {
                "0": {"kind": "internal", "rules": [1, 17, 238], "k": 2,
                      "centroids": [[0.0, 0.0, 0.30000000000000004],
                                    [0.0, 0.22857142857142856, 0.05714285714285715]],
                      "children": {
                          "0": {"kind": "leaf", "label": 1, "pure": True, "size": 2},
                          "1": {"kind": "internal", "rules": [250, 5, 15], "k": 1,
                                "centroids": [[0.0, 0.0, 1.0]],
                                "children": {"0": {"kind": "leaf", "label": 1,
                                                   "pure": False, "size": 7}}}}},
                "1": {"kind": "leaf", "label": 2, "pure": True, "size": 3}}}

    def test_generation_bests(self):
        patterns, labels = make_contradictory_dataset()
        bests = []
        rules = at._evolve_rules(patterns, labels,
                                 GaConfig(population_size=8, generations=6, rng_seed=3),
                                 np.random.default_rng(11),
                                 on_generation=lambda g, r, f: bests.append((g, r, f)))
        assert rules == [170, 1, 204]
        assert bests == [(0, [85, 204, 204], 0.75)] + \
            [(g, [170, 1, 204], 0.8333333333333334) for g in range(1, 6)]

    def test_ga_diagnostics_rows(self):
        # the pipeline's default diagnose settings at seed 0
        rows = ga_diagnostics(8, GaConfig(population_size=30, generations=12, rng_seed=3),
                              DiagnosticsConfig(window=10, run_steps=400, trials=5,
                                                rng_seed=3))
        assert rows == [{"generation": 0, "n": 8,
                         "mean_entropy": 0.5754128037676589,
                         "std_entropy": 5.1093920761817425e-05,
                         "mean_mi": 0.14388449474169213}]

    def test_fitness_of_rule_matrix_is_per_row_fitness(self):
        patterns, labels = make_contradictory_dataset()
        rng = np.random.default_rng(8)
        rules = rng.choice(sorted(SUPPORTED_RULES), size=(16, 3))
        rules[5] = rules[2]  # a repeated vector scores the same
        scores = fitness(rules, patterns, labels)
        assert isinstance(scores, np.ndarray) and scores.shape == (16,)
        assert scores.tolist() == [fitness(r, patterns, labels) for r in rules]
        assert isinstance(fitness(rules[0], patterns, labels), float)


class TestCeilingStop:
    """The GA stops once its best reaches the subset's purity ceiling,
    and the stop moves no output."""

    def test_stops_at_ceiling_with_the_pinned_answer(self):
        patterns, labels = make_contradictory_dataset()
        assert purity_ceiling(patterns, labels) == 10 / 12
        gens = []
        rules = at._evolve_rules(patterns, labels,
                                 GaConfig(population_size=8, generations=6, rng_seed=3),
                                 np.random.default_rng(11),
                                 on_generation=lambda g, r, f: gens.append(g),
                                 ceiling=purity_ceiling(patterns, labels))
        # test_generation_bests: the full run's answer, first found at gen 1
        assert rules == [170, 1, 204]
        assert gens == [0, 1]

    @staticmethod
    def fuzz_case(seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 4))
        m, n = int(rng.integers(4, 12)), int(rng.integers(2, 6))
        if seed % 2:
            patterns = rng.integers(0, 6, size=(m, n)) * 0.2  # the 0.2 grid
        else:
            patterns = rng.random((m, n))
        labels = rng.integers(1, K + 1, size=m)
        # some rows again, each under another label
        again = rng.choice(m, size=int(rng.integers(0, m // 2 + 1)), replace=False)
        shift = rng.integers(1, K, size=len(again))
        patterns = np.vstack([patterns, patterns[again]])
        labels = np.concatenate([labels, (labels[again] - 1 + shift) % K + 1])
        ga = GaConfig(population_size=int(rng.integers(4, 9)),
                      generations=int(rng.integers(2, 7)), rng_seed=seed)
        return patterns, labels, K, ga

    def test_tree_equals_every_generation_reference(self, monkeypatch):
        cases, stopped_early = 120, 0
        for seed in range(cases):
            patterns, labels, K, ga = self.fuzz_case(seed)
            ran = []
            tree = build_tree(patterns, labels, K=K, ga=ga,
                              on_generation=lambda *g: ran.append(g))
            with monkeypatch.context() as patch:
                # the reference never stops: every node runs every generation
                patch.setattr(at, "purity_ceiling", lambda p, y: float("inf"))
                full = []
                reference = build_tree(patterns, labels, K=K, ga=ga,
                                       on_generation=lambda *g: full.append(g))
            assert tree_to_dict(tree) == tree_to_dict(reference), seed
            assert len(full) % ga.generations == 0
            stopped_early += len(ran) < len(full)
        # the stop is exercised, not just harmless
        assert stopped_early >= cases // 2

    def test_ceiling_bounds_fitness(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            patterns, labels, _K, _ga = self.fuzz_case(seed)
            rules = rng.choice(sorted(SUPPORTED_RULES), size=(32, patterns.shape[1]))
            assert (fitness(rules, patterns, labels)
                    <= purity_ceiling(patterns, labels)).all()

    def test_distinct_rows_have_ceiling_one(self):
        rng = np.random.default_rng(6)
        patterns = rng.random((30, 4))
        assert purity_ceiling(patterns, rng.integers(1, 4, size=30)) == 1.0


class TestPurity:
    def test_hand_example(self):
        ids = ["x"] * 8 + ["y"] * 2
        labels = [1] * 7 + [2] * 3
        assert basin_purity(ids, labels) == pytest.approx(0.9)

    def test_single_pure_basin(self):
        assert basin_purity(["b"] * 5, [1] * 5) == 1.0

    def test_even_mix(self):
        assert basin_purity(["b"] * 4, [1, 1, 2, 2]) == 0.5

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        ids = list(rng.integers(0, 4, size=30))
        labels = list(rng.integers(1, 3, size=30))
        p = basin_purity(ids, labels)
        order = rng.permutation(30)
        assert basin_purity([ids[i] for i in order],
                            [labels[i] for i in order]) == pytest.approx(p)

    def test_labels_must_match_basins(self):
        with pytest.raises(ValueError, match="2 labels for 3 basin ids"):
            basin_purity(["x", "x", "y"], [1, 2])

    def test_fitness_labels_must_match_patterns(self):
        # zip used to cut the pairing short: this scored 0.333
        with pytest.raises(ValueError, match="2 labels for 3 patterns"):
            fitness([204] * 5, np.zeros((3, 5)), [1, 2])
        with pytest.raises(ValueError, match="4 labels for 3 patterns"):
            fitness(np.full((2, 5), 204), np.zeros((3, 5)), [1, 2, 1, 2])

    def test_monotone_under_majority_move(self):
        # pattern of class 2 sits in a class-1 basin; moving it to a basin
        # where class 2 is the majority cannot lower purity
        before = basin_purity(["x", "x", "x", "y", "y"], [1, 1, 2, 2, 2])
        after = basin_purity(["x", "x", "y", "y", "y"], [1, 1, 2, 2, 2])
        assert after >= before


class TestGroupBasins:
    def test_hand_split(self):
        labels, centroids = group_basins(np.array([[0, 0], [0, 0], [1, 1]]),
                                         k=2, seed=5)
        assert labels[0] == labels[1] != labels[2]
        assert len(centroids) == 2

    def test_k_one(self):
        labels, centroids = group_basins(np.random.default_rng(0).random((6, 3)),
                                         k=1, seed=0)
        assert set(labels) == {0} and len(centroids) == 1

    def test_k_reduced_to_distinct_count(self):
        labels, centroids = group_basins(np.ones((5, 2)), k=3, seed=1)
        assert len(centroids) == 1 and set(labels) == {0}

    def test_deterministic_under_seed(self):
        terms = np.random.default_rng(8).random((40, 4))
        a = group_basins(terms, 3, seed=11)
        b = group_basins(terms, 3, seed=11)
        assert np.array_equal(a[0], b[0]) and np.allclose(a[1], b[1])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            group_basins(np.zeros((0, 2)), 1, 0)
        with pytest.raises(ValueError):
            group_basins(np.zeros((3, 2)), 0, 0)


class TestBuildTree:
    def test_single_class_is_one_leaf(self):
        tree = build_tree(np.random.default_rng(0).random((10, 4)),
                          [1] * 10, ga=GaConfig(rng_seed=1))
        assert isinstance(tree.root, Leaf) and tree.root.label == 1

    def test_identical_patterns_conflicting_labels(self):
        patterns = np.tile([0.5, 0.5, 0.5], (4, 1))
        tree = build_tree(patterns, [1, 1, 1, 2], ga=GaConfig(rng_seed=2))
        assert isinstance(tree.root, Leaf)
        assert tree.root.label == 1 and not tree.root.pure

    def test_margin_dataset_trains_pure(self):
        rng = np.random.default_rng(42)
        patterns, labels = make_margin_dataset(rng)
        tree = build_tree(patterns, labels, ga=GaConfig(rng_seed=7))
        predicted = classify_batch(tree, patterns)
        assert (predicted == labels).mean() == 1.0

    def test_margin_dataset_generalizes(self):
        rng = np.random.default_rng(43)
        patterns, labels = make_margin_dataset(rng)
        tree = build_tree(patterns, labels, ga=GaConfig(rng_seed=7))
        held_p, held_y = make_margin_dataset(rng, n_per_class=50)
        acc = (classify_batch(tree, held_p) == held_y).mean()
        assert acc >= 0.9

    def test_depth_capped(self):
        rng = np.random.default_rng(44)
        patterns = rng.random((64, 4))
        labels = rng.integers(1, 4, size=64)  # noisy labels force recursion
        tree = build_tree(patterns, labels, ga=GaConfig(
            population_size=8, generations=3, rng_seed=3))
        assert tree.depth() - 1 <= at.MAX_DEPTH

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(45)
        patterns, labels = make_margin_dataset(rng, n_per_class=20)
        a = build_tree(patterns, labels, ga=GaConfig(rng_seed=9))
        b = build_tree(patterns, labels, ga=GaConfig(rng_seed=9))
        assert at.tree_to_dict(a) == at.tree_to_dict(b)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            build_tree(np.zeros((2, 2)), [1, 5], K=2)
        with pytest.raises(ValueError):
            build_tree(np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            build_tree(np.array([[0.5, 1.7]]), [1])

    def test_nan_feature_rejected(self):
        patterns = np.array([[0.5, np.nan], [0.2, 0.4]])
        with pytest.raises(ValueError, match=r"features must lie in \[0, 1\]"):
            build_tree(patterns, [1, 2])


class TestClassify:
    def test_single_leaf_classifies_everything(self):
        tree = FmacaTree(root=Leaf(2), n_cells=3)
        assert classify(tree, [0.1, 0.5, 0.9]) == 2

    def test_dimension_mismatch(self):
        tree = FmacaTree(root=Leaf(1), n_cells=3)
        with pytest.raises(ValueError):
            classify(tree, [0.1, 0.5])

    def test_batch_must_be_two_dimensional(self):
        tree = FmacaTree(root=Leaf(1), n_cells=3)
        with pytest.raises(ValueError, match="2-D pattern batch"):
            classify_batch(tree, np.array([0.1, 0.5, 0.9]))

    @pytest.mark.parametrize("bad", [2.0, np.nan, -0.5])
    def test_features_outside_unit_interval_rejected(self, bad):
        tree = FmacaTree(root=Leaf(1), n_cells=3)
        with pytest.raises(ValueError, match=r"features must lie in \[0, 1\]"):
            classify_batch(tree, np.array([[0.1, 0.5, 0.9], [0.1, bad, 0.9]]))

    def test_node_count(self):
        tree = FmacaTree(root=Leaf(1), n_cells=3)
        assert tree.node_count() == 1 and tree.depth() == 1
        inner = Internal(rules=[204] * 3, centroids=np.zeros((2, 3)), k=2,
                         children={0: Leaf(1), 1: Leaf(2)})
        root = Internal(rules=[204] * 3, centroids=np.zeros((2, 3)), k=2,
                        children={0: inner, 1: Leaf(2)})
        tree = FmacaTree(root=root, n_cells=3)
        assert tree.node_count() == 5 and tree.depth() == 3

    def test_training_points_route_to_their_labels(self):
        rng = np.random.default_rng(50)
        patterns, labels = make_margin_dataset(rng, n_per_class=30, n_cells=5)
        tree = build_tree(patterns, labels, ga=GaConfig(rng_seed=4))
        for i in range(0, len(patterns), 7):
            assert classify(tree, patterns[i]) == labels[i]


class TestGaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=1)
        with pytest.raises(ValueError):
            GaConfig(generations=0)


@pytest.fixture(scope="module")
def motif_tree():
    rng = np.random.default_rng(60)
    windows, labels = make_motif_corpus(rng)
    return fit_window_classifier(windows, labels, ga=GaConfig(rng_seed=13))


class TestFeedback:

    def test_goal_window_proceeds(self, motif_tree):
        decision = ca_feedback(motif_tree, "TCCCT")
        assert decision.proceed and not decision.flagged

    def test_threat_window_vetoes(self, motif_tree):
        decision = ca_feedback(motif_tree, "TCCCC")
        assert not decision.proceed

    def test_short_window_proceeds_flagged(self, motif_tree):
        decision = ca_feedback(motif_tree, "CT")
        assert decision.proceed and decision.flagged

    def test_long_window_uses_suffix(self, motif_tree):
        assert ca_feedback(motif_tree, "AAAATCCCT").proceed

    def test_untrained_single_leaf_always_proceeds(self):
        tree = FmacaTree(root=Leaf(1), n_cells=5, window=5, goal_class=1)
        assert ca_feedback(tree, "AAAAA").proceed

    def test_mixed_window_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_window_classifier(["ACT", "ACGT"], ["goal", "threat"])


class TestSerialization:

    @staticmethod
    def saved_tree(tmp_path, edit):
        """A hand-built 5-cell tree, saved, its JSON edited by `edit` and
        written back; the path."""
        child = Internal(rules=[204] * 5, centroids=np.zeros((2, 5)), k=2,
                         children={0: Leaf(1), 1: Leaf(2)})
        tree = FmacaTree(root=Internal(
            rules=[238, 254, 238, 252, 204], centroids=np.eye(2, 5), k=2,
            children={0: child, 1: Leaf(2)}), n_cells=5)
        doc = tree_to_dict(tree)
        edit(doc)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        return path

    def test_hand_built_tree_loads(self, tmp_path):
        path = self.saved_tree(tmp_path, lambda doc: None)
        assert tree_to_dict(at.load_tree(path)) == json.loads(path.read_text())

    @pytest.mark.parametrize("edit, message", [
        # a rule of 240.7 classified as 240, and a 2-wide centroid failed
        # at the first classify with a bare numpy broadcast error
        (lambda d: d["root"]["rules"].__setitem__(0, 240.7),
         "node root: rule number 240.7 is not an integer"),
        (lambda d: d["root"]["rules"].__setitem__(4, True),
         "node root: rule number True is not an integer"),
        (lambda d: d["root"]["rules"].__setitem__(1, 30),
         "node root: unsupported rule number 30"),
        (lambda d: d["root"]["rules"].pop(),
         "node root: rules must be a list of 5 rule numbers"),
        (lambda d: d["root"].__setitem__("rules", [[204]] * 5),
         "node root: rules must be a list of 5 rule numbers"),
        (lambda d: d["root"].__setitem__("centroids", [[0.0, 1.0]] * 2),
         "node root: centroids must be 2 rows of 5 numbers"),
        (lambda d: d["root"]["centroids"].append([0.0] * 5),
         "node root: centroids must be 2 rows of 5 numbers"),
        (lambda d: d["root"]["centroids"][1].__setitem__(3, "x"),
         "node root: centroids must be 2 rows of 5 numbers"),
        (lambda d: d["root"]["centroids"][1].__setitem__(3, False),
         "node root: centroids must be 2 rows of 5 numbers"),
        (lambda d: d["root"].__setitem__("k", 2.0),
         "node root: k must be a positive integer, got 2.0"),
        (lambda d: d["root"]["children"].__setitem__(
            "2", d["root"]["children"].pop("1")),
         "node root: child key '2' is not one of 0..1"),
        (lambda d: d["root"]["children"].__setitem__(
            "-1", d["root"]["children"].pop("1")),
         "node root: child key '-1' is not one of 0..1"),
        (lambda d: d["root"]["children"]["0"]["rules"].__setitem__(2, 204.5),
         "node root/0: rule number 204.5 is not an integer"),
        (lambda d: d.__setitem__("n_cells", "5"),
         "tree n_cells must be a positive integer, got '5'"),
        # a label of 1.5 or true classified as 1, and "goal" failed at the
        # first classify with a bare int() error
        (lambda d: d["root"]["children"]["1"].__setitem__("label", 1.5),
         "node root/1: a leaf needs an integer label and a bool pure, "
         "got 1.5 and True"),
        (lambda d: d["root"]["children"]["0"]["children"]["1"].__setitem__(
            "label", True),
         "node root/0/1: a leaf needs an integer label"),
        (lambda d: d["root"]["children"]["1"].__setitem__("label", "goal"),
         "node root/1: a leaf needs an integer label"),
        (lambda d: d["root"]["children"]["1"].__setitem__("pure", 1),
         "node root/1: a leaf needs an integer label and a bool pure, "
         "got 2 and 1")],
        ids=["rule-float", "rule-bool", "rule-unsupported", "rules-short",
             "rules-nested", "centroids-narrow", "centroids-extra-row",
             "centroid-string", "centroid-bool", "k-float", "child-key-k",
             "child-key-negative", "child-rule-float", "n_cells-string",
             "leaf-label-float", "leaf-label-bool", "leaf-label-string",
             "leaf-pure-int"])
    def test_bad_node_refused_naming_file(self, tmp_path, edit, message):
        path = self.saved_tree(tmp_path, edit)
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: .*{re.escape(message)}"):
            at.load_tree(path)

    @pytest.mark.parametrize("names, message", [
        # a key of "x" failed with a bare int() error, and a value was
        # never checked
        ({"1": "goal", "x": "threat"},
         "tree class_names key 'x' is not an integer"),
        ({"1.0": "goal"}, "tree class_names key '1.0' is not an integer"),
        ({"1": "goal", "2": 2}, "tree class_names['2'] must be a string, got 2"),
        ({"1": None}, "tree class_names['1'] must be a string, got None"),
        (["goal", "threat"], "tree class_names must be an object")],
        ids=["key-letter", "key-float", "value-int", "value-null", "list"])
    def test_bad_class_names_refused_naming_file_and_key(self, tmp_path,
                                                          names, message):
        path = self.saved_tree(
            tmp_path, lambda doc: doc.__setitem__("class_names", names))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: "
                                             f"{re.escape(message)}"):
            at.load_tree(path)

    @pytest.mark.parametrize("fields, message", [
        # "5" failed with a TypeError, and 3 or 0 with an error that did
        # not name the file
        ({"window": "5"}, "tree window must be null or n_cells 5, got '5'"),
        ({"window": 3}, "tree window must be null or n_cells 5, got 3"),
        ({"window": 0}, "tree window must be null or n_cells 5, got 0"),
        ({"window": 5.0}, "tree window must be null or n_cells 5, got 5.0"),
        ({"window": True}, "tree window must be null or n_cells 5, got True"),
        # a goal_class no leaf can carry vetoed every shot
        ({"goal_class": "1", "class_names": {"1": "goal"}},
         "tree goal_class must be null or a key of class_names [1], got '1'"),
        ({"goal_class": 7, "class_names": {"1": "goal", "2": "threat"}},
         "tree goal_class must be null or a key of class_names [1, 2], "
         "got 7"),
        ({"goal_class": True, "class_names": {"1": "goal"}},
         "tree goal_class must be null or a key of class_names [1], "
         "got True"),
        ({"goal_class": 1},
         "tree goal_class must be null or a key of class_names [], got 1")],
        ids=["window-string", "window-short", "window-zero", "window-float",
             "window-bool", "goal-string", "goal-unnamed", "goal-bool",
             "goal-no-names"])
    def test_bad_window_or_goal_class_refused_naming_file(self, tmp_path,
                                                          fields, message):
        path = self.saved_tree(tmp_path, lambda doc: doc.update(fields))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: "
                                             f"{re.escape(message)}"):
            at.load_tree(path)

    def test_class_names_load_with_integer_keys(self, tmp_path):
        path = self.saved_tree(tmp_path, lambda doc: doc.__setitem__(
            "class_names", {"1": "goal", "-2": "threat"}))
        assert at.load_tree(path).class_names == {1: "goal", -2: "threat"}

    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(70)
        patterns, labels = make_margin_dataset(rng, n_per_class=30, n_cells=4)
        tree = build_tree(patterns, labels, ga=GaConfig(rng_seed=5))
        path = tmp_path / "tree.json"
        at.save_tree(tree, path)
        loaded = at.load_tree(path)
        probe = rng.random((50, 4))
        assert np.array_equal(classify_batch(tree, probe),
                              classify_batch(loaded, probe))

    def test_window_metadata_survives(self, tmp_path):
        rng = np.random.default_rng(71)
        windows, labels = make_motif_corpus(rng, n_per_class=20)
        tree = fit_window_classifier(windows, labels, ga=GaConfig(rng_seed=6))
        path = tmp_path / "tree.json"
        at.save_tree(tree, path)
        loaded = at.load_tree(path)
        assert loaded.window == 5 and loaded.goal_class == tree.goal_class
        assert ca_feedback(loaded, "GTCCT").proceed
