"""Tree-structured classifier over fuzzy CA attractor basins.

Each internal node carries a rule vector evolved by a small genetic
algorithm so that the training subset lands in class-pure attractor
basins.  Basins are grouped into as many clusters as the node has
classes (deterministic k-means over terminal states); pure clusters
become leaves and impure ones recurse on their members.  Classification
routes a pattern by evolving it to its terminal under each node's rules
and following the nearest cluster centroid.

The feedback query maps a play-letter window onto fuzzy cells
(A .2, C .4, G .6, T .8, '-' 0) and answers proceed/veto from the
predicted class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fuzzy_ca import SUPPORTED_RULES, check_unit_interval, terminal_states
from .mining import GOAL, THREAT
from .sequences import IDLE

TREE_SCHEMA_VERSION = 1

BASIN_QUANTUM = 1e-6
TERMINAL_MAX_STEPS = 80

MAX_DEPTH = 8
MIN_NODE_SIZE = 2

# GA operators
MUTATION_RATE = 0.05
CROSSOVER_RATE = 0.8
TOURNAMENT_SIZE = 3

# feedback feature map, one cell per window letter
SYMBOL_LEVELS = {"A": 0.2, "C": 0.4, "G": 0.6, "T": 0.8, IDLE: 0.0}
FEATURE_MAP_VERSION = "letters-v1"

_RULE_POOL = np.array(sorted(SUPPORTED_RULES))


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    generations: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


@dataclass
class Leaf:
    label: int
    pure: bool = True
    size: int = 0


@dataclass
class Internal:
    rules: list
    centroids: np.ndarray
    children: dict = field(default_factory=dict)  # cluster index -> node
    k: int = 0


@dataclass
class FmacaTree:
    root: object
    n_cells: int
    window: int | None = None
    goal_class: int | None = None
    class_names: dict = field(default_factory=dict)

    def depth(self):
        def walk(node):
            if isinstance(node, Leaf):
                return 1
            return 1 + max(walk(c) for c in node.children.values())
        return walk(self.root)

    def node_count(self):
        def walk(node):
            if isinstance(node, Leaf):
                return 1
            return 1 + sum(walk(c) for c in node.children.values())
        return walk(self.root)


@dataclass(frozen=True)
class FeedbackDecision:
    proceed: bool
    flagged: bool = False
    label: int | None = None


def _basin_ids(terminals, converged):
    """Basin key per row: ('ok'|'overflow', terminal on the BASIN_QUANTUM
    grid).  Overflow marks trajectories that neither fixed nor revealed a
    short cycle within the step budget; they keep their last state."""
    q = np.round(terminals / BASIN_QUANTUM).astype(np.int64)
    return [("ok" if ok else "overflow", tuple(row))
            for ok, row in zip(converged.tolist(), q.tolist())]


def basin_purity(basin_ids, labels) -> float:
    """Weighted purity: sum over basins of the majority-class count,
    divided by the number of patterns."""
    if len(basin_ids) == 0:
        raise ValueError("empty subset")
    if len(labels) != len(basin_ids):
        raise ValueError(f"{len(labels)} labels for {len(basin_ids)} basin ids")
    groups = {}
    for bid, label in zip(basin_ids, labels):
        groups.setdefault(bid, []).append(label)
    total = 0
    for members in groups.values():
        counts = {}
        for label in members:
            counts[label] = counts.get(label, 0) + 1
        total += max(counts.values())
    return total / len(basin_ids)


def purity_ceiling(patterns, labels) -> float:
    """The highest basin purity any rule vector can reach on a subset.

    Identical rows step identically, so they always share a basin; the
    purity with every distinct row in a basin of its own is therefore an
    upper bound on `fitness`, reached when no two distinct rows merge
    into a mixed basin.
    """
    return basin_purity([tuple(row) for row in np.asarray(patterns).tolist()],
                        labels)


def fitness(rules, patterns, labels):
    """Purity of the attractor-basin distribution induced by a rule vector.

    A (P, n) rule matrix scores P rule vectors on the same subset in one
    terminal_states call and returns an array of P purities; a single
    rule vector (n,) is its one-row case and returns a float.
    """
    patterns = np.asarray(patterns, dtype=float)
    if patterns.ndim != 2:
        raise ValueError("fitness expects a 2-D pattern batch")
    if len(labels) != len(patterns):
        raise ValueError(f"{len(labels)} labels for {len(patterns)} patterns")
    rule_rows = np.atleast_2d(rules)
    m = len(patterns)
    terms, conv = terminal_states(np.tile(patterns, (len(rule_rows), 1)),
                                  np.repeat(rule_rows, m, axis=0),
                                  max_steps=TERMINAL_MAX_STEPS)
    ids = _basin_ids(terms, conv)
    purities = [basin_purity(ids[i * m:(i + 1) * m], labels)
                for i in range(len(rule_rows))]
    return np.array(purities) if np.ndim(rules) == 2 else purities[0]


def _nearest(terms, centroids) -> np.ndarray:
    """Index of the Euclidean-nearest centroid for every terminal row; the
    one assignment rule for training-time clustering and routing."""
    dists = np.linalg.norm(terms[:, None, :] - centroids[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def group_basins(terminals, k: int, seed=0):
    """Deterministic k-means over terminal vectors.

    Initial centroids are k distinct terminal values chosen by the seeded
    RNG; k silently drops to the number of distinct values when smaller.
    Returns (assignment, centroids).
    """
    terminals = np.asarray(terminals, dtype=float)
    if terminals.ndim != 2 or len(terminals) == 0:
        raise ValueError("terminals must be a non-empty 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = np.unique(terminals, axis=0)
    k = min(k, len(distinct))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(distinct), size=k, replace=False)
    centroids = distinct[np.sort(picks)]
    assignment = np.zeros(len(terminals), dtype=np.int64)
    for _ in range(100):
        new_assignment = _nearest(terminals, centroids)
        new_centroids = centroids.copy()
        for c in range(k):
            members = terminals[new_assignment == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        if np.array_equal(new_assignment, assignment) and \
                np.allclose(new_centroids, centroids):
            break
        assignment, centroids = new_assignment, new_centroids
    # re-derive the assignment from the returned centroids so that routing
    # a member later reproduces its training-time cluster exactly
    return _nearest(terminals, centroids), centroids


def _evolve_rules(patterns, labels, ga: GaConfig, rng, on_generation=None,
                  ceiling: float = 1.0) -> list:
    """GA search for a rule vector maximizing basin purity on the subset.

    Each generation scores the rule vectors it has not seen yet in one
    fitness call; the subset is fixed, so earlier scores are reused.

    The search stops after the generation whose best fitness reaches
    `ceiling`.  Given the subset's `purity_ceiling`, no later generation
    can score higher, so the returned rule vector is the one a run of
    every generation returns.
    """
    n = patterns.shape[1]
    pop = rng.choice(_RULE_POOL, size=(ga.population_size, n))
    best_rules, best_fit = None, -1.0
    scores = {}  # rule vector -> purity on this subset
    for gen in range(ga.generations):
        keys = [tuple(row) for row in pop.tolist()]
        unseen = list(dict.fromkeys(k for k in keys if k not in scores))
        if unseen:
            scores.update(zip(unseen, fitness(np.array(unseen), patterns, labels)))
        fits = np.array([scores[k] for k in keys])
        top = int(np.argmax(fits))
        if fits[top] > best_fit:
            best_fit, best_rules = float(fits[top]), pop[top].copy()
        if on_generation is not None:
            on_generation(gen, [int(r) for r in best_rules], best_fit)
        if best_fit >= ceiling:
            break
        nxt = [pop[top].copy()]  # elitism
        while len(nxt) < ga.population_size:
            a = _tournament(pop, fits, rng)
            b = _tournament(pop, fits, rng)
            child = a.copy()
            if n > 1 and rng.random() < CROSSOVER_RATE:
                point = int(rng.integers(1, n))
                child[point:] = b[point:]
            mutate = rng.random(n) < MUTATION_RATE
            if mutate.any():
                child[mutate] = rng.choice(_RULE_POOL, size=int(mutate.sum()))
            nxt.append(child)
        pop = np.array(nxt)
    return [int(r) for r in best_rules]


def _tournament(pop, fits, rng):
    idx = rng.integers(0, len(pop), size=TOURNAMENT_SIZE)
    return pop[idx[np.argmax(fits[idx])]]


def _majority(labels) -> int:
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return int(min(sorted(counts), key=lambda c: -counts[c]))


def build_tree(patterns, labels, K: int | None = None,
               ga: GaConfig = GaConfig(), on_generation=None) -> FmacaTree:
    """Recursive attractor-basin partitioning of a labeled pattern set.

    Each internal node's GA stops once its best rule vector reaches the
    node subset's `purity_ceiling`.  That vector can no longer be beaten,
    and the node's GA generator is not drawn from afterwards, so the tree
    is the one running every generation would build.  `on_generation`,
    if given, is called for every GA generation run, node after node.
    """
    patterns = np.asarray(patterns, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if patterns.ndim != 2 or len(patterns) == 0:
        raise ValueError("training set must be a non-empty 2-D array")
    if len(patterns) != len(labels):
        raise ValueError("patterns and labels must align")
    check_unit_interval(patterns, "features")
    if K is None:
        K = int(labels.max())
    if np.any(labels < 1) or np.any(labels > K):
        raise ValueError(f"labels must lie in 1..{K}")

    seed_root = np.random.SeedSequence(ga.rng_seed)

    def partition(idx, depth, seed_seq):
        subset_labels = labels[idx]
        present = np.unique(subset_labels)
        if len(present) == 1:
            return Leaf(int(present[0]), pure=True, size=len(idx))
        if depth >= MAX_DEPTH or len(idx) < MIN_NODE_SIZE or \
                len(np.unique(patterns[idx], axis=0)) == 1:
            return Leaf(_majority(subset_labels), pure=False, size=len(idx))
        ga_seed, km_seed, child_seed = seed_seq.spawn(3)
        rng = np.random.default_rng(ga_seed)
        ceiling = purity_ceiling(patterns[idx], subset_labels)
        rules = _evolve_rules(patterns[idx], subset_labels, ga, rng,
                              on_generation=on_generation, ceiling=ceiling)
        terms, _conv = terminal_states(patterns[idx], rules,
                                       max_steps=TERMINAL_MAX_STEPS)
        assignment, centroids = group_basins(terms, len(present), km_seed)
        node = Internal(rules=rules, centroids=centroids, k=len(centroids))
        child_seqs = child_seed.spawn(len(centroids))
        made_progress = len(np.unique(assignment)) > 1
        for c in range(len(centroids)):
            members = idx[assignment == c]
            if len(members) == 0:
                continue
            if not made_progress:
                node.children[c] = Leaf(_majority(labels[members]),
                                        pure=False, size=len(members))
            else:
                node.children[c] = partition(members, depth + 1, child_seqs[c])
        return node

    root = partition(np.arange(len(patterns)), 0, seed_root)
    return FmacaTree(root=root, n_cells=patterns.shape[1])


def classify(tree: FmacaTree, pattern) -> int:
    return int(classify_batch(tree, np.atleast_2d(np.asarray(pattern, float)))[0])


def classify_batch(tree: FmacaTree, patterns) -> np.ndarray:
    """Vectorized routing: whole batches descend the tree level by level."""
    patterns = np.asarray(patterns, dtype=float)
    if patterns.ndim != 2:
        raise ValueError(f"classify_batch expects a 2-D pattern batch, got "
                         f"shape {patterns.shape}")
    if patterns.shape[1] != tree.n_cells:
        raise ValueError(f"pattern has {patterns.shape[1]} cells, "
                         f"tree expects {tree.n_cells}")
    check_unit_interval(patterns, "features")
    out = np.zeros(len(patterns), dtype=np.int64)

    def route(node, idx):
        if not len(idx):
            return
        if isinstance(node, Leaf):
            out[idx] = node.label
            return
        terms, _conv = terminal_states(patterns[idx], node.rules,
                                       max_steps=TERMINAL_MAX_STEPS)
        assignment = _nearest(terms, node.centroids)
        fallback = _nearest_leaf_label(node)
        for c in range(len(node.centroids)):
            members = idx[assignment == c]
            child = node.children.get(c)
            if child is None:
                out[members] = fallback  # empty basin at training time
            else:
                route(child, members)

    route(tree.root, np.arange(len(patterns)))
    return out


def _nearest_leaf_label(node) -> int:
    while isinstance(node, Internal):
        node = max(node.children.values(),
                   key=lambda ch: getattr(ch, "size", 0) if isinstance(ch, Leaf) else -1)
    return node.label


# ----- play-window feedback ---------------------------------------------------

def encode_window(window: str) -> np.ndarray:
    try:
        return np.array([SYMBOL_LEVELS[ch] for ch in window])
    except KeyError as err:
        raise ValueError(f"symbol {err.args[0]!r} outside play alphabet") from None


def fit_window_classifier(windows, labels, ga: GaConfig = GaConfig(),
                          on_generation=None) -> FmacaTree:
    """Train a tree on letter windows labeled "goal" (class 1) or
    "threat" (class 2); `on_generation` is build_tree's GA hook."""
    if not windows:
        raise ValueError("no training windows")
    width = len(windows[0])
    if any(len(w) != width for w in windows):
        raise ValueError("all training windows must share one length")
    name_to_id = {GOAL: 1, THREAT: 2}
    patterns = np.array([encode_window(w) for w in windows])
    y = np.array([name_to_id[label] for label in labels])
    tree = build_tree(patterns, y, K=len(name_to_id), ga=ga,
                      on_generation=on_generation)
    tree.window = width
    tree.class_names = {v: k for k, v in name_to_id.items()}
    tree.goal_class = name_to_id[GOAL]
    return tree


def ca_feedback(tree: FmacaTree, window: str) -> FeedbackDecision:
    """Shot gate: proceed when the window's last tree.window letters
    classify as the goal class.

    A window shorter than the trained width carries no evidence, so the
    decision is proceed, flagged.
    """
    if tree.window is None:
        raise ValueError("tree was not trained on letter windows")
    if len(window) < tree.window:
        return FeedbackDecision(proceed=True, flagged=True)
    window = window[-tree.window:]
    label = classify(tree, encode_window(window))
    if tree.goal_class is None:
        return FeedbackDecision(proceed=True, flagged=True, label=label)
    return FeedbackDecision(proceed=(label == tree.goal_class), label=label)


# ----- serialization ----------------------------------------------------------

def _node_to_dict(node):
    if isinstance(node, Leaf):
        return {"kind": "leaf", "label": int(node.label),
                "pure": bool(node.pure), "size": int(node.size)}
    return {"kind": "internal", "rules": [int(r) for r in node.rules],
            "k": int(node.k),
            "centroids": [list(map(float, c)) for c in node.centroids],
            "children": {str(int(c)): _node_to_dict(ch)
                         for c, ch in sorted(node.children.items())}}


def _node_from_dict(d):
    if d["kind"] == "leaf":
        return Leaf(d["label"], d["pure"], d.get("size", 0))
    node = Internal(rules=list(d["rules"]),
                    centroids=np.array(d["centroids"], dtype=float),
                    k=d["k"])
    node.children = {int(c): _node_from_dict(ch)
                     for c, ch in d["children"].items()}
    return node


def tree_to_dict(tree: FmacaTree) -> dict:
    return {"schema_version": TREE_SCHEMA_VERSION,
            "feature_map": FEATURE_MAP_VERSION,
            "n_cells": tree.n_cells,
            "window": tree.window,
            "goal_class": tree.goal_class,
            "class_names": {str(k): v for k, v in tree.class_names.items()},
            "root": _node_to_dict(tree.root)}


def tree_from_dict(d: dict) -> FmacaTree:
    if d.get("schema_version") != TREE_SCHEMA_VERSION:
        raise ValueError("unsupported tree schema_version")
    return FmacaTree(root=_node_from_dict(d["root"]),
                     n_cells=d["n_cells"],
                     window=d.get("window"),
                     goal_class=d.get("goal_class"),
                     class_names={int(k): v
                                  for k, v in d.get("class_names", {}).items()})


def save_tree(tree: FmacaTree, path):
    with open(path, "w") as fh:
        json.dump(tree_to_dict(tree), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_tree(path) -> FmacaTree:
    with open(path) as fh:
        return tree_from_dict(json.load(fh))
