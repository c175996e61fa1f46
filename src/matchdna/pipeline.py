"""File-based pipeline: simulate matches, encode sequences, mine patterns,
train classifiers, and emit dynamics diagnostics.

Stages communicate only through artifact files under one output
directory, so any stage can be rerun or inspected in isolation.  The
manifest lists the corpus's match ids; each match's log, sequence and
annotation files sit at fixed paths derived from its id (match_paths).
Every artifact carries a schema_version and every random draw flows from
a seed recorded in the resolved run config; the manifest's creation
timestamp is the single nondeterministic field.  simulate and encode run
their matches on forked workers, one per usable CPU (_worker_count says
where they do not); each match's files are written by the one process
that runs it, so no artifact depends on the worker count.

Each stage setting's default and integer range live in one place, the
SETTINGS table; DEFAULT_CONFIG is built from it, and run_stage and
pipeline_run refuse any setting outside its range before anything is
written.
"""

from __future__ import annotations

import copy
import logging
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import mining, sequences
from .attractor_tree import (
    GaConfig,
    classify_batch,
    encode_window,
    fit_window_classifier,
    purity_ceiling,
    save_tree,
)
from .classifier_system import (
    LcsConfig,
    LearningCurve,
    MinerStats,
    Population,
    SequenceReplayEnvironment,
    curve_to_csv,
    population_to_csv,
    train,
)
from .diagnostics import DiagnosticsConfig, diagnostics_to_csv, ga_diagnostics
from .jsonfile import read_json, write_json
from .mining import DEFAULT_MOTIFS, GOAL, THREAT, AnnotatedSequence, PatternQuery
from .sequences import ACTIONS, IDLE, encode_game, encode_player
from .shooting import LETTER_HISTORY, ShootingPolicy
from .simulator import (
    AWAY,
    FIELD_LENGTH,
    HOME,
    MAX_PLAYERS_PER_TEAM,
    FieldConfig,
    load_match_log,
    run_match,
    save_match_log,
)

log = logging.getLogger(__name__)

CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 2
REPORT_SCHEMA_VERSION = 1

STAGES = ("simulate", "encode", "mine", "train-fmaca", "train-lcs", "diagnose")

# attacking kicks inside this distance of the goal line flag a threat window
THREAT_DISTANCE = 30.0

# section -> key -> (default, lowest, highest or None) of every stage
# setting, an integer refused by name outside its range; resolve_config
# turns a seed of None into an offset of the top-level seed.
SETTINGS = {
    "simulate": {
        "matches": (100, 1, None),
        "cycles": (1000, 1, None),
        "players_per_team": (2, 1, MAX_PLAYERS_PER_TEAM),
        "master_seed": (None, 0, None),
    },
    "encode": {
        "window_cycles": (10, 1, None),
    },
    "mine": {
        "top_patterns": (25, 0, None),
        # a motif's rate looks back over its whole template
        "lookback": (5, max(len(m.template) for m in DEFAULT_MOTIFS), None),
    },
    "train_fmaca": {
        # the shooting policy keeps only LETTER_HISTORY letters, so a
        # wider tree could never judge a shot
        "window": (5, 1, LETTER_HISTORY),
        "population_size": (50, 2, None),
        "generations": (40, 1, None),
        "seed": (None, 0, None),
    },
    "train_lcs": {
        "iters": (20000, 1, None),
        "ga_period": (4000, 1, None),
        "seed": (None, 0, None),
    },
    "diagnose": {
        "population_size": (30, 2, None),
        "generations": (12, 1, None),
        "run_steps": (400, DiagnosticsConfig.window, None),
        "trials": (5, 1, None),
        "seed": (None, 0, None),
    },
}

DEFAULT_CONFIG = {
    "schema_version": CONFIG_SCHEMA_VERSION, "seed": 0, "out_dir": "runs/out",
    **{section: {key: default for key, (default, _low, _high) in keys.items()}
       for section, keys in SETTINGS.items()}}

# no run varies these: the mined pattern lengths and the diagnosed width
PATTERN_QUERY = PatternQuery(2, 5)
DIAGNOSE_CELLS = 8


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ----- run config ---------------------------------------------------------

def _integer(name: str, value) -> int:
    """`value`, refused by name unless it is an int; a bool is not one,
    and nothing is rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_settings(config: dict) -> None:
    """Refuse by name any stage setting of `config` that is not an int
    inside its SETTINGS range."""
    for section, keys in SETTINGS.items():
        for key, (_default, low, high) in keys.items():
            name = f"{section}.{key}"
            value = _integer(name, config[section][key])
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            if high is not None and value > high:
                raise ValueError(f"{name} must be <= {high}, got {value}")


def _check_keys(given: dict, allowed: dict, path: str):
    for key in given:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ValueError(f"unknown config key {where!r}")


def resolve_config(file_config: dict | None = None,
                   overrides: dict | None = None) -> dict:
    """Defaults <- config file <- flag overrides, with every seed made
    explicit and unknown keys rejected."""
    resolved = copy.deepcopy(DEFAULT_CONFIG)

    for source in (file_config, overrides):
        if not source:
            continue
        _check_keys(source, DEFAULT_CONFIG, "")
        for key, value in source.items():
            if isinstance(DEFAULT_CONFIG[key], dict):
                if not isinstance(value, dict):
                    raise ValueError(f"config section {key!r} must be an object")
                _check_keys(value, DEFAULT_CONFIG[key], key)
                resolved[key].update(value)
            else:
                resolved[key] = value

    if resolved["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version "
                         f"{resolved['schema_version']!r}")
    if not isinstance(resolved["out_dir"], str):
        raise ValueError(f"out_dir must be a string, got {resolved['out_dir']!r}")
    seed = _integer("seed", resolved["seed"])
    # stage seeds default to fixed offsets so the resolved file is fully
    # explicit and two stages never share a stream by accident
    for offset, (section, key) in enumerate((
            ("simulate", "master_seed"), ("train_fmaca", "seed"),
            ("train_lcs", "seed"), ("diagnose", "seed"))):
        if resolved[section][key] is None:
            resolved[section][key] = seed + offset
        _integer(f"{section}.{key}", resolved[section][key])
    return resolved


def load_config_file(path) -> dict:
    """The config object at `path`, refused naming the file unless it is
    JSON of this code's schema_version, if it declares one."""
    doc = read_json(path, "config")
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported config schema_version "
                         f"{version!r}")
    return doc


def write_resolved_config(config: dict, out_dir: Path) -> Path:
    path = out_dir / "config.resolved.json"
    write_json(path, config)
    return path


# ----- corpus manifest ------------------------------------------------------

class MatchPaths(NamedTuple):
    log: Path
    sequence: Path
    annotations: Path


def match_paths(out_dir, match_id: str) -> MatchPaths:
    """Where one match's log, sequence and annotation files live."""
    out = Path(out_dir)
    return MatchPaths(out / "logs" / f"{match_id}.jsonl",
                      out / "sequences" / f"{match_id}.fasta",
                      out / "annotations" / f"{match_id}.json")


@dataclass
class CorpusManifest:
    """The corpus's match ids; window_cycles is set once encode has run."""
    window_cycles: int | None = None
    created_at: str = ""
    entries: list = field(default_factory=list)

    def validate(self, base_dir) -> None:
        """Ids are unique, every log exists and, once encoded, every
        sequence and annotation file too."""
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("manifest match ids are not unique")
        for match_id in self.entries:
            paths = match_paths(base_dir, match_id)
            if self.window_cycles is None:
                paths = paths[:1]
            for path in paths:
                if not path.exists():
                    raise FileNotFoundError(
                        f"manifest match {match_id} has no file {path}")


def save_manifest(manifest: CorpusManifest, path) -> None:
    write_json(path, {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_at": manifest.created_at,
        "window_cycles": manifest.window_cycles,
        "entries": manifest.entries,
    })


def load_manifest(path) -> CorpusManifest:
    """The manifest at `path`, refused naming the file unless its entries
    are a list of match id strings and its window_cycles an integer or
    null."""
    doc = read_json(path, "manifest", MANIFEST_SCHEMA_VERSION,
                    ("entries", "window_cycles", "created_at"))
    entries = doc["entries"]
    if not (isinstance(entries, list)
            and all(isinstance(e, str) for e in entries)):
        raise ValueError(f"{path}: entries must be a list of match id "
                         f"strings, got {entries!r}")
    window_cycles = doc["window_cycles"]
    if window_cycles is not None:
        _integer(f"{path}: window_cycles", window_cycles)
    return CorpusManifest(window_cycles=window_cycles,
                          created_at=doc["created_at"], entries=entries)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ----- stages ---------------------------------------------------------------

def _worker_count(matches: int) -> int:
    """How many processes _map_matches spreads `matches` calls over: one
    per CPU this process may use (`taskset -c 0` gives one) and at most one
    per match.  One where the platform cannot tell the CPUs, and on Python
    3.12 and later, where os.fork warns (DeprecationWarning) in a process
    that runs another thread, as numpy's OpenBLAS does once imported."""
    if sys.version_info >= (3, 12) or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), matches)


def _exit_with_parent():
    """Pool initializer: a daemon thread ends this worker once its parent
    has exited, which the pool leaves undone when the parent is killed."""
    import multiprocessing
    import threading
    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def _map_matches(function, arguments: list) -> list:
    """[function(*args) for args in arguments], on _worker_count forked
    workers, or in this process when that is one.  Workers are forked, so
    they start with the library imported instead of importing it again
    for every stage.  Results come back in order, so a failure raises the
    error of the first failing match, whichever worker finished first; a
    worker that dies raises BrokenProcessPool.  No worker outlives the
    call, even when this process is killed during it (_exit_with_parent)."""
    workers = _worker_count(len(arguments))
    if workers < 2:
        return [function(*args) for args in arguments]
    # imported here, so that a process that never spreads matches (the
    # learners, a one-CPU run) does not spend its import time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_parent) as pool:
        return list(pool.map(function, *zip(*arguments)))


def _simulate_one(match_id: str, field_config: FieldConfig, out_dir: Path):
    """Run one match and write its log; its score."""
    match_log = run_match(ShootingPolicy(HOME), ShootingPolicy(AWAY),
                          field_config)
    if not match_log.valid:
        error = match_log.error
        raise RuntimeError(f"match {match_id} aborted at cycle {error['cycle']}: "
                           f"{error['type']}: {error['message']}")
    log_path = match_paths(out_dir, match_id).log
    log_path.parent.mkdir(exist_ok=True)
    save_match_log(match_log, log_path)
    return match_log.score


def stage_simulate(config: dict, out_dir: Path) -> Path:
    """Run the seeded match corpus; write one JSONL log per match plus the
    manifest skeleton."""
    params = config["simulate"]
    manifest = CorpusManifest(created_at=_timestamp())
    manifest.entries = [f"m{i:03d}" for i in range(params["matches"])]
    scores = _map_matches(_simulate_one, [
        (match_id, FieldConfig(cycle_count=params["cycles"],
                               rng_seed=params["master_seed"] + i,
                               players_per_team=params["players_per_team"]),
         out_dir)
        for i, match_id in enumerate(manifest.entries)])
    for match_id, score in zip(manifest.entries, scores):
        log.info("simulated %s: score %s", match_id, score)
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest_path


def annotate_log(match_log, window_cycles: int) -> list:
    """(window_index, label) events: one goal entry per goal event, one
    threat entry per window with an effective attacking kick close to the
    opponent goal line."""
    events = []
    threat_line = FIELD_LENGTH / 2.0 - THREAT_DISTANCE
    threat_windows = set()
    teams = dict(match_log.agents)
    ball_x = match_log.ball_x()
    for event in match_log.events:
        window = event.cycle // window_cycles
        if event.kind == "goal":
            events.append((window, GOAL))
        elif event.kind == "kick" and event.effective:
            team = teams.get(event.agent)
            if team == HOME and ball_x[event.cycle] > threat_line:
                threat_windows.add(window)
            elif team == AWAY and ball_x[event.cycle] < -threat_line:
                threat_windows.add(window)
    events.extend((w, THREAT) for w in sorted(threat_windows))
    return sorted(events)


def _encode_one(match_id: str, out_dir: Path, window_cycles: int) -> None:
    """Encode one logged match into its sequence and annotation files; a
    log marked invalid is refused, naming the match and its error."""
    paths = match_paths(out_dir, match_id)
    match_log = load_match_log(paths.log)
    if not match_log.valid:
        raise ValueError(f"match {match_id}: {paths.log} is marked invalid: "
                         f"{match_log.error}")
    game = encode_game(match_log, window_cycles, game_id=match_id)
    players = [encode_player(match_log, game, aid)
               for aid, _team in sorted(match_log.agents)]
    paths.sequence.parent.mkdir(exist_ok=True)
    sequences.write_fasta([game] + players, paths.sequence)
    paths.annotations.parent.mkdir(exist_ok=True)
    write_json(paths.annotations, {
        "schema_version": REPORT_SCHEMA_VERSION,
        "match_id": match_id,
        "window_cycles": window_cycles,
        "events": annotate_log(match_log, window_cycles),
    })


def stage_encode(config: dict, out_dir: Path) -> Path:
    """Encode every logged match into game/player sequences plus
    goal/threat window annotations; record the window size in the
    manifest."""
    window_cycles = config["encode"]["window_cycles"]
    manifest_path = out_dir / "manifest.json"
    manifest = load_manifest(manifest_path)
    # encode rewrites the encoded files, so only the logs must exist
    manifest.window_cycles = None
    manifest.validate(out_dir)
    _map_matches(_encode_one, [(match_id, out_dir, window_cycles)
                               for match_id in manifest.entries])
    manifest.window_cycles = window_cycles
    manifest.created_at = _timestamp()
    save_manifest(manifest, manifest_path)
    return manifest_path


def _encoded_manifest(config: dict, out_dir: Path) -> CorpusManifest:
    """The validated manifest of the encoded corpus.  Annotation window
    indices only mean something at the window size they were encoded
    with, so the manifest's window_cycles must equal the config's."""
    wanted = config["encode"]["window_cycles"]
    manifest = load_manifest(out_dir / "manifest.json")
    if manifest.window_cycles != wanted:
        raise ValueError(f"manifest window_cycles {manifest.window_cycles!r} does "
                         f"not match config encode.window_cycles {wanted}; "
                         "run the encode stage with this config")
    manifest.validate(out_dir)
    return manifest


def _load_corpus(out_dir: Path, manifest: CorpusManifest):
    """(game AnnotatedSequences, player AnnotatedSequences); players carry
    their game's events since window indices align.  A sequence file must
    hold its game first and then players of the game's length over the
    action alphabet, every event must pair an integer window inside the
    game with a goal or threat label, and the annotations must be encoded
    at the manifest's window_cycles; otherwise a ValueError names the
    file."""
    games = []
    players = []
    for match_id in manifest.entries:
        _log_path, seq_path, ann_path = match_paths(out_dir, match_id)
        doc = read_json(ann_path, "annotations", REPORT_SCHEMA_VERSION,
                        ("events",))
        if doc.get("window_cycles") != manifest.window_cycles:
            raise ValueError(f"{ann_path}: window_cycles "
                             f"{doc.get('window_cycles')!r} does not match "
                             f"the manifest's {manifest.window_cycles!r}")
        events = doc["events"]
        if not (isinstance(events, list) and all(
                isinstance(e, list) and len(e) == 2 for e in events)):
            raise ValueError(f"{ann_path}: events must be a list of "
                             f"[window, label] pairs, got {events!r}")
        events = [tuple(event) for event in events]
        records = sequences.read_fasta(seq_path)
        if not records or not records[0][0].startswith("game:"):
            raise ValueError(f"{seq_path}: the first sequence is not a game")
        n_windows = len(records[0][1])
        for window, label in events:
            _integer(f"{ann_path}: event window", window)
            if not 0 <= window < n_windows:
                raise ValueError(f"{ann_path}: event window {window} is "
                                 f"outside the game's {n_windows} windows")
            if label not in (GOAL, THREAT):
                raise ValueError(f"{ann_path}: event label {label!r} is "
                                 f"neither {GOAL!r} nor {THREAT!r}")
        games.append(AnnotatedSequence(*records[0], events))
        for header, letters in records[1:]:
            if not set(letters) <= set(sequences.ALPHABET):
                raise ValueError(f"{seq_path}: {header} has letters outside "
                                 f"{sequences.ALPHABET!r}")
            if len(letters) != n_windows:
                raise ValueError(f"{seq_path}: {header} has {len(letters)} "
                                 f"windows, its game {n_windows}")
            players.append(AnnotatedSequence(header, letters, events))
    return games, players


def stage_mine(config: dict, out_dir: Path) -> Path:
    """Mine player sequences for frequent patterns and tandem runs and
    score the motif tables against the annotated corpus."""
    lookback = config["mine"]["lookback"]
    manifest = _encoded_manifest(config, out_dir)
    games, players = _load_corpus(out_dir, manifest)

    report = mining.mine_report([(s.sequence_id, s.letters) for s in players],
                                PATTERN_QUERY)
    totals = {}
    for pattern, count, _seq_id in report.rows:
        totals[pattern] = totals.get(pattern, 0) + count
    top = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    top = top[:config["mine"]["top_patterns"]]

    # motifs speak the action alphabet, so rates are taken over player
    # sequences (each carries its game's event windows)
    labels = {label for seq in players for _index, label in seq.events}
    rates = []
    for motif in DEFAULT_MOTIFS:
        rate = None  # corpus has no events with this label
        if motif.label in labels:
            rate = mining.motif_occurrence_rate(players, motif, lookback)
        rates.append({"template": motif.template, "label": motif.label,
                      "band": motif.confidence_band, "rate": rate})

    mining_dir = out_dir / "mining"
    mining_dir.mkdir(exist_ok=True)
    path = mining_dir / "report.json"
    write_json(path, {
        "schema_version": REPORT_SCHEMA_VERSION,
        "query": {"min_len": PATTERN_QUERY.min_len,
                  "max_len": PATTERN_QUERY.max_len},
        "lookback": lookback,
        "patterns": top,
        "tandem_runs": report.tandem_runs,
        "motif_rates": rates,
    })
    return path


def _motif_windows(window: int) -> list:
    """Concrete goal/threat exemplars expanded from the motif tables;
    wildcards range over the action letters and short templates are
    left-padded with idle."""
    out = []
    for motif in DEFAULT_MOTIFS:
        template = motif.template[-window:].rjust(window, IDLE)
        expansions = [""]
        for ch in template:
            letters = ACTIONS if ch == mining.WILDCARD else ch
            expansions = [prefix + letter
                          for prefix in expansions for letter in letters]
        out.extend((text, motif.label) for text in expansions)
    return out


def _corpus_windows(players: list, window: int) -> list:
    """Action windows ending at each annotated event, one per player who
    did anything in that span (all-idle windows carry no signal)."""
    out = []
    for seq in players:
        for index, label in seq.events:
            text = seq.letters[max(0, index + 1 - window):index + 1]
            text = text.rjust(window, IDLE)
            if set(text) == {IDLE}:
                continue
            out.append((text, label))
    return out


def stage_train_fmaca(config: dict, out_dir: Path) -> Path:
    """Fit the attractor-basin window classifier on goal/threat windows
    from the corpus plus the motif-table exemplars."""
    params = config["train_fmaca"]
    ga = GaConfig(population_size=params["population_size"],
                  generations=params["generations"], rng_seed=params["seed"])
    manifest = _encoded_manifest(config, out_dir)
    _games, players = _load_corpus(out_dir, manifest)

    samples = list(dict.fromkeys(_motif_windows(params["window"])
                                 + _corpus_windows(players, params["window"])))
    windows = [text for text, _label in samples]
    labels = [label for _text, label in samples]

    generations = []  # one entry per GA generation run, over all nodes
    tree = fit_window_classifier(windows, labels, ga=ga,
                                 on_generation=lambda *g: generations.append(g))

    patterns = np.array([encode_window(w) for w in windows])
    predicted = classify_batch(tree, patterns)
    class_ids = {name: cid for cid, name in tree.class_names.items()}
    wanted = np.array([class_ids[label] for label in labels])
    accuracy = float((predicted == wanted).mean())
    # identical windows reach one leaf, so a window's minority labels are
    # errors for every tree: this is the best accuracy any tree can reach
    ceiling = purity_ceiling(patterns, labels)

    fmaca_dir = out_dir / "fmaca"
    fmaca_dir.mkdir(exist_ok=True)
    tree_path = fmaca_dir / "tree.json"
    save_tree(tree, tree_path)
    write_json(fmaca_dir / "metrics.json", {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n_windows": len(windows),
        "training_accuracy": round(accuracy, 6),
        "tree_depth": tree.depth(),
    })
    log.info("fmaca training accuracy %.3f on %d windows (purity ceiling %.3f), "
             "%d tree nodes, %d GA generations", accuracy, len(windows), ceiling,
             tree.node_count(), len(generations))
    return tree_path


def _lcs_config(params: dict) -> LcsConfig:
    """The LcsConfig of a train_lcs config section."""
    return LcsConfig(ga_period=params["ga_period"],
                     max_iterations=params["iters"], rng_seed=params["seed"])


def _miner_stats_from_report(path) -> MinerStats:
    """The mined patterns of the report at `path`, refused naming the file
    unless they are [pattern string, integer count] pairs."""
    doc = read_json(path, "mining report", REPORT_SCHEMA_VERSION,
                    ("patterns",))
    patterns = doc["patterns"]
    if not (isinstance(patterns, list) and all(
            isinstance(p, list) and len(p) == 2 for p in patterns)):
        raise ValueError(f"{path}: patterns must be a list of [pattern, "
                         f"count] pairs, got {patterns!r}")
    for pattern, count in patterns:
        if not isinstance(pattern, str):
            raise ValueError(f"{path}: pattern {pattern!r} is not a string")
        _integer(f"{path}: pattern count", count)
    return MinerStats(patterns=[tuple(p) for p in patterns],
                      motifs=list(DEFAULT_MOTIFS))


def stage_train_lcs(config: dict, out_dir: Path) -> Path:
    """Train the classifier system on the corpus's player sequences,
    replayed with the mined patterns seeding its GA, and write the
    population and learning curve."""
    lcs_config = _lcs_config(config["train_lcs"])
    manifest = _encoded_manifest(config, out_dir)
    _games, players = _load_corpus(out_dir, manifest)
    stats = _miner_stats_from_report(out_dir / "mining" / "report.json")
    try:
        environment = SequenceReplayEnvironment(players, lcs_config, stats)
    except ValueError:
        # an all-idle corpus (possession never held for a window
        # majority) has nothing to learn from; write the seeded
        # starting population untrained rather than aborting the run
        log.warning("corpus has no usable context windows; "
                    "writing untrained population")
        rng = np.random.default_rng(lcs_config.rng_seed)
        population = Population.random(lcs_config, rng)
        curve = LearningCurve(points=[])
    else:
        population, curve = train(environment, lcs_config)
    lcs_dir = out_dir / "lcs"
    lcs_dir.mkdir(exist_ok=True)
    with open(lcs_dir / "population.csv", "w") as fh:
        fh.write(population_to_csv(population))
    curve_path = lcs_dir / "curve.csv"
    with open(curve_path, "w") as fh:
        fh.write(curve_to_csv(curve))
    if curve.points:
        log.info("lcs final proportion_correct %.3f; %d covering events, "
                 "%d GA rounds, %d strengths clamped at zero",
                 curve.points[-1][1], population.cover_count,
                 lcs_config.max_iterations // lcs_config.ga_period,
                 population.clamp_count)
    return curve_path


def stage_diagnose(config: dict, out_dir: Path) -> Path:
    """Evolve a rule vector on the synthetic task and log per-generation
    entropy/MI of the best vector."""
    params = config["diagnose"]
    ga = GaConfig(population_size=params["population_size"],
                  generations=params["generations"], rng_seed=params["seed"])
    diag = DiagnosticsConfig(run_steps=params["run_steps"],
                             trials=params["trials"], rng_seed=params["seed"])
    rows = ga_diagnostics(DIAGNOSE_CELLS, ga, diag)
    diag_dir = out_dir / "diagnostics"
    diag_dir.mkdir(exist_ok=True)
    path = diag_dir / "ga_diagnostics.csv"
    with open(path, "w") as fh:
        fh.write(diagnostics_to_csv(rows))
    return path


_STAGE_FUNCTIONS = {
    "simulate": stage_simulate,
    "encode": stage_encode,
    "mine": stage_mine,
    "train-fmaca": stage_train_fmaca,
    "train-lcs": stage_train_lcs,
    "diagnose": stage_diagnose,
}


def run_stage(name: str, config: dict, out_dir) -> Path:
    """One stage with failures wrapped so callers learn the stage name;
    every setting of `config` is checked before the stage does any work."""
    out = Path(out_dir)
    try:
        _check_settings(config)
        out.mkdir(parents=True, exist_ok=True)
        return _STAGE_FUNCTIONS[name](config, out)
    except Exception as err:
        raise StageError(name, err) from err


def pipeline_run(config: dict) -> dict:
    """All six stages in order; artifacts land under config['out_dir'].

    Raises StageError on the first failing stage, leaving earlier
    artifacts in place; a setting outside its range fails the first
    stage before anything is written.  Returns {stage: artifact path}.
    """
    try:
        _check_settings(config)
    except ValueError as err:
        raise StageError(STAGES[0], err) from err
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out_dir)
    artifacts = {}
    for name in STAGES:
        log.info("running stage %s", name)
        artifacts[name] = run_stage(name, config, out_dir)
    return artifacts
