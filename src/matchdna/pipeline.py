"""File-based pipeline: simulate matches, encode sequences, mine patterns,
train classifiers, and emit dynamics diagnostics.

Stages communicate only through artifact files under one output
directory, so any stage can be rerun or inspected in isolation.  The
manifest lists the corpus's match ids; each match's log, sequence and
annotation files sit at fixed paths derived from its id (match_paths).
Every artifact carries a schema_version and every random draw flows from
a seed recorded in the resolved run config; the manifest's creation
timestamp is the single nondeterministic field.
"""

from __future__ import annotations

import copy
import json
import logging
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
from .mining import DEFAULT_MOTIFS, GOAL, THREAT, AnnotatedSequence, PatternQuery
from .sequences import ACTIONS, IDLE, encode_game, encode_player
from .shooting import LETTER_HISTORY, ShootingPolicy
from .simulator import AWAY, HOME, FieldConfig, load_match_log, run_match, save_match_log

log = logging.getLogger(__name__)

CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 2
REPORT_SCHEMA_VERSION = 1

STAGES = ("simulate", "encode", "mine", "train-fmaca", "train-lcs", "diagnose")

# attacking kicks inside this distance of the goal line flag a threat window
THREAT_DISTANCE = 30.0

DEFAULT_CONFIG = {
    "schema_version": CONFIG_SCHEMA_VERSION,
    "seed": 0,
    "out_dir": "runs/out",
    "simulate": {
        "matches": 100,
        "cycles": 1000,
        "players_per_team": 2,
        "master_seed": None,
    },
    "encode": {
        "window_cycles": 10,
    },
    "mine": {
        "min_len": 2,
        "max_len": 5,
        "top_patterns": 25,
        "lookback": 5,
    },
    "train_fmaca": {
        "window": 5,
        "population_size": 50,
        "generations": 40,
        "seed": None,
    },
    "train_lcs": {
        "iters": 20000,
        "ga_period": 4000,
        "seed": None,
    },
    "diagnose": {
        "n_cells": 8,
        "population_size": 30,
        "generations": 12,
        "run_steps": 400,
        "trials": 5,
        "seed": None,
    },
}


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ----- run config ---------------------------------------------------------

def _at_least(config: dict, section: str, key: str, low: int) -> int:
    """config[section][key] as an int, refused below `low` by name."""
    value = int(config[section][key])
    if value < low:
        raise ValueError(f"{section}.{key} must be >= {low}, got {value}")
    return value


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
    seed = int(resolved["seed"])
    resolved["seed"] = seed
    # stage seeds default to fixed offsets so the resolved file is fully
    # explicit and two stages never share a stream by accident
    if resolved["simulate"]["master_seed"] is None:
        resolved["simulate"]["master_seed"] = seed
    if resolved["train_fmaca"]["seed"] is None:
        resolved["train_fmaca"]["seed"] = seed + 1
    if resolved["train_lcs"]["seed"] is None:
        resolved["train_lcs"]["seed"] = seed + 2
    if resolved["diagnose"]["seed"] is None:
        resolved["diagnose"]["seed"] = seed + 3
    return resolved


def load_config_file(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----- JSON artifacts -------------------------------------------------------

def _write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path, version: int, what: str) -> dict:
    """A JSON artifact, refused unless it declares the schema_version this
    code writes."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != version:
        raise ValueError(f"unsupported {what} schema_version")
    return doc


def write_resolved_config(config: dict, out_dir: Path) -> Path:
    path = out_dir / "config.resolved.json"
    _write_json(path, config)
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
    _write_json(path, {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_at": manifest.created_at,
        "window_cycles": manifest.window_cycles,
        "entries": manifest.entries,
    })


def load_manifest(path) -> CorpusManifest:
    doc = _read_json(path, MANIFEST_SCHEMA_VERSION, "manifest")
    return CorpusManifest(
        window_cycles=doc["window_cycles"],
        created_at=doc["created_at"],
        entries=doc["entries"],
    )


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ----- stages ---------------------------------------------------------------

def stage_simulate(config: dict, out_dir: Path) -> Path:
    """Run the seeded match corpus; write one JSONL log per match plus the
    manifest skeleton."""
    sim = config["simulate"]
    n_matches = _at_least(config, "simulate", "matches", 1)
    cycles = _at_least(config, "simulate", "cycles", 1)
    players_per_team = _at_least(config, "simulate", "players_per_team", 1)
    manifest = CorpusManifest(created_at=_timestamp())
    for i in range(n_matches):
        match_id = f"m{i:03d}"
        field_config = FieldConfig(
            cycle_count=cycles,
            rng_seed=int(sim["master_seed"]) + i,
            players_per_team=players_per_team,
        )
        home = ShootingPolicy(field_config, team=HOME)
        away = ShootingPolicy(field_config, team=AWAY)
        match_log = run_match(home, away, field_config)
        if not match_log.valid:
            error = match_log.error
            raise RuntimeError(f"match {match_id} aborted at cycle {error['cycle']}: "
                               f"{error['type']}: {error['message']}")
        log_path = match_paths(out_dir, match_id).log
        log_path.parent.mkdir(exist_ok=True)
        save_match_log(match_log, log_path)
        manifest.entries.append(match_id)
        log.info("simulated %s: score %s", match_id, match_log.score)
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest_path


def annotate_log(match_log, window_cycles: int) -> list:
    """(window_index, label) events: one goal entry per goal event, one
    threat entry per window with an effective attacking kick close to the
    opponent goal line."""
    events = []
    threat_line = match_log.config.length / 2.0 - THREAT_DISTANCE
    threat_windows = set()
    first_agents, _ball = match_log.per_cycle_states[0]
    teams = {agent.id: agent.team for agent in first_agents}
    for event in match_log.events:
        window = event.cycle // window_cycles
        if event.kind == "goal":
            events.append((window, GOAL))
        elif event.kind == "kick" and event.effective:
            agents, ball = match_log.per_cycle_states[event.cycle]
            team = teams.get(event.agent)
            if team == HOME and ball.x > threat_line:
                threat_windows.add(window)
            elif team == AWAY and ball.x < -threat_line:
                threat_windows.add(window)
    events.extend((w, THREAT) for w in sorted(threat_windows))
    return sorted(events)


def stage_encode(config: dict, out_dir: Path) -> Path:
    """Encode every logged match into game/player sequences plus
    goal/threat window annotations; record the window size in the
    manifest."""
    window_cycles = _at_least(config, "encode", "window_cycles", 1)
    manifest_path = out_dir / "manifest.json"
    manifest = load_manifest(manifest_path)
    # encode rewrites the encoded files, so only the logs must exist
    manifest.window_cycles = None
    manifest.validate(out_dir)
    for match_id in manifest.entries:
        paths = match_paths(out_dir, match_id)
        match_log = load_match_log(paths.log)
        game = encode_game(match_log, window_cycles, game_id=match_id)
        agents, _ball = match_log.per_cycle_states[0]
        players = [encode_player(match_log, game, a.id)
                   for a in sorted(agents, key=lambda a: a.id)]
        paths.sequence.parent.mkdir(exist_ok=True)
        sequences.write_fasta([game] + players, paths.sequence)
        paths.annotations.parent.mkdir(exist_ok=True)
        _write_json(paths.annotations, {
            "schema_version": REPORT_SCHEMA_VERSION,
            "match_id": match_id,
            "window_cycles": window_cycles,
            "events": annotate_log(match_log, window_cycles),
        })
    manifest.window_cycles = window_cycles
    manifest.created_at = _timestamp()
    save_manifest(manifest, manifest_path)
    return manifest_path


def _encoded_manifest(config: dict, out_dir: Path) -> CorpusManifest:
    """The validated manifest of the encoded corpus.  Annotation window
    indices only mean something at the window size they were encoded
    with, so the manifest's window_cycles must equal the config's."""
    manifest = load_manifest(out_dir / "manifest.json")
    wanted = int(config["encode"]["window_cycles"])
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
    action alphabet, every event window must fall inside the game, and
    the annotations must be encoded at the manifest's window_cycles;
    otherwise a ValueError names the file."""
    games = []
    players = []
    for match_id in manifest.entries:
        _log_path, seq_path, ann_path = match_paths(out_dir, match_id)
        doc = _read_json(ann_path, REPORT_SCHEMA_VERSION, "annotations")
        if doc.get("window_cycles") != manifest.window_cycles:
            raise ValueError(f"{ann_path}: window_cycles "
                             f"{doc.get('window_cycles')!r} does not match "
                             f"the manifest's {manifest.window_cycles!r}")
        events = [(int(w), str(label)) for w, label in doc["events"]]
        records = sequences.read_fasta(seq_path)
        if not records or not records[0][0].startswith("game:"):
            raise ValueError(f"{seq_path}: the first sequence is not a game")
        n_windows = len(records[0][1])
        games.append(AnnotatedSequence(*records[0], events))
        for header, letters in records[1:]:
            if not set(letters) <= set(sequences.ALPHABET):
                raise ValueError(f"{seq_path}: {header} has letters outside "
                                 f"{sequences.ALPHABET!r}")
            if len(letters) != n_windows:
                raise ValueError(f"{seq_path}: {header} has {len(letters)} "
                                 f"windows, its game {n_windows}")
            players.append(AnnotatedSequence(header, letters, events))
        for window, _label in events:
            if not 0 <= window < n_windows:
                raise ValueError(f"{ann_path}: event window {window} is "
                                 f"outside the game's {n_windows} windows")
    return games, players


def stage_mine(config: dict, out_dir: Path) -> Path:
    """Mine player sequences for frequent patterns and tandem runs and
    score the motif tables against the annotated corpus."""
    params = config["mine"]
    top_patterns = _at_least(config, "mine", "top_patterns", 0)
    manifest = _encoded_manifest(config, out_dir)
    games, players = _load_corpus(out_dir, manifest)

    query = PatternQuery(int(params["min_len"]), int(params["max_len"]))
    report = mining.mine_report([(s.sequence_id, s.letters) for s in players],
                                query)
    totals = {}
    for pattern, count, _seq_id in report.rows:
        totals[pattern] = totals.get(pattern, 0) + count
    top = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    top = top[:top_patterns]

    # motifs speak the action alphabet, so rates are taken over player
    # sequences (each carries its game's event windows)
    lookback = int(params["lookback"])
    longest = max(len(motif.template) for motif in DEFAULT_MOTIFS)
    if lookback < longest:
        raise ValueError(f"mine.lookback {lookback} is shorter than the "
                         f"longest motif template ({longest} letters)")
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
    _write_json(path, {
        "schema_version": REPORT_SCHEMA_VERSION,
        "query": {"min_len": query.min_len, "max_len": query.max_len},
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
            if label not in (GOAL, THREAT):
                continue
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
    window = _at_least(config, "train_fmaca", "window", 1)
    if window > LETTER_HISTORY:
        # the shooting policy keeps only this many letters, so a wider
        # tree could never judge a shot
        raise ValueError(f"train_fmaca.window must be <= {LETTER_HISTORY}, "
                         f"got {window}")
    manifest = _encoded_manifest(config, out_dir)
    _games, players = _load_corpus(out_dir, manifest)

    samples = list(dict.fromkeys(_motif_windows(window)
                                 + _corpus_windows(players, window)))
    windows = [text for text, _label in samples]
    labels = [label for _text, label in samples]

    ga = GaConfig(population_size=int(params["population_size"]),
                  generations=int(params["generations"]),
                  rng_seed=int(params["seed"]))
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
    _write_json(fmaca_dir / "metrics.json", {
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
    return LcsConfig(ga_period=int(params["ga_period"]),
                     max_iterations=int(params["iters"]),
                     rng_seed=int(params["seed"]))


def _miner_stats_from_report(path) -> MinerStats:
    doc = _read_json(path, REPORT_SCHEMA_VERSION, "mining report")
    patterns = [(str(p), int(c)) for p, c in doc["patterns"]]
    return MinerStats(patterns=patterns, motifs=list(DEFAULT_MOTIFS))


def stage_train_lcs(config: dict, out_dir: Path) -> Path:
    """Train the classifier system on the corpus's player sequences,
    replayed with the mined patterns seeding its GA, and write the
    population and learning curve."""
    _at_least(config, "train_lcs", "iters", 1)
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
    n_cells = _at_least(config, "diagnose", "n_cells", 1)
    ga = GaConfig(population_size=int(params["population_size"]),
                  generations=int(params["generations"]),
                  rng_seed=int(params["seed"]))
    diag = DiagnosticsConfig(run_steps=int(params["run_steps"]),
                             trials=int(params["trials"]),
                             rng_seed=int(params["seed"]))
    rows = ga_diagnostics(n_cells, ga, diag)
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
    """One stage with failures wrapped so callers learn the stage name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _STAGE_FUNCTIONS[name](config, out)
    except StageError:
        raise
    except Exception as err:
        raise StageError(name, err) from err


def pipeline_run(config: dict) -> dict:
    """All six stages in order; artifacts land under config['out_dir'].

    Raises StageError on the first failing stage, leaving earlier
    artifacts in place.  Returns {stage: artifact path}.
    """
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out_dir)
    artifacts = {}
    for name in STAGES:
        log.info("running stage %s", name)
        artifacts[name] = run_stage(name, config, out_dir)
    return artifacts
