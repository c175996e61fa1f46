"""Tests for the file-based pipeline stages and the CLI wiring."""

import hashlib
import json
import logging
import shutil
from collections import Counter
from pathlib import Path

import pytest

from matchdna import pipeline
from matchdna.attractor_tree import (
    GaConfig,
    fit_window_classifier,
    load_tree,
    tree_to_dict,
)
from matchdna.classifier_system import (
    LcsConfig,
    SequenceReplayEnvironment,
    population_from_csv,
    train,
)
from matchdna.cli import main
from matchdna.mining import GOAL, THREAT
from matchdna.pipeline import (
    CorpusManifest,
    StageError,
    annotate_log,
    load_manifest,
    match_paths,
    pipeline_run,
    resolve_config,
    run_stage,
    save_manifest,
)
from matchdna.shooting import LETTER_HISTORY
from matchdna.simulator import (
    AWAY,
    HOME,
    FieldConfig,
    MatchEvent,
    MatchLog,
    load_match_log,
    run_match,
)

SMOKE = {
    "seed": 7,
    "simulate": {"matches": 1, "cycles": 200},
    "train_lcs": {"iters": 3000},
    "diagnose": {"generations": 3, "run_steps": 120, "trials": 3},
}

# the corpus of TestBuildCorpus.test_pinned_corpus_at_default_cycle_count
PINNED_CORPUS = {
    "logs/m000.jsonl":
        "0b04592f9af81d6f4d9c86c3c28a392aa9f12ece25c13edb1afbe60a05ad2484",
    "logs/m001.jsonl":
        "0bf628162f73e04f00614f166d9ede4dc06eab60695c37e402c13b8121360dca",
    "sequences/m000.fasta":
        "820184a0cb192f96dbdc940b6ea17bddb069a572d74953c5f26597698bc3368d",
    "sequences/m001.fasta":
        "91a1dbc0a0eae5583938d77d850b9f2e9c90495b839cf47c9d5e3e8fee03154d",
    "annotations/m000.json":
        "a9da0785cb00f7a567f5524ba119a33414a9d9c87f91abe18eb1cbabf2960c85",
    "annotations/m001.json":
        "39e09091bc5c2f2fe6a081f96824a3518976bc4f425b82995d40e634d87cfa28",
}


def smoke_config(out_dir) -> dict:
    config = json.loads(json.dumps(SMOKE))
    config["out_dir"] = str(out_dir)
    return resolve_config(config)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = smoke_config(out)
    artifacts = pipeline_run(config)
    return out, config, artifacts


class TestResolveConfig:
    def test_defaults_fill_and_seeds_explicit(self):
        config = resolve_config()
        assert config["simulate"]["matches"] == 100
        assert config["simulate"]["cycles"] == 1000
        for path in (("simulate", "master_seed"), ("train_fmaca", "seed"),
                     ("train_lcs", "seed"), ("diagnose", "seed")):
            section, key = path
            assert config[section][key] is not None

    def test_file_values_override_defaults(self):
        config = resolve_config({"simulate": {"matches": 3}})
        assert config["simulate"]["matches"] == 3
        assert config["simulate"]["cycles"] == 1000

    def test_flags_override_file(self):
        config = resolve_config({"seed": 1}, {"seed": 9})
        assert config["seed"] == 9
        assert config["simulate"]["master_seed"] == 9

    def test_stage_seeds_differ_by_default(self):
        config = resolve_config({"seed": 5})
        seeds = {config["simulate"]["master_seed"],
                 config["train_fmaca"]["seed"],
                 config["train_lcs"]["seed"],
                 config["diagnose"]["seed"]}
        assert len(seeds) == 4

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            resolve_config({"simulte": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="simulate.matchs"):
            resolve_config({"simulate": {"matchs": 2}})

    def test_bad_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            resolve_config({"schema_version": 99})

    def test_explicit_stage_seed_kept(self):
        config = resolve_config({"train_lcs": {"seed": 123}})
        assert config["train_lcs"]["seed"] == 123

    @pytest.mark.parametrize("section, key", [
        ("train_lcs", "env"), ("train_lcs", "population_size"),
        ("train_lcs", "bid_fraction"), ("train_lcs", "reward_win"),
        ("train_lcs", "reward_play"), ("train_lcs", "mutation_rate"),
        ("diagnose", "window")])
    def test_removed_key_rejected(self, section, key):
        # the learners' own defaults hold these values; a config that sets
        # one is refused rather than silently ignored
        with pytest.raises(ValueError,
                           match=f"unknown config key '{section}.{key}'"):
            resolve_config({section: {key: 1}})


class TestManifest:
    def touch(self, path):
        path.parent.mkdir(exist_ok=True)
        path.write_text("{}\n")

    def logged(self, tmp_path, *ids):
        """A manifest over ids, each with a log file."""
        for match_id in ids:
            self.touch(match_paths(tmp_path, match_id).log)
        return CorpusManifest(entries=list(ids))

    def test_round_trip(self, tmp_path):
        manifest = self.logged(tmp_path, "m000", "m001")
        manifest.created_at = "t0"
        save_manifest(manifest, tmp_path / "manifest.json")
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc == {"schema_version": 2, "created_at": "t0",
                       "window_cycles": None, "entries": ["m000", "m001"]}
        back = load_manifest(tmp_path / "manifest.json")
        assert back == manifest
        back.validate(tmp_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = self.logged(tmp_path, "m000")
        manifest.entries *= 2
        with pytest.raises(ValueError, match="unique"):
            manifest.validate(tmp_path)

    def test_missing_path_rejected(self, tmp_path):
        manifest = self.logged(tmp_path, "m000")
        manifest.entries.append("m001")
        with pytest.raises(FileNotFoundError) as err:
            manifest.validate(tmp_path)
        assert str(err.value) == ("manifest match m001 has no file "
                                  f"{tmp_path / 'logs/m001.jsonl'}")

    def test_encoded_files_checked_once_window_set(self, tmp_path):
        manifest = self.logged(tmp_path, "m000")
        manifest.validate(tmp_path)  # not encoded yet: logs suffice
        manifest.window_cycles = 10
        paths = match_paths(tmp_path, "m000")
        for missing in (paths.sequence, paths.annotations):
            with pytest.raises(FileNotFoundError) as err:
                manifest.validate(tmp_path)
            assert str(err.value) == f"manifest match m000 has no file {missing}"
            self.touch(missing)
        manifest.validate(tmp_path)

    def test_schema_1_manifest_refused(self, tmp_path):
        # the earlier layout stored three paths per match
        self.logged(tmp_path, "m000")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "schema_version": 1, "created_at": "", "window_cycles": None,
            "entries": [{"match_id": "m000", "log_path": "logs/m000.jsonl",
                         "sequence_path": None, "annotations_path": None}]}))
        with pytest.raises(ValueError, match="unsupported manifest schema_version"):
            load_manifest(tmp_path / "manifest.json")

    def test_schema_version_checked(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"schema_version": 99, "created_at": "", '
            '"window_cycles": null, "entries": []}')
        with pytest.raises(ValueError, match="schema_version"):
            load_manifest(tmp_path / "manifest.json")


class TestAnnotateLog:
    def run_small_match(self, seed=3):
        config = FieldConfig(cycle_count=150, rng_seed=seed)
        from matchdna.shooting import ShootingPolicy
        return run_match(ShootingPolicy(config, HOME),
                         ShootingPolicy(config, AWAY), config)

    def test_one_goal_annotation_per_goal_event(self):
        log = self.run_small_match()
        events = annotate_log(log, window_cycles=10)
        goals = [e for e in log.events if e.kind == "goal"]
        assert len([1 for _w, label in events if label == GOAL]) == len(goals)

    def test_goal_window_is_event_cycle_window(self):
        log = self.run_small_match()
        goal_cycles = [e.cycle for e in log.events if e.kind == "goal"]
        goal_windows = sorted(w for w, label in annotate_log(log, 10)
                              if label == GOAL)
        assert goal_windows == sorted(c // 10 for c in goal_cycles)

    def test_threat_requires_effective_kick_near_goal(self):
        config = FieldConfig(cycle_count=5, rng_seed=0)
        log = run_match(None, None, config)
        log.events = [MatchEvent(cycle=2, kind="kick", agent="a",
                                 effective=True)]
        agents, ball = log.per_cycle_states[2]
        ball.x = config.length / 2 - 5.0  # deep in the attacking third
        assert (0, THREAT) in annotate_log(log, 10)
        ball.x = 0.0  # midfield kick: no threat
        assert annotate_log(log, 10) == []

    def test_threat_windows_deduplicated(self):
        config = FieldConfig(cycle_count=5, rng_seed=0)
        log = run_match(None, None, config)
        log.events = [MatchEvent(cycle=1, kind="kick", agent="a", effective=True),
                      MatchEvent(cycle=2, kind="kick", agent="a", effective=True)]
        for cycle in (1, 2):
            log.per_cycle_states[cycle][1].x = config.length / 2 - 1.0
        events = annotate_log(log, 10)
        assert events == [(0, THREAT)]


class TestPipelineRun:
    def test_all_artifacts_exist(self, pipeline_dir):
        out, _config, artifacts = pipeline_dir
        assert set(artifacts) == set(pipeline.STAGES)
        for path in artifacts.values():
            assert Path(path).exists()
        assert (out / "config.resolved.json").exists()
        assert (out / "lcs" / "population.csv").exists()
        assert (out / "fmaca" / "metrics.json").exists()

    def test_artifacts_declare_schema_version(self, pipeline_dir):
        out, _config, _artifacts = pipeline_dir
        for rel in ("annotations/m000.json",
                    "mining/report.json", "fmaca/tree.json",
                    "fmaca/metrics.json"):
            doc = json.loads((out / rel).read_text())
            assert doc["schema_version"] == 1, rel
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["schema_version"] == 2
        for rel in ("sequences/m000.fasta", "lcs/population.csv",
                    "lcs/curve.csv", "diagnostics/ga_diagnostics.csv"):
            first = (out / rel).read_text().splitlines()[0]
            assert first == "# schema_version=1", rel
        first = (out / "logs/m000.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["schema_version"] == 1

    def test_manifest_complete_after_encode(self, pipeline_dir):
        out, _config, _artifacts = pipeline_dir
        manifest = load_manifest(out / "manifest.json")
        manifest.validate(out)
        assert manifest.entries == ["m000"]
        assert manifest.window_cycles == 10

    def test_rerun_is_deterministic_except_timestamps(self, pipeline_dir,
                                                      tmp_path):
        out, _config, _artifacts = pipeline_dir
        config = smoke_config(tmp_path)
        pipeline_run(config)
        for pa in sorted(out.rglob("*")):
            if pa.is_dir():
                continue
            rel = pa.relative_to(out)
            pb = tmp_path / rel
            if rel.name == "manifest.json":
                da = json.loads(pa.read_text())
                db = json.loads(pb.read_text())
                da.pop("created_at")
                db.pop("created_at")
                assert da == db
            elif rel.name == "config.resolved.json":
                da = json.loads(pa.read_text())
                db = json.loads(pb.read_text())
                da.pop("out_dir")
                db.pop("out_dir")
                assert da == db
            else:
                assert pa.read_bytes() == pb.read_bytes(), str(rel)

    def test_missing_corpus_fails_naming_mine(self, tmp_path):
        config = smoke_config(tmp_path / "empty")
        with pytest.raises(StageError) as err:
            run_stage("mine", config, tmp_path / "empty")
        assert err.value.stage == "mine"
        assert "mine" in str(err.value)

    def test_zero_matches_fail_at_simulate(self, tmp_path):
        config = smoke_config(tmp_path)
        config["simulate"]["matches"] = 0
        with pytest.raises(StageError) as err:
            pipeline_run(config)
        assert err.value.stage == "simulate"
        assert "simulate.matches must be >= 1, got 0" in str(err.value)

    @pytest.mark.parametrize("stage, section, key, value, low", [
        ("encode", "encode", "window_cycles", 0, 1),
        ("mine", "mine", "top_patterns", -1, 0),
        ("train-fmaca", "train_fmaca", "window", 0, 1),
        ("train-lcs", "train_lcs", "iters", 0, 1),
        ("simulate", "simulate", "cycles", 0, 1),
        ("simulate", "simulate", "players_per_team", 0, 1),
        ("diagnose", "diagnose", "n_cells", 0, 1)])
    def test_out_of_range_value_fails_before_any_work(self, tmp_path, stage,
                                                      section, key, value,
                                                      low):
        # an empty directory: the value is refused before the stage reads
        # its inputs or creates a directory
        config = smoke_config(tmp_path)
        config[section][key] = value
        with pytest.raises(StageError) as err:
            run_stage(stage, config, tmp_path)
        assert isinstance(err.value.cause, ValueError)
        assert f"{section}.{key} must be >= {low}, got {value}" in str(err.value)
        assert list(tmp_path.iterdir()) == []

    def test_window_wider_than_letter_history_fails_before_any_work(
            self, tmp_path):
        # the shooting policy hands the gate only LETTER_HISTORY letters,
        # so a wider tree could never veto a shot
        config = smoke_config(tmp_path)
        config["train_fmaca"]["window"] = LETTER_HISTORY + 1
        with pytest.raises(StageError) as err:
            run_stage("train-fmaca", config, tmp_path)
        assert isinstance(err.value.cause, ValueError)
        assert "train_fmaca.window must be <= 64, got 65" in str(err.value)
        assert list(tmp_path.iterdir()) == []

    def test_short_lookback_fails_naming_it(self, mined_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(mined_dir, out)
        config = smoke_config(out)
        config["mine"]["lookback"] = 3
        with pytest.raises(StageError) as err:
            run_stage("mine", config, out)
        assert err.value.stage == "mine"
        assert ("mine.lookback 3 is shorter than the longest motif template "
                "(5 letters)") in str(err.value)

    def test_failed_stage_leaves_prior_artifacts(self, tmp_path):
        config = smoke_config(tmp_path)
        run_stage("simulate", config, tmp_path)
        log_bytes = (tmp_path / "logs/m000.jsonl").read_bytes()
        with pytest.raises(StageError):
            run_stage("mine", config, tmp_path)  # encode never ran
        assert (tmp_path / "logs/m000.jsonl").read_bytes() == log_bytes

    def test_aborted_match_names_cause_and_cycle(self, tmp_path, monkeypatch):
        class FailsAtCycle:
            def __init__(self, field_config, team):
                pass

            def act(self, agent_id, perceptions, cycle):
                if cycle == 12:
                    raise ValueError("policy lost the ball")
                return None
        monkeypatch.setattr(pipeline, "ShootingPolicy", FailsAtCycle)
        with pytest.raises(StageError) as err:
            run_stage("simulate", smoke_config(tmp_path), tmp_path)
        assert isinstance(err.value.cause, RuntimeError)
        assert str(err.value.cause) == ("match m000 aborted at cycle 12: "
                                        "ValueError: policy lost the ball")

    def test_window_cycles_checked_against_manifest(self, tmp_path):
        config = smoke_config(tmp_path)
        for stage in ("simulate", "encode"):
            run_stage(stage, config, tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["window_cycles"] = 20
        path.write_text(json.dumps(doc))
        for stage in ("mine", "train-fmaca", "train-lcs"):
            with pytest.raises(StageError) as err:
                run_stage(stage, config, tmp_path)
            assert isinstance(err.value.cause, ValueError)
            assert "window_cycles 20" in str(err.value)
            assert "window_cycles 10" in str(err.value)

    def test_mining_report_contents(self, pipeline_dir):
        out, _config, _artifacts = pipeline_dir
        doc = json.loads((out / "mining/report.json").read_text())
        assert doc["patterns"], "corpus should yield at least one pattern"
        for pattern, count in doc["patterns"]:
            assert count >= 1
            assert 2 <= len(pattern) <= 5
        assert len(doc["motif_rates"]) == 8

    def test_lcs_curve_parses(self, pipeline_dir):
        out, _config, _artifacts = pipeline_dir
        lines = (out / "lcs/curve.csv").read_text().splitlines()
        assert lines[1] == "iteration,proportion_correct"
        rows = [line.split(",") for line in lines[2:]]
        iterations = [int(r[0]) for r in rows]
        assert iterations == sorted(iterations)
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)

    def test_all_idle_corpus_writes_untrained_population(self, tmp_path, caplog):
        # seed 10 at 200 cycles never gives any agent a window-majority of
        # possession, so every encoded sequence is pure idle
        config = resolve_config({
            "seed": 10, "out_dir": str(tmp_path),
            "simulate": {"matches": 1, "cycles": 200},
            "train_lcs": {"iters": 2000},
        })
        for stage in ("simulate", "encode", "mine"):
            run_stage(stage, config, tmp_path)
        with caplog.at_level(logging.WARNING, logger="matchdna.pipeline"):
            run_stage("train-lcs", config, tmp_path)
        assert "no usable context windows" in caplog.text
        curve_lines = (tmp_path / "lcs/curve.csv").read_text().splitlines()
        assert curve_lines == ["# schema_version=1",
                               "iteration,proportion_correct"]
        population = population_from_csv(
            (tmp_path / "lcs/population.csv").read_text())
        assert len(population) == LcsConfig().population_size

    def test_train_lcs_logs_what_the_lcs_did(self, mined_dir, tmp_path, caplog):
        out = tmp_path / "run"
        shutil.copytree(mined_dir, out)
        config = smoke_config(out)
        config["train_lcs"].update(iters=3000, ga_period=1000)
        with caplog.at_level(logging.INFO, logger="matchdna.pipeline"):
            run_stage("train-lcs", config, out)
        lcs_config = pipeline._lcs_config(config["train_lcs"])
        _games, players = pipeline._load_corpus(
            out, load_manifest(out / "manifest.json"))
        stats = pipeline._miner_stats_from_report(out / "mining/report.json")
        population, curve = train(
            SequenceReplayEnvironment(players, lcs_config, stats), lcs_config)
        # the whole line, so the final block's score ties it to this run
        # even where the counts are zero
        assert (f"lcs final proportion_correct {curve.points[-1][1]:.3f}; "
                f"{population.cover_count} covering events, 3 GA rounds, "
                f"{population.clamp_count} strengths clamped at zero"
                in caplog.text)

    def test_train_fmaca_logs_node_count_and_purity_ceiling(self, mined_dir,
                                                            tmp_path, caplog):
        out = tmp_path / "run"
        shutil.copytree(mined_dir, out)
        config = smoke_config(out)
        with caplog.at_level(logging.INFO, logger="matchdna.pipeline"):
            run_stage("train-fmaca", config, out)
        window = config["train_fmaca"]["window"]
        _games, players = pipeline._load_corpus(
            out, load_manifest(out / "manifest.json"))
        samples = set(pipeline._motif_windows(window)
                      + pipeline._corpus_windows(players, window))
        labels_of = {}
        for text, label in samples:
            labels_of.setdefault(text, Counter())[label] += 1
        # a text seen with both labels costs one window
        ceiling = sum(max(c.values()) for c in labels_of.values()) / len(samples)
        assert ceiling < 1.0
        tree = load_tree(out / "fmaca" / "tree.json")
        assert (f"on {len(samples)} windows (purity ceiling {ceiling:.3f}), "
                f"{tree.node_count()} tree nodes" in caplog.text)


    def test_train_fmaca_logs_generations_run(self, mined_dir, tmp_path,
                                              caplog):
        out = tmp_path / "run"
        shutil.copytree(mined_dir, out)
        config = smoke_config(out)
        with caplog.at_level(logging.INFO, logger="matchdna.pipeline"):
            run_stage("train-fmaca", config, out)
        params, window = config["train_fmaca"], config["train_fmaca"]["window"]
        _games, players = pipeline._load_corpus(
            out, load_manifest(out / "manifest.json"))
        samples = list(dict.fromkeys(pipeline._motif_windows(window)
                                     + pipeline._corpus_windows(players, window)))
        ran = []
        tree = fit_window_classifier(
            [text for text, _label in samples],
            [label for _text, label in samples],
            ga=GaConfig(population_size=params["population_size"],
                        generations=params["generations"], rng_seed=params["seed"]),
            on_generation=lambda *g: ran.append(g))
        assert tree_to_dict(tree) == tree_to_dict(load_tree(out / "fmaca" / "tree.json"))
        assert (f"{tree.node_count()} tree nodes, {len(ran)} GA generations"
                in caplog.text)


@pytest.fixture(scope="module")
def mined_dir(tmp_path_factory):
    """A one-match corpus through simulate, encode and mine."""
    out = tmp_path_factory.mktemp("mined")
    config = smoke_config(out)
    for stage in ("simulate", "encode", "mine"):
        run_stage(stage, config, out)
    return out


class TestBoundaryChecks:
    """Files read between stages are checked where they are read; a
    tampered file fails with a ValueError naming it."""

    def copy(self, mined_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(mined_dir, out)
        return out, smoke_config(out)

    def fails(self, stage, config, out, match):
        with pytest.raises(StageError) as err:
            run_stage(stage, config, out)
        assert err.value.stage == stage
        assert isinstance(err.value.cause, (ValueError, FileNotFoundError))
        assert match in str(err.value.cause), str(err.value.cause)

    def edit_json(self, path, **changes):
        doc = json.loads(path.read_text())
        doc.update(changes)
        path.write_text(json.dumps(doc))

    def edit_fasta(self, path, edit):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")

    def test_untampered_corpus_loads(self, mined_dir):
        games, players = pipeline._load_corpus(
            mined_dir, load_manifest(mined_dir / "manifest.json"))
        assert len(games) == 1 and len(players) == 4
        assert all(len(p.letters) == len(games[0].letters) for p in players)

    def test_annotations_schema_version(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "annotations/m000.json", schema_version=2)
        self.fails("mine", config, out, "unsupported annotations schema_version")

    def test_mining_report_schema_version(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "mining/report.json", schema_version=2)
        self.fails("train-lcs", config, out,
                   "unsupported mining report schema_version")

    def test_missing_sequence_file(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        (out / "sequences/m000.fasta").unlink()
        for stage in ("mine", "train-fmaca", "train-lcs"):
            self.fails(stage, config, out, "manifest match m000 has no file "
                       f"{out / 'sequences/m000.fasta'}")

    def test_player_letter_outside_alphabet(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        # line 0 is the schema header, 1-2 the game, 3-4 the first player
        self.edit_fasta(out / "sequences/m000.fasta",
                        lambda lines: lines[:4] + ["X" + lines[4][1:]] + lines[5:])
        self.fails("mine", config, out, "m000.fasta: player:a@game:m000 has "
                   "letters outside 'ACGT-'")

    def test_player_length_differs_from_game(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_fasta(out / "sequences/m000.fasta",
                        lambda lines: lines[:4] + [lines[4][:-1]] + lines[5:])
        self.fails("mine", config, out, "m000.fasta: player:a@game:m000 has "
                   "19 windows, its game 20")

    def test_first_sequence_must_be_game(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_fasta(out / "sequences/m000.fasta",
                        lambda lines: lines[:1] + lines[3:5] + lines[1:3] + lines[5:])
        self.fails("mine", config, out,
                   "m000.fasta: the first sequence is not a game")

    def test_annotation_window_cycles_differs_from_manifest(self, mined_dir,
                                                             tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        assert load_manifest(out / "manifest.json").window_cycles == 10
        self.edit_json(out / "annotations/m000.json", window_cycles=20)
        self.fails("mine", config, out, "m000.json: window_cycles 20 does not "
                   "match the manifest's 10")

    @pytest.mark.parametrize("window", [20, -1])
    def test_event_window_outside_game(self, mined_dir, tmp_path, window):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "annotations/m000.json", events=[[window, GOAL]])
        self.fails("train-fmaca", config, out,
                   f"m000.json: event window {window} is outside "
                   "the game's 20 windows")


class TestBuildCorpus:
    """A corpus is built by the simulate stage followed by encode."""

    def build(self, tmp_path, file_config):
        config = resolve_config({**file_config, "out_dir": str(tmp_path)})
        for stage in ("simulate", "encode"):
            run_stage(stage, config, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        manifest.validate(tmp_path)
        return manifest

    def test_single_match_manifest(self, tmp_path):
        manifest = self.build(tmp_path, {"seed": 3, "simulate": {
            "matches": 1, "cycles": 120}})
        assert manifest.entries == ["m000"]
        for path in match_paths(tmp_path, "m000"):
            assert path.exists()

    def test_reencode_rewrites_deleted_files(self, tmp_path):
        file_config = {"seed": 3, "simulate": {"matches": 1, "cycles": 120}}
        self.build(tmp_path, file_config)
        paths = match_paths(tmp_path, "m000")
        before = [paths.sequence.read_bytes(), paths.annotations.read_bytes()]
        paths.sequence.unlink()
        paths.annotations.unlink()
        config = resolve_config({**file_config, "out_dir": str(tmp_path)})
        run_stage("encode", config, tmp_path)
        assert [paths.sequence.read_bytes(),
                paths.annotations.read_bytes()] == before

    def test_seeds_offset_from_master(self, tmp_path):
        self.build(tmp_path, {"seed": 11, "simulate": {"matches": 2,
                                                       "cycles": 60}})
        logs = [load_match_log(tmp_path / f"logs/m{i:03d}.jsonl")
                for i in range(2)]
        assert logs[0].config.rng_seed == 11
        assert logs[1].config.rng_seed == 12

    def test_annotation_count_matches_goal_events(self, tmp_path):
        self.build(tmp_path, {"seed": 7, "simulate": {"matches": 1,
                                                      "cycles": 200}})
        log = load_match_log(tmp_path / "logs/m000.jsonl")
        goals = [e for e in log.events if e.kind == "goal"]
        doc = json.loads((tmp_path / "annotations/m000.json").read_text())
        goal_events = [e for e in doc["events"] if e[1] == GOAL]
        assert len(goal_events) == len(goals)

    def test_pinned_corpus_at_default_cycle_count(self, tmp_path):
        # SHA-256 of every log, sequence and annotation file of 2 matches at
        # the default 1000 cycles, recorded once and kept; the 200- and
        # 300-cycle matches of test_simulator's pins are shorter than one
        # default match
        self.build(tmp_path, {"seed": 5, "simulate": {"matches": 2}})
        digests = {str(p.relative_to(tmp_path)):
                   hashlib.sha256(p.read_bytes()).hexdigest()
                   for pattern in ("logs/*.jsonl", "sequences/*.fasta",
                                   "annotations/*.json")
                   for p in sorted(tmp_path.glob(pattern))}
        assert digests == PINNED_CORPUS


class TestCli:
    def test_pipeline_subcommand_exit_zero(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(
            {**SMOKE, "out_dir": str(tmp_path / "run")}))
        assert main(["pipeline", "--config", str(config_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(pipeline.STAGES)

    def test_stage_failure_names_stage_and_exits_nonzero(self, tmp_path,
                                                         capsys):
        code = main(["mine", "--out-dir", str(tmp_path / "nothing")])
        assert code == 1
        assert "mine" in capsys.readouterr().err

    def test_fca_run_prints_trajectory(self, capsys):
        code = main(["fca-run", "--rules", "238,254,238,252",
                     "--state", "0.8,0.2,0.2,0.0", "--deps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P(4) = (1.00, 1.00, 1.00, 1.00)" in out
        assert "fixed point at step 4" in out
        assert "1100" in out and "1110" in out and "0011" in out

    def test_motifs_lists_tables(self, capsys):
        assert main(["motifs"]) == 0
        out = capsys.readouterr().out
        assert "TCCCT" in out and "CCACC" in out

    def test_motifs_template_scan(self, capsys):
        assert main(["motifs", "--template", "xxCCT",
                     "--letters", "TCCCTA"]) == 0
        assert "1 match(es)" in capsys.readouterr().out

    def test_train_lcs_quick_on_corpus(self, mined_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(mined_dir, out)
        code = main(["train-lcs", "--iters", "2000", "--seed", "11",
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "lcs/curve.csv").exists()
        assert "proportion_correct" in capsys.readouterr().out

    def test_env_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(["train-lcs", "--env", "oracle"])
        assert "unrecognized arguments: --env" in capsys.readouterr().err

    def test_feedback_on_trained_tree(self, pipeline_dir, capsys):
        out, _config, _artifacts = pipeline_dir
        code = main(["feedback", "--out-dir", str(out),
                     "--letters", "TCCCT"])
        assert code == 0
        verdict = capsys.readouterr().out.strip()
        assert verdict in ("proceed", "veto")

    def test_unknown_config_key_reported(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text('{"nope": 1}')
        code = main(["pipeline", "--config", str(config_path)])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_removed_config_key_reported(self, tmp_path, capsys):
        config_path = tmp_path / "old.json"
        config_path.write_text('{"train_lcs": {"bid_fraction": 0.2}}')
        code = main(["train-lcs", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert ("unknown config key 'train_lcs.bid_fraction'"
                in capsys.readouterr().err)

    def test_every_stage_subcommand_summary(self, tmp_path, capsys):
        # expected lines recorded before the stage subcommands shared one
        # handler; every stage flag is given so each flag-to-key mapping
        # shows in an artifact or a summary line
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "seed": 5, "simulate": {"matches": 2, "cycles": 100},
            "train_fmaca": {"population_size": 20, "generations": 10},
            "diagnose": {"run_steps": 120, "trials": 3}}))
        out = tmp_path / "run"
        common = ["--config", str(config_path), "--out-dir", str(out)]
        runs = [
            (["simulate", "--matches", "2", "--cycles", "150", "--players", "2"],
             [f"wrote {out}/manifest.json"]),
            (["encode", "--window", "10"], [f"wrote {out}/manifest.json"]),
            (["mine", "--min-len", "2", "--max-len", "4", "--top", "10"],
             ["  goal TCCCT  band   95: 0.0%",
              "  goal CACCT  band   75: 0.0%",
              "  goal CxCCT  band   50: 0.0%",
              "  goal CCAT   band  <50: 0.0%",
              "threat CTCCC  band   95: 0.0%",
              "threat CCACC  band   75: 0.0%",
              "threat CCxCC  band   50: 0.0%",
              "threat GCAC   band  <50: 0.0%",
              f"wrote {out}/mining/report.json"]),
            (["train-fmaca"],
             ["training accuracy 1.000 on 14 windows (depth 4)",
              f"wrote {out}/fmaca/tree.json"]),
            (["train-lcs", "--iters", "1500", "--ga-period", "500"],
             ["proportion_correct 0.506 at iteration 1500",
              f"wrote {out}/lcs/curve.csv"]),
            (["diagnose", "--cells", "6", "--generations", "2"],
             ["edge-of-chaos entropy reference: 0.84",
              f"wrote {out}/diagnostics/ga_diagnostics.csv"]),
        ]
        for argv, expected in runs:
            assert main(argv + common) == 0, argv
            captured = capsys.readouterr()
            assert captured.out.splitlines() == expected, argv
            assert captured.err == ""
        report = json.loads((out / "mining/report.json").read_text())
        assert report["query"] == {"min_len": 2, "max_len": 4}
        assert len(report["patterns"]) == 10
        assert len(list((out / "logs").glob("*.jsonl"))) == 2
        rows = (out / "diagnostics/ga_diagnostics.csv").read_text().splitlines()
        assert rows[2:] and all(row.split(",")[1] == "6" for row in rows[2:])

    def test_individual_stage_subcommands(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["simulate", "--matches", "1", "--cycles", "120",
                     "--seed", "5", "--out-dir", out]) == 0
        assert main(["encode", "--out-dir", out]) == 0
        assert main(["mine", "--out-dir", out]) == 0
        report = json.loads((tmp_path / "run/mining/report.json").read_text())
        assert report["schema_version"] == 1
