"""Tests for the file-based pipeline stages and the CLI wiring."""

import hashlib
import json
import logging
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from matchdna import cli, pipeline
from matchdna.attractor_tree import (
    GaConfig,
    fit_window_classifier,
    load_tree,
    tree_to_dict,
)
from matchdna.classifier_system import (
    LcsConfig,
    SequenceReplayEnvironment,
    train,
)
from matchdna.cli import build_parser, main
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
from matchdna.shooting import LETTER_HISTORY, ShootingPolicy
from matchdna.simulator import (
    AWAY,
    FIELD_LENGTH,
    HOME,
    FieldConfig,
    MatchEvent,
    MatchLog,
    load_match_log,
    run_match,
)
from test_simulator import body_digest, simulation_digest

SMOKE = {
    "seed": 7,
    "simulate": {"matches": 1, "cycles": 200},
    "train_lcs": {"iters": 3000},
    "diagnose": {"generations": 3, "run_steps": 120, "trials": 3},
}

# the corpus of TestBuildCorpus.test_pinned_corpus_at_default_cycle_count
PINNED_CORPUS = {
    "logs/m000.jsonl":
        "40fc4b0c167f28163a9bb11e023d0427f37cdc90e558c7c634c74e4bf74b3113",
    "logs/m001.jsonl":
        "83460935675a59718eb427092d2e59bb0d3e76cddbea331fcc05c19e7c6f68e1",
    "sequences/m000.fasta":
        "820184a0cb192f96dbdc940b6ea17bddb069a572d74953c5f26597698bc3368d",
    "sequences/m001.fasta":
        "91a1dbc0a0eae5583938d77d850b9f2e9c90495b839cf47c9d5e3e8fee03154d",
    "annotations/m000.json":
        "a9da0785cb00f7a567f5524ba119a33414a9d9c87f91abe18eb1cbabf2960c85",
    "annotations/m001.json":
        "39e09091bc5c2f2fe6a081f96824a3518976bc4f425b82995d40e634d87cfa28",
}
# the same logs' lines after the header (test_simulator.body_digest)
PINNED_LOG_BODIES = {
    "logs/m000.jsonl":
        "dbda76d39c862bc2d5f9de7d341d1dfa2ee4f8ae15ff46b5afdd4dafde2e89bc",
    "logs/m001.jsonl":
        "c2fe2a56ec9a09985ad2dfd61a0e5d5953de3cb3fb3d923f81f90c3c1596d048",
}
# the same logs' values as load_match_log returns them
# (test_simulator.simulation_digest), which no change of log format moves
PINNED_SIMULATION = {
    "logs/m000.jsonl":
        "613c9aa628d767008f2c561dd9efa873ba1ca235db6930c8ae88d096e519d9a1",
    "logs/m001.jsonl":
        "d116645fbe6e86957e8a9d6befee7e7cee6b17473726b7a1cf0e9a3a81556bb1",
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
        ("diagnose", "window"), ("mine", "min_len"), ("mine", "max_len"),
        ("diagnose", "n_cells")])
    def test_removed_key_rejected(self, section, key):
        # the learners' own defaults hold these values; a config that sets
        # one is refused rather than silently ignored
        with pytest.raises(ValueError,
                           match=f"unknown config key '{section}.{key}'"):
            resolve_config({section: {key: 1}})

    @pytest.mark.parametrize("section, key", [
        (None, "seed"), ("simulate", "master_seed"), ("train_fmaca", "seed"),
        ("train_lcs", "seed"), ("diagnose", "seed")])
    @pytest.mark.parametrize("value", [1.9, True, "7"])
    def test_non_integer_seed_rejected_by_name(self, section, key, value):
        # int() would turn 1.9 into seed 1 and True into seed 1
        given = {key: value} if section is None else {section: {key: value}}
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError) as err:
            resolve_config(given)
        assert str(err.value) == f"{name} must be an integer, got {value!r}"


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

    @pytest.mark.parametrize("match_id", ["", ".", "..", "../logs/m000",
                                          "logs/m000", "logs\\m000"])
    def test_match_id_not_a_plain_name_refused(self, tmp_path, match_id):
        path = tmp_path / "manifest.json"
        save_manifest(CorpusManifest(entries=["m000", match_id]), path)
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value) == (f"{path}: match id {match_id!r} is not a "
                                  f"plain file name")

    def test_encode_writes_nothing_outside_its_directories(self, tmp_path):
        # after one encode, an entry ../logs/m000 passed every check, and
        # encode wrote logs/m000.fasta and logs/m000.json beside the log
        config = smoke_config(tmp_path)
        for stage in ("simulate", "encode"):
            run_stage(stage, config, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        manifest.entries = ["../logs/m000"]
        save_manifest(manifest, tmp_path / "manifest.json")
        with pytest.raises(StageError) as err:
            run_stage("encode", config, tmp_path)
        assert str(err.value.cause) == (
            f"{tmp_path / 'manifest.json'}: match id '../logs/m000' is not a "
            f"plain file name")
        logs = [p.name for p in (tmp_path / "logs").iterdir()]
        assert logs == ["m000.jsonl"]


class TestAnnotateLog:
    def run_small_match(self, seed=3):
        config = FieldConfig(cycle_count=150, rng_seed=seed)
        return run_match(ShootingPolicy(HOME), ShootingPolicy(AWAY), config)

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
        ball_x = log.per_cycle_states[:, -4]
        ball_x[2] = FIELD_LENGTH / 2 - 5.0  # deep in the attacking third
        assert (0, THREAT) in annotate_log(log, 10)
        ball_x[2] = 0.0  # midfield kick: no threat
        assert annotate_log(log, 10) == []

    def test_threat_windows_deduplicated(self):
        config = FieldConfig(cycle_count=5, rng_seed=0)
        log = run_match(None, None, config)
        log.events = [MatchEvent(cycle=1, kind="kick", agent="a", effective=True),
                      MatchEvent(cycle=2, kind="kick", agent="a", effective=True)]
        log.per_cycle_states[1:3, -4] = FIELD_LENGTH / 2 - 1.0  # the ball's x
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
        assert json.loads(first)["schema_version"] == 4

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

    @pytest.mark.parametrize("stage, section, key, value, bound", [
        ("encode", "encode", "window_cycles", 0, ">= 1"),
        ("mine", "mine", "top_patterns", -1, ">= 0"),
        ("mine", "mine", "lookback", 4, ">= 5"),  # the longest motif template
        ("train-fmaca", "train_fmaca", "window", 0, ">= 1"),
        ("train-fmaca", "train_fmaca", "population_size", 1, ">= 2"),
        ("train-fmaca", "train_fmaca", "generations", 0, ">= 1"),
        ("train-lcs", "train_lcs", "iters", 0, ">= 1"),
        ("train-lcs", "train_lcs", "ga_period", 0, ">= 1"),
        ("simulate", "simulate", "cycles", 0, ">= 1"),
        ("simulate", "simulate", "players_per_team", 0, ">= 1"),
        ("simulate", "simulate", "players_per_team", 14, "<= 13"),
        ("diagnose", "diagnose", "population_size", 1, ">= 2"),
        ("diagnose", "diagnose", "generations", 0, ">= 1"),
        ("diagnose", "diagnose", "run_steps", 5, ">= 10"),
        ("diagnose", "diagnose", "trials", 0, ">= 1"),
        ("simulate", "simulate", "master_seed", -1, ">= 0"),
        ("train-fmaca", "train_fmaca", "seed", -1, ">= 0"),
        ("train-lcs", "train_lcs", "seed", -1, ">= 0"),
        ("diagnose", "diagnose", "seed", -1, ">= 0")])
    def test_out_of_range_value_fails_before_any_work(self, tmp_path, stage,
                                                      section, key, value,
                                                      bound):
        # an empty directory: the value is refused before the stage reads
        # its inputs or creates a directory
        config = smoke_config(tmp_path)
        config[section][key] = value
        with pytest.raises(StageError) as err:
            run_stage(stage, config, tmp_path)
        assert isinstance(err.value.cause, ValueError)
        assert f"{section}.{key} must be {bound}, got {value}" in str(err.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage, section, key", [
        ("simulate", "simulate", "matches"),
        ("encode", "encode", "window_cycles"),
        ("mine", "encode", "window_cycles"),  # checked against the manifest
        ("mine", "mine", "lookback"),
        ("train-fmaca", "train_fmaca", "generations"),
        ("train-lcs", "train_lcs", "iters"),
        ("train-lcs", "train_lcs", "ga_period"),
        ("diagnose", "diagnose", "trials"),
        # seeds of a config edited after resolve_config
        ("simulate", "simulate", "master_seed"),
        ("train-fmaca", "train_fmaca", "seed"),
        ("train-lcs", "train_lcs", "seed"),
        ("diagnose", "diagnose", "seed")])
    @pytest.mark.parametrize("value", [2.7, 2.0, True, "abc"])
    def test_non_integer_value_fails_by_name_before_any_work(
            self, tmp_path, stage, section, key, value):
        # int() would run 2 matches for 2.7, 1 for true, and fail on "abc"
        # naming no key
        config = smoke_config(tmp_path)
        config[section][key] = value
        with pytest.raises(StageError) as err:
            run_stage(stage, config, tmp_path)
        assert isinstance(err.value.cause, ValueError)
        assert (f"{section}.{key} must be an integer, got {value!r}"
                in str(err.value))
        assert list(tmp_path.iterdir()) == []

    def test_later_stage_setting_fails_first_stage_before_any_work(
            self, tmp_path):
        # every setting is checked before the first stage run, not only
        # when the stage that reads it comes
        config = smoke_config(tmp_path)
        config["diagnose"]["trials"] = 0
        with pytest.raises(StageError) as err:
            run_stage("simulate", config, tmp_path)
        assert err.value.stage == "simulate"
        assert "diagnose.trials must be >= 1, got 0" in str(err.value)
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
        assert "mine.lookback must be >= 5, got 3" in str(err.value)

    def test_failed_stage_leaves_prior_artifacts(self, tmp_path):
        config = smoke_config(tmp_path)
        run_stage("simulate", config, tmp_path)
        log_bytes = (tmp_path / "logs/m000.jsonl").read_bytes()
        with pytest.raises(StageError):
            run_stage("mine", config, tmp_path)  # encode never ran
        assert (tmp_path / "logs/m000.jsonl").read_bytes() == log_bytes

    def test_aborted_match_names_cause_and_cycle(self, tmp_path, monkeypatch):
        class FailsAtCycle:
            def __init__(self, team):
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

    def test_log_marked_invalid_fails_encode_naming_match_and_error(
            self, tmp_path):
        # simulate never writes an aborted match's log, but a log copied
        # in from elsewhere may be one; its rows stop where the match did
        config = smoke_config(tmp_path)
        run_stage("simulate", config, tmp_path)
        path = match_paths(tmp_path, "m000").log
        lines = path.read_text().splitlines()
        error = {"cycle": 12, "message": "policy lost the ball",
                 "type": "ValueError"}
        lines[-1] = json.dumps({**json.loads(lines[-1]), "valid": False,
                                "error": error})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StageError) as err:
            run_stage("encode", config, tmp_path)
        assert err.value.stage == "encode"
        assert str(err.value.cause) == (f"match m000: {path} is marked "
                                        f"invalid: {error}")
        assert not match_paths(tmp_path, "m000").sequence.exists()

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
        rows = (tmp_path / "lcs/population.csv").read_text().splitlines()
        assert rows[:2] == ["# schema_version=1", "condition,action,strength"]
        assert len(rows[2:]) == LcsConfig().population_size

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

    def edit_json(self, path, drop=(), **changes):
        doc = json.loads(path.read_text())
        doc.update(changes)
        for key in drop:
            del doc[key]
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

    @pytest.mark.parametrize("event, problem", [
        ([2.7, GOAL], "event window must be an integer, got 2.7"),
        (["3", GOAL], "event window must be an integer, got '3'"),
        ([True, GOAL], "event window must be an integer, got True"),
        ([3, "foul"], "event label 'foul' is neither 'goal' nor 'threat'"),
        ([3], "events must be a list of [window, label] pairs, got [[3]]"),
        ([3, GOAL, 1], "events must be a list of [window, label] pairs, "
         "got [[3, 'goal', 1]]"),
        ("3g", "events must be a list of [window, label] pairs, "
         "got ['3g']")])
    def test_malformed_event_refused(self, mined_dir, tmp_path, event, problem):
        # int() would load 2.7 as window 2 and "3" as 3
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "annotations/m000.json", events=[event])
        self.fails("mine", config, out, f"m000.json: {problem}")

    def test_annotations_without_events_refused(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "annotations/m000.json", drop=["events"])
        self.fails("mine", config, out,
                   "m000.json: annotations has no 'events' key")

    @pytest.mark.parametrize("key", ["entries", "window_cycles", "created_at"])
    def test_manifest_key_missing_refused(self, mined_dir, tmp_path, key):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "manifest.json", drop=[key])
        for stage in ("encode", "mine"):
            self.fails(stage, config, out,
                       f"manifest.json: manifest has no {key!r} key")

    @pytest.mark.parametrize("patterns, problem", [
        ([["CC", 2.7]], "pattern count must be an integer, got 2.7"),
        ([["CC", "2"]], "pattern count must be an integer, got '2'"),
        ([["CC", True]], "pattern count must be an integer, got True"),
        ([[12345, 2]], "pattern 12345 is not a string"),
        ([["CC"]], "patterns must be a list of [pattern, count] pairs, "
         "got [['CC']]"),
        ({"CC": 2}, "patterns must be a list of [pattern, count] pairs, "
         "got {'CC': 2}")])
    def test_malformed_mined_pattern_refused(self, mined_dir, tmp_path,
                                             patterns, problem):
        # str() and int() would load 12345 as "12345" and 2.7 as 2
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "mining/report.json", patterns=patterns)
        self.fails("train-lcs", config, out, f"report.json: {problem}")

    def test_mining_report_without_patterns_refused(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "mining/report.json", drop=["patterns"])
        self.fails("train-lcs", config, out,
                   "report.json: mining report has no 'patterns' key")

    @pytest.mark.parametrize("changes, problem", [
        ({"entries": "m000"},
         "entries must be a list of match id strings, got 'm000'"),
        ({"entries": [["m000"]]},
         "entries must be a list of match id strings, got [['m000']]"),
        ({"entries": {"m000": 1}},
         "entries must be a list of match id strings, got {'m000': 1}"),
        ({"window_cycles": 2.7},
         "window_cycles must be an integer, got 2.7"),
        ({"window_cycles": "10"},
         "window_cycles must be an integer, got '10'"),
        ({"window_cycles": True},
         "window_cycles must be an integer, got True")])
    def test_malformed_manifest_refused(self, mined_dir, tmp_path, changes,
                                        problem):
        out, config = self.copy(mined_dir, tmp_path)
        self.edit_json(out / "manifest.json", **changes)
        for stage in ("encode", "mine"):
            self.fails(stage, config, out, f"manifest.json: {problem}")

    # every JSON file a run reads: a run config, a stage artifact (through
    # the reader the manifest, annotations and mining report share) and a
    # trained tree
    READERS = {"config": pipeline.load_config_file, "manifest": load_manifest,
               "tree": load_tree}

    @pytest.mark.parametrize("what", READERS)
    @pytest.mark.parametrize("text, problem", [
        ('{"seed": 1', "{what} is not valid JSON: Expecting ',' delimiter"),
        ("[]", "{what} must be a JSON object, got list"),
        ('"abc"', "{what} must be a JSON object, got str"),
        ('{"schema_version": 99}', "unsupported {what} schema_version 99"),
        ("\xff", "{what} is not valid JSON: ")])
    def test_json_file_refused_naming_it(self, tmp_path, what, text, problem):
        path = tmp_path / f"{what}.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError) as err:
            self.READERS[what](path)
        wanted = f"{path}: {problem.format(what=what)}"
        assert str(err.value).startswith(wanted)

    def test_annotations_not_an_object_refused(self, mined_dir, tmp_path):
        out, config = self.copy(mined_dir, tmp_path)
        (out / "annotations/m000.json").write_text("[1, 2]")
        self.fails("mine", config, out, "annotations/m000.json: annotations "
                   "must be a JSON object, got list")

    @pytest.mark.parametrize("argv", [
        ["mine", "--config"], ["feedback", "--letters", "TCCCT", "--tree"]])
    def test_cli_names_the_refused_file(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        assert main(argv + [str(path), "--out-dir", str(tmp_path)]) == 1
        assert f"error: {path}: " in capsys.readouterr().err


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
        bodies = {rel: body_digest((tmp_path / rel).read_text())
                  for rel in PINNED_LOG_BODIES}
        values = {rel: simulation_digest(load_match_log(tmp_path / rel))
                  for rel in PINNED_SIMULATION}
        assert values == PINNED_SIMULATION
        assert bodies == PINNED_LOG_BODIES
        assert digests == PINNED_CORPUS



def usable_cpus(monkeypatch, count: int):
    """Let the stages see `count` CPUs to spread matches over."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


# from Python 3.12 on os.fork warns in a process that runs a thread, so
# the stages run every match in the calling process there
FORK_WARNS = sys.version_info >= (3, 12)


def _running(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _die_in_worker(parent_pid: int):
    """Kill the calling process unless it is `parent_pid`."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)


class TestParallelStages:
    """simulate and encode spread matches over the usable CPUs; the worker
    count moves no byte and no error, and no worker outlives a stage."""

    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path,
                                                      monkeypatch, caplog):
        # each process that simulates or encodes a match appends its pid
        pid_file = tmp_path / "pids"

        def recording(function):
            def wrapper(*args):
                with open(pid_file, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return function(*args)
            return wrapper
        for name in ("run_match", "load_match_log"):
            monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))

        runs = {}
        for count in (1, 2):
            usable_cpus(monkeypatch, count)
            out = tmp_path / f"workers-{count}"
            config = resolve_config({"seed": 4, "out_dir": str(out),
                                     "simulate": {"matches": 3, "cycles": 300}})
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="matchdna.pipeline"):
                for stage in ("simulate", "encode"):
                    run_stage(stage, config, out)
                    assert multiprocessing.active_children() == []
            pids = pid_file.read_text().split()
            pid_file.unlink()
            assert len(pids) == 6
            if count == 1 or FORK_WARNS:
                assert set(pids) == {str(os.getpid())}
            else:
                assert str(os.getpid()) not in pids
            manifest = json.loads((out / "manifest.json").read_text())
            runs[count] = (
                {str(p.relative_to(out)): p.read_bytes()
                 for folder in ("logs", "sequences", "annotations")
                 for p in sorted((out / folder).iterdir())},
                manifest["entries"], manifest["window_cycles"],
                [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("simulated")])
        files, entries, window_cycles, simulated = runs[1]
        assert len(files) == 9
        assert entries == ["m000", "m001", "m002"]
        assert window_cycles == 10
        assert [line.split(":")[0] for line in simulated] == [
            "simulated m000", "simulated m001", "simulated m002"]
        assert runs[2] == runs[1]

    @pytest.mark.parametrize("cpus, matches, workers",
                             [(1, 3, 1), (2, 3, 2), (4, 3, 3), (2, 1, 1), (2, 0, 0)])
    def test_worker_count_follows_cpus_and_matches(self, monkeypatch, cpus,
                                                   matches, workers):
        monkeypatch.setattr(sys, "version_info", (3, 11, 0))
        usable_cpus(monkeypatch, cpus)
        assert pipeline._worker_count(matches) == workers

    def test_python_3_12_runs_matches_in_this_process(self, monkeypatch):
        monkeypatch.setattr(sys, "version_info", (3, 12, 0))
        usable_cpus(monkeypatch, 4)
        assert pipeline._worker_count(3) == 1
        assert pipeline._map_matches(os.getpid, [(), (), ()]) == [os.getpid()] * 3
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(FORK_WARNS, reason="matches run in this process")
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        def waited_too_long(signum, frame):
            raise TimeoutError("a dead worker left the stage waiting")
        previous = signal.signal(signal.SIGALRM, waited_too_long)
        signal.alarm(60)
        usable_cpus(monkeypatch, 2)
        try:
            with pytest.raises(BrokenProcessPool):
                pipeline._map_matches(_die_in_worker,
                                      [(os.getpid(),), (os.getpid(),)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not Path("/proc/self").exists(),
                        reason="reads process states from /proc")
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        # a child maps a sleeping function on two forced workers, each
        # writing its pid first; SIGKILL gives the child no chance to
        # shut its pool down, so only the workers themselves can exit
        code = textwrap.dedent(f"""
            import os, time
            from pathlib import Path
            from matchdna import pipeline
            pipeline._worker_count = lambda matches: 2
            def nap(path):
                Path(path).write_text(str(os.getpid()))
                time.sleep(60)
            pipeline._map_matches(nap, [({str(tmp_path / "a")!r},),
                                        ({str(tmp_path / "b")!r},)])
            """)
        src = str(Path(pipeline.__file__).parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src + os.pathsep
                 + os.environ.get("PYTHONPATH", "")})
        paths = [tmp_path / "a", tmp_path / "b"]
        pids = []
        try:
            deadline = time.monotonic() + 30
            while not all(p.exists() and p.read_text() for p in paths):
                assert child.poll() is None, "the child exited early"
                assert time.monotonic() < deadline, "no worker started"
                time.sleep(0.05)
            pids = [int(p.read_text()) for p in paths]
            assert child.pid not in pids and pids[0] != pids[1]
            child.kill()
            child.wait()
            deadline = time.monotonic() + 5
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids)), pids
        finally:
            child.kill()
            child.wait()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("count", [1, 2])
    def test_simulate_failure_names_first_failing_match(
            self, tmp_path, monkeypatch, count):
        # m001 aborts at cycle 3, long before m000 at cycle 199, so with two
        # workers m001's error comes back first; the stage still names m000
        fail_at = {7: 199, 8: 3}  # by rng seed; the smoke master seed is 7

        class FailsAtCycle:
            def __init__(self, cycle):
                self.cycle = cycle

            def act(self, agent_id, perceptions, cycle):
                if cycle == self.cycle:
                    raise ValueError("policy lost the ball")
                return None

        def failing_match(home, away, field_config):
            policy = FailsAtCycle(fail_at[field_config.rng_seed])
            return run_match(policy, policy, field_config)
        monkeypatch.setattr(pipeline, "run_match", failing_match)
        usable_cpus(monkeypatch, count)
        config = smoke_config(tmp_path)
        config["simulate"]["matches"] = 2
        with pytest.raises(StageError) as err:
            run_stage("simulate", config, tmp_path)
        assert str(err.value.cause) == ("match m000 aborted at cycle 199: "
                                        "ValueError: policy lost the ball")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count", [1, 2])
    def test_encode_failure_names_first_failing_log(
            self, tmp_path, monkeypatch, count):
        config = smoke_config(tmp_path)
        config["simulate"]["matches"] = 2
        run_stage("simulate", config, tmp_path)
        # m000's log goes wrong at its last cycle row, m001's at its first
        for match_id, line in (("m000", 201), ("m001", 2)):
            path = match_paths(tmp_path, match_id).log
            lines = path.read_text().splitlines()
            row = json.loads(lines[line - 1])
            lines[line - 1] = json.dumps(row[:-1] + [[{"kind": "teleport"}]])
            path.write_text("\n".join(lines) + "\n")
        usable_cpus(monkeypatch, count)
        with pytest.raises(StageError) as err:
            run_stage("encode", config, tmp_path)
        assert str(err.value.cause) == (
            f"match log {match_paths(tmp_path, 'm000').log} line 201: "
            "event kind 'teleport' is not one of ['goal', 'idle', 'kick', "
            "'move', 'pass_completed', 'possession_change', 'turn']")
        assert multiprocessing.active_children() == []

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

    @pytest.mark.parametrize("command", [
        ["pipeline"], ["mine", "--top", "4"], ["feedback", "--letters", "AC"]])
    def test_global_flags_before_or_after_the_subcommand(self, tmp_path,
                                                         command):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(SMOKE))
        flags = ["--config", str(config_path), "--seed", "5",
                 "--out-dir", str(tmp_path / "x"), "--verbose"]
        before = build_parser().parse_args(flags + command)
        after = build_parser().parse_args(command[:1] + flags + command[1:])
        assert vars(before) == vars(after)
        assert before.verbose
        config = cli._resolve(before)
        assert config == cli._resolve(after)
        assert (config["seed"], config["out_dir"]) == (5, str(tmp_path / "x"))
        assert config["simulate"]["matches"] == SMOKE["simulate"]["matches"]

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

    @pytest.mark.parametrize("stage, flag", [
        ("mine", "--min-len"), ("mine", "--max-len"), ("diagnose", "--cells")])
    def test_constant_setting_flags_removed(self, stage, flag, capsys):
        # the mined lengths and the diagnosed width are constants
        with pytest.raises(SystemExit):
            main([stage, flag, "4"])
        assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err

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

    def test_pipeline_bad_setting_writes_nothing(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(
            {"diagnose": {"trials": 0}, "simulate": {"matches": 1, "cycles": 50}}))
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(config_path),
                     "--out-dir", str(out)])
        assert code == 1
        assert "diagnose.trials must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_out_dir_reported(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text('{"out_dir": 5}')
        code = main(["pipeline", "--config", str(config_path)])
        assert code == 1
        assert "out_dir must be a string, got 5" in capsys.readouterr().err

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
        # shows in an artifact or a summary line.  The diagnose GA of 2
        # at seed 53 runs 5 generations before it stops, so --generations
        # 2 shows as 2 CSV rows
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "seed": 5, "simulate": {"matches": 2, "cycles": 100},
            "train_fmaca": {"population_size": 20, "generations": 10},
            "diagnose": {"run_steps": 120, "trials": 3, "population_size": 2,
                         "generations": 5, "seed": 53}}))
        out = tmp_path / "run"
        common = ["--config", str(config_path), "--out-dir", str(out)]
        runs = [
            (["simulate", "--matches", "2", "--cycles", "150", "--players", "2"],
             [f"wrote {out}/manifest.json"]),
            (["encode", "--window", "10"], [f"wrote {out}/manifest.json"]),
            (["mine", "--top", "10"],
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
             # the LCS is seeded with patterns mined at the constant lengths 2-5
             ["proportion_correct 0.464 at iteration 1500",
              f"wrote {out}/lcs/curve.csv"]),
            (["diagnose", "--generations", "2"],
             ["edge-of-chaos entropy reference: 0.84",
              f"wrote {out}/diagnostics/ga_diagnostics.csv"]),
        ]
        for argv, expected in runs:
            assert main(argv + common) == 0, argv
            captured = capsys.readouterr()
            assert captured.out.splitlines() == expected, argv
            assert captured.err == ""
        report = json.loads((out / "mining/report.json").read_text())
        assert report["query"] == {"min_len": 2, "max_len": 5}
        assert len(report["patterns"]) == 10
        assert len(list((out / "logs").glob("*.jsonl"))) == 2
        rows = (out / "diagnostics/ga_diagnostics.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[2:]] == [["0", "8"], ["1", "8"]]

    def test_individual_stage_subcommands(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["simulate", "--matches", "1", "--cycles", "120",
                     "--seed", "5", "--out-dir", out]) == 0
        assert main(["encode", "--out-dir", out]) == 0
        assert main(["mine", "--out-dir", out]) == 0
        report = json.loads((tmp_path / "run/mining/report.json").read_text())
        assert report["schema_version"] == 1
