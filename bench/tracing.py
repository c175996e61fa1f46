"""Spans at the public entry points of each matchdna module, recorded from
outside the library by swapping the name a caller looks up for a wrapper.

A span is (name, start, end, parent, run id).  Spans are kept in flat
in-memory arrays while the traced operations run, turned into per-layer
metrics per run id, and written out once when the benchmark ends.
Counts that a wrapper can read off the call (rows stepped, bytes written,
distinct fitness inputs, ...) are taken at the same boundary.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from matchdna import (
    attractor_tree,
    classifier_system,
    diagnostics,
    fuzzy_ca,
    mining,
    pipeline,
    sequences,
    shooting,
    simulator,
)

LAYERS = ("fuzzy_ca", "simulator", "shooting", "sequences", "mining",
          "attractor_tree", "diagnostics", "classifier_system", "pipeline")


def _rows(state):
    return state.shape[0] if getattr(state, "ndim", 1) == 2 else 1


def _fitness_key(args):
    rules, patterns, labels = args[:3]
    h = hashlib.blake2b(digest_size=16)
    for part in (np.asarray(rules, dtype=np.int64),
                 np.asarray(patterns, dtype=float),
                 np.asarray(labels, dtype=np.int64)):
        h.update(np.ascontiguousarray(part).tobytes())
        h.update(repr(part.shape).encode())
    return h.digest()


def _count_fitness(tracer, args, kwargs, result):
    tracer.fitness_keys.add(_fitness_key(args))


def _count(metric, amount):
    def count(tracer, args, kwargs, result):
        tracer.counts[metric] += amount(args, kwargs, result)
    return count


def _count_report(tracer, args, kwargs, result):
    tracer.counts["mining.mine_report.rows"] += len(result.rows)
    tracer.counts["mining.mine_report.tandem_runs"] += len(result.tandem_runs)


# (span name, [(object, attribute) where callers look the function up],
#  optional count taken after the call returns)
def _wrap_points():
    return [
        ("fuzzy_ca.terminal_states",
         [(fuzzy_ca, "terminal_states"), (attractor_tree, "terminal_states")],
         _count("fuzzy_ca.terminal_states.rows", lambda a, k, r: len(a[0]))),
        ("fuzzy_ca.RuleSet.apply", [(fuzzy_ca.RuleSet, "apply")],
         _count("fuzzy_ca.RuleSet.apply.rows", lambda a, k, r: _rows(a[1]))),
        ("attractor_tree.fitness", [(attractor_tree, "fitness")], _count_fitness),
        ("attractor_tree.build_tree", [(attractor_tree, "build_tree")], None),
        ("attractor_tree.group_basins", [(attractor_tree, "group_basins")], None),
        ("attractor_tree.classify_batch",
         [(attractor_tree, "classify_batch"), (pipeline, "classify_batch")], None),
        ("simulator.run_match",
         [(simulator, "run_match"), (pipeline, "run_match")], None),
        ("simulator.World.step", [(simulator.World, "step")], None),
        ("simulator.World.snapshot", [(simulator.World, "snapshot")], None),
        ("simulator.World.submit_command", [(simulator.World, "submit_command")],
         None),
        ("simulator.World.deliver_perceptions",
         [(simulator.World, "deliver_perceptions")], None),
        ("shooting.ShootingPolicy.act", [(shooting.ShootingPolicy, "act")], None),
        ("simulator.save_match_log",
         [(simulator, "save_match_log"), (pipeline, "save_match_log")],
         _count("simulator.save_match_log.bytes",
                lambda a, k, r: os.path.getsize(a[1]))),
        ("simulator.load_match_log",
         [(simulator, "load_match_log"), (pipeline, "load_match_log")],
         _count("simulator.load_match_log.bytes",
                lambda a, k, r: os.path.getsize(a[0]))),
        ("sequences.encode_game",
         [(sequences, "encode_game"), (pipeline, "encode_game")],
         _count("sequences.windows", lambda a, k, r: len(r.letters))),
        ("sequences.encode_player",
         [(sequences, "encode_player"), (pipeline, "encode_player")], None),
        ("sequences.write_fasta", [(sequences, "write_fasta")], None),
        ("sequences.read_fasta", [(sequences, "read_fasta")], None),
        ("mining.mine_report", [(mining, "mine_report")],
         _count_report),
        ("mining.motif_occurrence_rate", [(mining, "motif_occurrence_rate")], None),
        ("classifier_system.train",
         [(classifier_system, "train"), (pipeline, "train")],
         _count("classifier_system.iterations",
                lambda a, k, r: a[1].max_iterations)),
        ("classifier_system.match_set", [(classifier_system, "match_set")], None),
        ("classifier_system.ga_discover", [(classifier_system, "ga_discover")],
         None),
        ("classifier_system.covering", [(classifier_system, "covering")], None),
        ("diagnostics.ga_diagnostics",
         [(diagnostics, "ga_diagnostics"), (pipeline, "ga_diagnostics")], None),
        ("diagnostics.measure_entropy", [(diagnostics, "measure_entropy")], None),
        ("diagnostics.measure_mi", [(diagnostics, "measure_mi")], None),
        ("diagnostics.rule_vector_diagnostics",
         [(diagnostics, "rule_vector_diagnostics")], None),
        # one span per stage: pipeline.<stage>
        (lambda args: f"pipeline.{args[0]}", [(pipeline, "run_stage")], None),
    ]


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the
    wrappers in and the original functions back."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("i")
        self._stack = []
        self._saved = []
        self.run_id = -1
        self.counts = Counter()
        self.fitness_keys = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span_name, fn, count):
        names, start, end = self.name, self.start, self.end
        parent, run, stack = self.parent, self.run, self._stack
        fixed_id = None if callable(span_name) else self._name_id(span_name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(start)
            names.append(fixed_id if fixed_id is not None
                         else tracer._name_id(span_name(args)))
            parent.append(stack[-1] if stack else -1)
            run.append(tracer.run_id)
            end.append(0)
            stack.append(index)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, run_id: int):
        """Start a traced operation with a fresh run id and fresh counts."""
        self.run_id = run_id
        self.counts = Counter()
        self.fitness_keys = set()
        for span_name, sites, count in _wrap_points():
            obj, attr = sites[0]
            original = getattr(obj, attr)
            wrapper = self._wrap(span_name, original, count)
            for obj, attr in sites:
                if getattr(obj, attr) is not original:
                    raise RuntimeError(f"{obj.__name__}.{attr} is not the "
                                       f"function {sites[0]} names")
                self._saved.append((obj, attr, obj.__dict__[attr]))
                setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved = []

    # ----- derived metrics ---------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.run, dtype=np.int32))

    def layer_metrics(self, run_id: int) -> dict:
        """Per-layer metrics of one traced operation (values, no units)."""
        name, start, end, parent, run = self._arrays()
        dur = (end - start) / 1e9
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        ids = {n: i for i, n in enumerate(self.names)}
        # a span is under diagnostics when it or an ancestor is a
        # diagnostics.* call; parents always precede their children
        diag_ids = [i for n, i in ids.items() if n.startswith("diagnostics.")]
        under = np.isin(name, diag_ids)
        up = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            spread = under | under[up]
            if np.array_equal(spread, under):
                break
            under = spread

        mine = run == run_id
        calls, total, own, diag_total = {}, {}, {}, {}
        for n, i in ids.items():
            sel = mine & (name == i)
            calls[n] = int(sel.sum())
            total[n] = float(dur[sel].sum())
            own[n] = float(self_time[sel].sum())
            diag_total[n] = float(dur[sel & under].sum())

        def g(table, n):
            return table.get(n, 0)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        fit_calls = g(calls, "attractor_tree.fitness")
        m = {
            "fuzzy_ca.terminal_states.calls": g(calls, "fuzzy_ca.terminal_states"),
            "fuzzy_ca.terminal_states.rows": c["fuzzy_ca.terminal_states.rows"],
            "fuzzy_ca.terminal_states.self_s": g(own, "fuzzy_ca.terminal_states"),
            "fuzzy_ca.terminal_states.diagnostics_share": rate(
                g(diag_total, "fuzzy_ca.terminal_states"),
                g(total, "fuzzy_ca.terminal_states")),
            "fuzzy_ca.RuleSet.apply.calls": g(calls, "fuzzy_ca.RuleSet.apply"),
            "fuzzy_ca.RuleSet.apply.rows": c["fuzzy_ca.RuleSet.apply.rows"],
            "fuzzy_ca.RuleSet.apply.s": g(total, "fuzzy_ca.RuleSet.apply"),
            "fuzzy_ca.RuleSet.apply.diagnostics_share": rate(
                g(diag_total, "fuzzy_ca.RuleSet.apply"),
                g(total, "fuzzy_ca.RuleSet.apply")),
            "attractor_tree.fitness.calls": fit_calls,
            "attractor_tree.fitness.self_s": g(own, "attractor_tree.fitness"),
            "attractor_tree.fitness.per_s": rate(
                fit_calls, g(total, "attractor_tree.fitness")),
            "attractor_tree.fitness.unique_ratio": rate(
                len(self.fitness_keys), fit_calls),
            "attractor_tree.build_tree.s": g(total, "attractor_tree.build_tree"),
            "attractor_tree.group_basins.s": g(total, "attractor_tree.group_basins"),
            "attractor_tree.classify_batch.s":
                g(total, "attractor_tree.classify_batch"),
            "simulator.run_match.calls": g(calls, "simulator.run_match"),
            "simulator.run_match.s": g(total, "simulator.run_match"),
            "simulator.cycles": g(calls, "simulator.World.step"),
            "simulator.cycles_per_s": rate(g(calls, "simulator.World.step"),
                                           g(total, "simulator.run_match")),
            "simulator.World.step.s": g(total, "simulator.World.step"),
            "simulator.World.snapshot.s": g(total, "simulator.World.snapshot"),
            "simulator.World.submit_command.s":
                g(total, "simulator.World.submit_command"),
            "simulator.World.deliver_perceptions.s":
                g(total, "simulator.World.deliver_perceptions"),
            "shooting.ShootingPolicy.act.calls": g(calls, "shooting.ShootingPolicy.act"),
            "shooting.ShootingPolicy.act.s": g(total, "shooting.ShootingPolicy.act"),
            "simulator.save_match_log.s": g(total, "simulator.save_match_log"),
            "simulator.save_match_log.bytes": c["simulator.save_match_log.bytes"],
            "simulator.load_match_log.s": g(total, "simulator.load_match_log"),
            "simulator.load_match_log.bytes": c["simulator.load_match_log.bytes"],
            "sequences.encode_game.s": g(total, "sequences.encode_game"),
            "sequences.encode_player.s": g(total, "sequences.encode_player"),
            "sequences.write_fasta.s": g(total, "sequences.write_fasta"),
            "sequences.read_fasta.s": g(total, "sequences.read_fasta"),
            "sequences.windows": c["sequences.windows"],
            "mining.mine_report.s": g(total, "mining.mine_report"),
            "mining.mine_report.rows": c["mining.mine_report.rows"],
            "mining.mine_report.tandem_runs": c["mining.mine_report.tandem_runs"],
            "mining.motif_occurrence_rate.s":
                g(total, "mining.motif_occurrence_rate"),
            "classifier_system.train.s": g(total, "classifier_system.train"),
            "classifier_system.iterations": c["classifier_system.iterations"],
            "classifier_system.iters_per_s": rate(
                c["classifier_system.iterations"], g(total, "classifier_system.train")),
            "classifier_system.match_set.s": g(total, "classifier_system.match_set"),
            "classifier_system.ga_discover.s":
                g(total, "classifier_system.ga_discover"),
            "classifier_system.covering.calls": g(calls, "classifier_system.covering"),
            "diagnostics.ga_diagnostics.s": g(total, "diagnostics.ga_diagnostics"),
            "diagnostics.measure_entropy.s": g(total, "diagnostics.measure_entropy"),
            "diagnostics.measure_mi.s": g(total, "diagnostics.measure_mi"),
            "diagnostics.rule_vector_diagnostics.calls":
                g(calls, "diagnostics.rule_vector_diagnostics"),
        }
        for stage in pipeline.STAGES:
            m[f"pipeline.{stage}.s"] = g(total, f"pipeline.{stage}")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for n, v in own.items()
                                       if n.startswith(layer + "."))
        return m

    def write(self, path):
        """Write every recorded span; names index into the `names` array."""
        name, start, end, parent, run = self._arrays()
        np.savez(path, name=name, start_ns=start, end_ns=end, parent=parent,
                 run=run, names=np.array(self.names, dtype=str))
