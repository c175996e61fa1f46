"""Command-line front end for the match workbench.

Every subcommand is a thin wrapper over one library call, reading and
writing the artifact files the pipeline stages exchange.  Global flags:
--config (JSON run config), --seed, --out-dir, --verbose.  The six stage
subcommands share one handler: their flags, one row each in
_STAGE_FLAGS, override keys of the stage's config section, and a
per-stage printer summarizes the artifact the stage wrote.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import fuzzy_ca, mining, pipeline
from .attractor_tree import ca_feedback, load_tree
from .diagnostics import EDGE_OF_CHAOS_ENTROPY
from .jsonfile import read_json

log = logging.getLogger(__name__)


def _common_parser(**kw) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, **kw)
    common.add_argument("--config", help="JSON run config file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out-dir", help="artifact directory override")
    common.add_argument("--verbose", "-v", action="store_true",
                        help="log stage progress")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchdna",
        description="simulate matches, encode play sequences, mine patterns, "
                    "and train sequence-driven classifiers",
        parents=[_common_parser()])
    # a global flag is taken before or after the subcommand; the
    # subcommand's copy sets nothing unless given, so it cannot overwrite
    # a value given before it with its default
    common = _common_parser(argument_default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[common],
                   help="run the seeded match corpus and write logs")
    sub.add_parser("encode", parents=[common],
                   help="encode logged matches into letter sequences")
    sub.add_parser("mine", parents=[common],
                   help="mine sequences for patterns and tandem runs")

    p = sub.add_parser("motifs", parents=[common],
                       help="list the motif tables or test one against text")
    p.add_argument("--template", help="motif template, x = wildcard")
    p.add_argument("--letters", help="sequence to scan for the template")

    p = sub.add_parser("fca-run", parents=[common],
                       help="evolve a fuzzy rule vector from a start state")
    p.add_argument("--rules", required=True,
                   help="comma-separated rule numbers, e.g. 238,254,238,252")
    p.add_argument("--state", required=True,
                   help="comma-separated cell values in [0,1]")
    p.add_argument("--steps", type=int, default=50, help="max steps")
    p.add_argument("--deps", action="store_true",
                   help="also print the dependency matrix")

    sub.add_parser("train-fmaca", parents=[common],
                   help="train the attractor-basin window classifier")

    p = sub.add_parser("feedback", parents=[common],
                       help="gate a shot: classify a letter window")
    p.add_argument("--tree", help="trained tree JSON "
                                  "(default <out-dir>/fmaca/tree.json)")
    p.add_argument("--letters", required=True, help="recent action letters")

    sub.add_parser("train-lcs", parents=[common],
                   help="train the learning classifier system on the "
                        "encoded corpus")
    sub.add_parser("diagnose", parents=[common],
                   help="entropy/MI diagnostics of an evolving rule vector")

    sub.add_parser("pipeline", parents=[common],
                   help="run all stages: simulate, encode, mine, "
                        "train-fmaca, train-lcs, diagnose")
    for stage, (flags, _summarize) in _STAGE_FLAGS.items():
        for flag, _key, flag_help in flags:
            sub.choices[stage].add_argument(flag, type=int, help=flag_help)
    return parser


def _resolve(args, stage_overrides: dict | None = None) -> dict:
    file_config = pipeline.load_config_file(args.config) if args.config else None
    overrides = dict(stage_overrides or {})
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    return pipeline.resolve_config(file_config, overrides)


def _print_rates(report_path) -> None:
    doc = read_json(report_path, "mining report",
                    pipeline.REPORT_SCHEMA_VERSION)
    for row in doc["motif_rates"]:
        rate = "n/a" if row["rate"] is None else f"{row['rate']:.1f}%"
        print(f"{row['label']:>6} {row['template']:<6} "
              f"band {row['band']:>4}: {rate}")


def _print_fmaca(tree_path) -> None:
    doc = read_json(Path(tree_path).with_name("metrics.json"),
                    "fmaca metrics", pipeline.REPORT_SCHEMA_VERSION)
    print(f"training accuracy {doc['training_accuracy']:.3f} "
          f"on {doc['n_windows']} windows (depth {doc['tree_depth']})")


def _print_curve(curve_path) -> None:
    curve = Path(curve_path).read_text().strip().splitlines()
    if len(curve) > 2:
        iteration, proportion = curve[-1].split(",")
        print(f"proportion_correct {float(proportion):.3f} "
              f"at iteration {iteration}")


def _print_edge_of_chaos(_path) -> None:
    print(f"edge-of-chaos entropy reference: {EDGE_OF_CHAOS_ENTROPY}")


# stage subcommand -> ([(flag, key in the stage's config section, flag
# help)], summary printer called with the stage's artifact path, or None)
_STAGE_FLAGS = {
    "simulate": ([("--matches", "matches", "number of matches"),
                  ("--cycles", "cycles", "cycles per match"),
                  ("--players", "players_per_team", "players per team")],
                 None),
    "encode": ([("--window", "window_cycles", "cycles per sequence letter")],
               None),
    "mine": ([("--top", "top_patterns", "patterns kept in the report")],
             _print_rates),
    "train-fmaca": ([], _print_fmaca),
    "train-lcs": ([("--iters", "iters", "training iterations"),
                   ("--ga-period", "ga_period", "iterations between GA runs")],
                  _print_curve),
    "diagnose": ([("--generations", "generations", "GA generations")],
                 _print_edge_of_chaos),
}


def _cmd_stage(args) -> int:
    flags, summarize = _STAGE_FLAGS[args.command]
    section = {}
    for flag, key, _flag_help in flags:
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
        if value is not None:
            section[key] = value
    config = _resolve(args, {args.command.replace("-", "_"): section})
    path = pipeline.run_stage(args.command, config, config["out_dir"])
    if summarize is not None:
        summarize(path)
    print(f"wrote {path}")
    return 0


def _cmd_motifs(args) -> int:
    if args.template is None and args.letters is None:
        for motif in mining.DEFAULT_MOTIFS:
            print(f"{motif.label:>6} {motif.template:<6} band {motif.confidence_band}")
        return 0
    if args.template is None or args.letters is None:
        print("motifs: --template and --letters go together", file=sys.stderr)
        return 2
    motif = mining.Motif(args.template, mining.GOAL)
    hits = mining.find_motif(args.letters, motif)
    print(f"{len(hits)} match(es) at {hits}" if hits else "no match")
    return 0


def _cmd_fca_run(args) -> int:
    rules = fuzzy_ca.parse_rule_vector(args.rules)
    state = np.array([float(tok) for tok in args.state.split(",")])
    trajectory = fuzzy_ca.evolve(state, rules, max_steps=args.steps)
    for t, row in enumerate(trajectory.states):
        print(f"P({t}) = ({', '.join(f'{v:.2f}' for v in row)})")
    terminal = trajectory.terminal
    if terminal.kind == "fixed_point":
        print(f"terminal: fixed point at step {terminal.index}")
    elif terminal.kind == "cycle":
        print(f"terminal: cycle of period {terminal.period} "
              f"from step {terminal.start}")
    else:
        print(f"terminal: truncated after {terminal.steps} steps")
    if args.deps:
        print("dependency matrix:")
        for row in fuzzy_ca.dependency_matrix(rules):
            print("  " + "".join(str(int(v)) for v in row))
    return 0


def _cmd_feedback(args) -> int:
    config = _resolve(args)
    tree_path = args.tree or Path(config["out_dir"]) / "fmaca" / "tree.json"
    tree = load_tree(tree_path)
    decision = ca_feedback(tree, args.letters)
    verdict = "proceed" if decision.proceed else "veto"
    if decision.flagged:
        verdict += " (window too short to judge)"
    print(verdict)
    return 0


def _cmd_pipeline(args) -> int:
    config = _resolve(args)
    artifacts = pipeline.pipeline_run(config)
    for stage in pipeline.STAGES:
        print(f"{stage}: {artifacts[stage]}")
    return 0


_HANDLERS = {
    **dict.fromkeys(_STAGE_FLAGS, _cmd_stage),
    "motifs": _cmd_motifs,
    "fca-run": _cmd_fca_run,
    "feedback": _cmd_feedback,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _HANDLERS[args.command](args)
    except (pipeline.StageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
