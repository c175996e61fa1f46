"""matchdna: a workbench for simulated soccer matches encoded as
DNA-style letter sequences.

The pieces, in pipeline order: a deterministic cycle-based match
simulator (`simulator`, `shooting`), sequence encoders (`sequences`),
a repeat/motif miner (`mining`), a fuzzy cellular automaton engine
(`fuzzy_ca`) with an attractor-basin tree classifier (`attractor_tree`),
entropy and mutual-information diagnostics (`diagnostics`), a
bucket-brigade learning classifier system (`classifier_system`), and the
file-based orchestration (`pipeline`, `cli`).
"""

from .fuzzy_ca import (
    COMPLEMENT_OF,
    SUPPORTED_RULES,
    RuleSet,
    Terminal,
    Trajectory,
    dependency_matrix,
    eval_rule,
    evolve,
    format_rule_vector,
    parse_rule_vector,
    step,
    terminal_states,
)
from .simulator import (
    AWAY,
    HOME,
    Command,
    FieldConfig,
    MatchEvent,
    MatchLog,
    World,
    load_match_log,
    run_match,
    save_match_log,
)
from .shooting import ShootingPolicy
from .sequences import (
    GameSequence,
    PlayerSequence,
    encode_game,
    encode_player,
    read_fasta,
    write_fasta,
)
from .mining import (
    DEFAULT_MOTIFS,
    GOAL_MOTIFS,
    THREAT_MOTIFS,
    AnnotatedSequence,
    Motif,
    PatternQuery,
    PatternReport,
    count_occurrences,
    enumerate_unique,
    find_motif,
    find_tandem_repeats,
    match_motif,
    mine_report,
    motif_occurrence_rate,
)
from .attractor_tree import (
    FmacaTree,
    GaConfig,
    basin_purity,
    build_tree,
    ca_feedback,
    classify,
    classify_batch,
    fit_window_classifier,
    group_basins,
    load_tree,
    purity_ceiling,
    save_tree,
)
from .diagnostics import (
    EDGE_OF_CHAOS_ENTROPY,
    DiagnosticsConfig,
    ga_diagnostics,
    measure_entropy,
    measure_mi,
    mutual_information,
    site_entropy,
)
from .classifier_system import (
    ClassifierRule,
    LcsConfig,
    LearningCurve,
    MinerStats,
    Population,
    SequenceReplayEnvironment,
    SuffixOracleEnvironment,
    train,
)
from .pipeline import (
    CorpusManifest,
    StageError,
    pipeline_run,
    resolve_config,
)

__version__ = "0.1.0"
