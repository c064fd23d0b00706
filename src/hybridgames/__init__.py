"""Exact-arithmetic turn-based hybrid games.

The package models two-player games whose variables evolve at constant
rational rates, lowers them step by step to classical timed games (each step
certified by an executable bisimulation witness), solves reachability and
safety objectives on the region abstraction, and pulls the winning
strategies back to the original game.
"""

from .core import (
    Annotation,
    Edge,
    Flavor,
    Game,
    GameError,
    Guard,
    IllegalStrategyMove,
    Interval,
    InvalidGame,
    InvalidHistory,
    LocId,
    Location,
    MoveNotEnabled,
    NoRealization,
    OwnershipMismatch,
    Player,
    Reset,
    Violation,
    ViolationKind,
    classify_flavor,
    flavor_within,
    format_rational,
    parse_locid,
    parse_rational,
    scale_to_integers,
    validate_game,
)
from .semantics import (
    Configuration,
    DelayWindow,
    Move,
    Run,
    Step,
    delay_window,
    enabled_edges,
    initial_config,
    play,
    step,
    trace_of,
)
from .to_stopwatch import rescale_config, stopwatch_witness, to_stopwatch
from .to_updatable import (
    annotate_resets,
    annotation_witness,
    pinned_values,
    rewrite_witness,
    to_updatable,
)
from .to_timed import offset_values, offset_witness, to_timed
from .chain import (
    LOWERINGS,
    Chain,
    LiftedRun,
    build_chain,
    initial_lifted,
    lift_run,
    lift_step,
    stage_witnesses,
)
from .bisim import (
    BisimWitness,
    ChainReport,
    Counterexample,
    MoveSampler,
    StageResult,
    Verdict,
    check_local_bisim,
    compose,
    identity_witness,
    replay_counterexample,
    verify_chain,
)
from .solver import (
    Region,
    RegionGame,
    RegionMove,
    RegionNode,
    SolveResult,
    apply_reset,
    build_region_graph,
    region_of,
    region_satisfies,
    solve_reachability,
    solve_safety,
    time_closure,
    time_successor,
)
from .granular import (
    PairMismatch,
    granular_reach_winner,
    granular_safe_winner,
    granular_witness_check,
)
from .strategy import (
    InclusionReport,
    check_trace_inclusion,
    first_move_strategy,
    positional_strategy,
    pull_back_strategy,
    random_strategy,
)

__version__ = "0.1.0"
