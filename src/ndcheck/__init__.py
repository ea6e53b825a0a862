"""Executable verification for secure two-party neighbor discovery.

The package checks concrete execution traces of wireless neighbor
discovery against three layers of feasibility (physics of a setting,
protocol conformance of correct nodes, capability bounds of adversarial
nodes), synthesizes relay and wormhole counterexamples in which a node
accepts a non-neighbor, and computes the closed-form security
boundaries that separate attackable from safe parameter regions.
"""

from .adversary import (
    AdversaryModel,
    DY_GT,
    DY_T,
    RELAY,
    RELAY_BCAST,
    RELAY_LOCAL,
    check_adversary_feasible,
    rename_bcast_to_dcast,
    rename_dcast_to_bcast,
    weaker_on_corpus,
)
from .analysis import (
    compute_boundaries,
    render_table,
    sweep,
    sweep_values,
)
from .attacks import (
    NoWitness,
    OutOfRange,
    PlacementInfeasible,
    SINGLE_RELAY,
    SingleRelayPlacement,
    WORMHOLE,
    WormholePlacement,
    availability_witness,
    build_attack_settings,
    check_neighbor_correctness,
    honest_pair_setting,
    local_views_equal,
    plan_relay_attack,
    protocol_verdict,
    synth_relay_trace,
    verify_attack_plan,
)
from .core import (
    ADVERSARIAL,
    Bcast,
    BeaconT,
    BeaconTL,
    CORRECT,
    Dcast,
    FlavorMismatch,
    LocalBcast,
    LocalNeighbor,
    LocalReceive,
    LocalView,
    Neighbor,
    Opaque,
    Receive,
    Setting,
    SystemParams,
    T_FLAVOR,
    TL_FLAVOR,
    Trace,
    UnknownNode,
    check_setting_feasible,
    dist,
    event_end,
    induced_receives,
    inrange,
    link_up_over,
    project_local,
    sq_dist,
    time_of_flight,
)
from .protocols import (
    BcastAction,
    EPSILON,
    InaccuracyParams,
    NAIVE,
    NeighborAction,
    PGT,
    PGT_APPROX,
    PT,
    check_pgt_feasible,
    check_protocol_feasible,
    check_pt_feasible,
    make_protocol,
    naive_decide,
    pgt_approx_decide,
    pgt_decide,
    pt_decide,
)
from .rational import (
    EXACT,
    IrrationalDistance,
    approx_num,
    exact_sqrt,
    format_scalar,
    is_rational_square,
    parse_scalar,
)
from .scenario import (
    Scenario,
    ScenarioError,
    dump_scenario,
    dump_trace,
    load_scenario,
    load_trace,
    parse_scenario,
    parse_trace,
    save_scenario,
    save_trace,
)

__version__ = "0.1.0"
