"""Fault-aware mapping, routing, and simulation for mesh NoC many-cores.

The pieces compose into a closed loop: checker events update the system
health map, classification decides severity, permanent faults rebuild
the port-level routing graph and the per-port unreachable-region
tables, and the mapping unit redeploys the application, consulting a
cache of precomputed mappings for predicted fault configurations.
"""

from .errors import (
    CycleError,
    DanglingEdgeError,
    DimensionMismatch,
    EmptyHistory,
    InfeasibilityError,
    InfeasibleInstance,
    LengthMismatch,
    NocSimError,
    NoHealthyPE,
    ParseError,
    RangeError,
    RegionBudgetError,
    SemanticError,
    UnknownPort,
    UnknownTarget,
    UnknownTile,
    UnroutableFlow,
    ValidationError,
    ZeroDimensionError,
)
from .graphs import (
    ArchitectureGraph,
    ClusteredTaskGraph,
    CRITICAL,
    Link,
    NON_CRITICAL,
    TURN_SLOTS_2D,
    TURN_SLOTS_3D,
    Task,
    TaskGraph,
    Tile,
    build_mesh,
    build_task_graph,
    cluster_tasks,
    random_task_graph,
)
from .routing import (
    NEGATIVE_FIRST,
    NORTH_LAST,
    RouteProvider,
    RoutingGraph,
    TurnModel,
    WEST_FIRST,
    XY,
    XYZ,
    build_routing_graph,
    custom_turn_model,
    is_deadlock_free,
    turn_model_by_name,
)
from .health import (
    LbdrConfig,
    ShmSnapshot,
    SystemHealthMap,
    derive_lbdr_config,
    shm_tag,
)
from .reachability import (
    PortRegionTable,
    Rectangle,
    RegionFilter,
    build_region_tables,
    cover_rectangles,
    partition,
    should_drop,
)
from .mapsched import (
    CommModel,
    FlowPlan,
    HeuristicResult,
    SaParams,
    Schedule,
    SCHEDULE_LENGTH,
    TRAFFIC_BALANCE,
    UTILIZATION_BALANCE,
    asap_schedule,
    dump_mapping,
    evaluate_cost,
    run_heuristic,
    usable_tiles,
    validate_mapping,
)
from .shmu import (
    CHECKER_UNITS,
    ClassifierConfig,
    CostModel,
    CurrentMappingMemory,
    FaultEvent,
    IGNORE,
    INTERMITTENT,
    LatencyReport,
    MpmEntry,
    MpmMemory,
    Msu,
    PERMANENT,
    REMAP,
    REMAP_AND_STORE,
    TRANSIENT,
    classify,
    degrade_targets,
    location_used,
    map_and_deploy,
    map_and_store,
    predict_mpfs,
    severity,
)
from .simkernel import (
    DROP,
    REQUEUE,
    AgingUpdate,
    Injection,
    Kernel,
    Metrics,
    RunResult,
    ScenarioScript,
    expand_injection,
    run,
)
from .scenario import load_scenario, parse_scenario
from .rng import derive_seed

__version__ = "0.1.0"
