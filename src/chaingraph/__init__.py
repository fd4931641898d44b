"""Ethereum transaction networks: block ingestion, weighted interaction
graphs, and the complex-network metric suite (degrees, components,
clustering, distances, random baselines, small-world sigma, miner stats).
"""

__version__ = "0.1.0"

from chaingraph.ingest import (
    BlockCache,
    BlockRecord,
    JsonRpcEndpoint,
    SnapshotSpec,
    fetch_range,
    parse_block_json,
)
from chaingraph.graph import (
    SimpleGraph,
    TransactionGraph,
    build_graph,
    export_pajek,
    project_simple,
    recipient_nodes,
)
from chaingraph.metrics import (
    ComponentSet,
    DistanceSummary,
    ExactnessPolicy,
    MetricsReport,
    average_local_clustering,
    connected_components,
    degree_distribution,
    distance_summary,
    general_metrics,
)
from chaingraph.baseline import (
    UNDEFINED,
    GnmParams,
    SmallWorldReport,
    gnm_random_graph,
    small_world_report,
    small_world_sigma,
)
from chaingraph.miners import miner_distribution

__all__ = [
    "BlockCache",
    "BlockRecord",
    "ComponentSet",
    "DistanceSummary",
    "ExactnessPolicy",
    "GnmParams",
    "JsonRpcEndpoint",
    "MetricsReport",
    "SimpleGraph",
    "SmallWorldReport",
    "SnapshotSpec",
    "TransactionGraph",
    "UNDEFINED",
    "average_local_clustering",
    "build_graph",
    "connected_components",
    "degree_distribution",
    "distance_summary",
    "export_pajek",
    "fetch_range",
    "general_metrics",
    "gnm_random_graph",
    "miner_distribution",
    "parse_block_json",
    "project_simple",
    "recipient_nodes",
    "small_world_report",
    "small_world_sigma",
]
