"""Source-wise round-trip spanners and covers of weighted digraphs."""

from .cover import Cover, CoverParams, recursive_cover, swrt_cover
from .estimate import FractionEstimates, estimate_ball_fractions, sample_count
from .graph import (
    IN,
    OUT,
    UNREACHABLE,
    BallResult,
    DistanceVector,
    EdgeListError,
    Graph,
    distance_matrix,
    parse_edge_list,
    round_trip_ball,
    sssp,
    write_edge_list,
)
from .linfty import (
    ContractionBundle,
    MergeTree,
    build_scales,
    contract,
    linfty_merge_tree,
)
from .partition import Cluster, Partition, cluster
from .spanner import SpannerResult, swrt_spanner, swrt_spanner_weighted
from .verify import (
    CoverReport,
    ProbabilityReport,
    StretchReport,
    check_cover,
    check_stretch,
    oracle_linfty_matrix,
    oracle_one_way_all_pairs,
    oracle_round_trip_all_pairs,
    partition_probability_trial,
    stretch_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BallResult",
    "Cluster",
    "ContractionBundle",
    "Cover",
    "CoverParams",
    "CoverReport",
    "DistanceVector",
    "EdgeListError",
    "FractionEstimates",
    "Graph",
    "IN",
    "MergeTree",
    "OUT",
    "Partition",
    "ProbabilityReport",
    "SpannerResult",
    "StretchReport",
    "UNREACHABLE",
    "build_scales",
    "check_cover",
    "check_stretch",
    "cluster",
    "contract",
    "distance_matrix",
    "estimate_ball_fractions",
    "linfty_merge_tree",
    "oracle_linfty_matrix",
    "oracle_one_way_all_pairs",
    "oracle_round_trip_all_pairs",
    "parse_edge_list",
    "partition_probability_trial",
    "recursive_cover",
    "round_trip_ball",
    "sample_count",
    "sssp",
    "stretch_bound",
    "swrt_cover",
    "swrt_spanner",
    "swrt_spanner_weighted",
    "write_edge_list",
]
