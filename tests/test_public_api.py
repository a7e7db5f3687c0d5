import rtspan

# The names library users and the command line need; a helper only a test
# calls belongs in the tests, not here.
PUBLIC = [
    "BallResult", "Cluster", "ContractionBundle", "Cover", "CoverParams",
    "CoverReport", "DistanceVector", "EdgeListError", "FractionEstimates",
    "Graph", "IN", "MergeTree", "OUT", "Partition", "ProbabilityReport",
    "SpannerResult", "StretchReport", "UNREACHABLE",
    "build_scales", "check_cover", "check_stretch", "cluster", "contract",
    "distance_matrix", "estimate_ball_fractions",
    "linfty_merge_tree", "oracle_linfty_matrix", "oracle_one_way_all_pairs",
    "oracle_round_trip_all_pairs", "parse_edge_list",
    "partition_probability_trial", "recursive_cover", "round_trip_ball",
    "sample_count", "sssp", "stretch_bound", "swrt_cover", "swrt_spanner",
    "swrt_spanner_weighted", "write_edge_list",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 40 and PUBLIC == sorted(PUBLIC)
    assert rtspan.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(rtspan, name), name
