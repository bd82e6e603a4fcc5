import orderpv

PUBLIC = [
    "BinaryMatrix", "ChainConfig", "CombineResult", "CombinerSpec", "GroupedDataset",
    "PipelineResult", "SimConfig", "SimReport", "adversarial_kernel", "binom_upper_tail",
    "binom_upper_tail_derivative", "check_validity", "checkerboard_score", "combine_pvalues",
    "default_k", "envelope", "generate_null_matrix", "make_bcmc_test", "order_statistic",
    "rank_sum_test", "run_pipeline", "serial_pvalue", "solve_combiner", "tail_ratio",
    "tightness_scan",
]


def test_public_names_are_pinned_and_resolve():
    # helpers such as subsample_pvalues stay importable from their modules,
    # not from the package; uniform_kernel is a test oracle, in neither
    assert len(PUBLIC) == 25 and PUBLIC == sorted(PUBLIC)
    assert len(orderpv.__all__) == 25 and sorted(orderpv.__all__) == PUBLIC
    assert all(callable(getattr(orderpv, name)) for name in PUBLIC)
    assert not hasattr(orderpv, "subsample_pvalues") and not hasattr(orderpv, "uniform_kernel")
