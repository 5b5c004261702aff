import safl_sim


def test_every_public_name_resolves_once():
    # a name left in __all__ after its definition moved breaks only
    # ``from safl_sim import *``, which nothing else here runs
    assert len(set(safl_sim.__all__)) == len(safl_sim.__all__)
    assert [name for name in safl_sim.__all__ if not hasattr(safl_sim, name)] == []


def test_the_public_surface_is_pinned():
    # a name joins or leaves the package's surface only by editing this list
    assert safl_sim.__all__ == [
        "AnnealConfig",
        "Dataset",
        "DivergenceError",
        "GateConfig",
        "GradientUnavailableError",
        "LrSchedule",
        "Objective",
        "PartitionSpec",
        "SimConfig",
        "WeightScheme",
        "accuracy_proxy",
        "aggregate",
        "corollary1_bound",
        "corollary1_constant",
        "curvature",
        "decide_upload",
        "empirical_risk",
        "load_csv",
        "make_blobs",
        "make_linear_regression",
        "measure_bound_inputs",
        "mix",
        "optimum_oracle",
        "partition_with_holdout",
        "performance_gap",
        "run",
        "run_local_epochs",
        "sample_mask",
        "selection_probability",
        "theorem1_bound",
        "upload_probability",
        "weights",
    ]
