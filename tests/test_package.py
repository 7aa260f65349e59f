import tailest
from tailest import estimator, experiments, sampler

# The package's names before it exported each module's __all__.
EXPORTED_BEFORE = {
    "DegenerateBoundsError", "DegenerateSampleError", "DistributionSpec",
    "DistributionSpecError", "EstimateResult", "EstimationError", "FIGURE_EXAMPLES",
    "GridDistribution", "HillPlotSeries", "OrderedSample", "SingularityError",
    "SolverFailureError", "TABLE_ROWS", "TailWindow", "WindowError", "correction",
    "correction_derivative", "draw", "figure_csv", "full_window", "gfun", "hill_estimate",
    "hill_plot_series", "improved_estimate", "mean_log", "run_figure", "run_full_table",
    "sigma_statistic", "solve_direct", "solve_iterative", "summarize_table", "table_csv",
    "tabulate",
}
MODULES = (estimator, experiments, sampler)


def test_all_joins_the_module_lists_without_repeats():
    assert tailest.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(tailest.__all__)) == len(tailest.__all__)


def test_every_name_is_the_object_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(tailest, name) is value, name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_names_exported_before_are_kept():
    assert len(EXPORTED_BEFORE) == 33
    assert EXPORTED_BEFORE <= set(tailest.__all__)
