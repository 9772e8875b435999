"""Tests for repro.api — the blessed facade — and its canonical spellings."""

import warnings

import pytest


class TestFacade:
    def test_every_name_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_is_same_objects_as_deep_paths(self):
        import repro.api as api
        from repro.core.error_control import build_ladder
        from repro.engine.session import ScenarioSession, make_weight_function
        from repro.experiments.runner import run_scenario
        from repro.faults import FaultCampaign, RetryPolicy

        assert api.build_ladder is build_ladder
        assert api.run_scenario is run_scenario
        assert api.ScenarioSession is ScenarioSession
        assert api.make_weight_function is make_weight_function
        assert api.FaultCampaign is FaultCampaign
        assert api.RetryPolicy is RetryPolicy

    def test_resilience_surface_present(self):
        import repro.api as api

        for name in ("FaultCampaign", "FaultInjector", "RetryPolicy",
                     "DegradationPolicy", "FAULT_CAMPAIGNS",
                     "register_fault_campaign", "run_resilience"):
            assert name in api.__all__

    def test_no_dead_all_entries(self):
        import repro.api as api

        exported = {n for n in dir(api) if not n.startswith("_")}
        assert set(api.__all__) <= exported


def _dec():
    from repro.apps import make_app
    from repro.core.refactor import decompose, levels_for_decimation

    field = make_app("xgc").generate((64, 64), seed=0)
    return decompose(field, levels_for_decimation(field.shape, 4))


def _controller_parts():
    from repro.core.abplot import AugmentationBandwidthPlot
    from repro.core.controller import make_policy
    from repro.core.error_control import ErrorMetric, build_ladder
    from repro.util.units import mb_per_s

    ladder = build_ladder(_dec(), [0.1, 0.01], ErrorMetric.NRMSE)
    abplot = AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))
    return ladder, make_policy("app-only", None), abplot


class TestScenarioConfigShims:
    """The ``ladder_bounds`` rename shim is gone; ``error_bounds`` is the
    one spelling ``ScenarioConfig`` takes."""

    def test_both_spellings_rejected(self):
        from repro.experiments.config import ScenarioConfig

        with pytest.raises(TypeError):
            ScenarioConfig(ladder_bounds=(0.1,), error_bounds=(0.1,))

    def test_canonical_spelling_is_silent(self):
        from repro.experiments.config import ScenarioConfig

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cfg = ScenarioConfig(error_bounds=(0.1, 0.01))
        assert cfg.error_bounds == (0.1, 0.01)


class TestCampaignConfigShims:
    """``error_bounds`` is the one spelling ``CampaignConfig`` takes."""

    def test_canonical_spelling_is_silent(self):
        from repro.experiments.campaign import CampaignConfig

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cfg = CampaignConfig(error_bounds=(0.1, 0.01))
        assert cfg.error_bounds == (0.1, 0.01)


class TestBuildLadderShims:
    def test_unknown_keyword_rejected(self):
        from repro.core.error_control import ErrorMetric, build_ladder

        with pytest.raises(TypeError):
            build_ladder(_dec(), [0.1], ErrorMetric.NRMSE, bogus=(0.1,))


class TestAbplotShim:
    """``bw_low``/``bw_high`` are keyword-only; positional construction
    is rejected."""

    def test_keyword_construction_is_silent(self):
        from repro.core.abplot import AugmentationBandwidthPlot
        from repro.util.units import mb_per_s

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ab = AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))
        assert ab.bw_low == mb_per_s(30)
        assert ab.bw_high == mb_per_s(120)

    def test_duplicate_value_rejected(self):
        from repro.core.abplot import AugmentationBandwidthPlot

        with pytest.raises(TypeError):
            AugmentationBandwidthPlot(1.0, bw_low=2.0)

    def test_too_many_positionals_rejected(self):
        from repro.core.abplot import AugmentationBandwidthPlot

        with pytest.raises(TypeError):
            AugmentationBandwidthPlot(1.0, 2.0, 3.0)


class TestRunnerModuleShim:
    def test_unknown_attribute_still_raises(self):
        import repro.experiments.runner as runner

        with pytest.raises(AttributeError):
            runner.does_not_exist


# Each spelling the migration table used to translate behind a warning.
# Calls now fail like any unknown argument (TypeError); removed names
# fail like any missing attribute (AttributeError).
def _scenario_ladder_bounds():
    from repro.experiments.config import ScenarioConfig

    ScenarioConfig(ladder_bounds=(0.1, 0.01))


def _campaign_ladder_bounds():
    from repro.experiments.campaign import CampaignConfig

    CampaignConfig(ladder_bounds=(0.1, 0.01))


def _scenario_ladder_bounds_attr():
    from repro.experiments.config import ScenarioConfig

    ScenarioConfig().ladder_bounds


def _campaign_ladder_bounds_attr():
    from repro.experiments.campaign import CampaignConfig

    CampaignConfig().ladder_bounds


def _build_ladder_bounds():
    from repro.core.error_control import ErrorMetric, build_ladder

    build_ladder(_dec(), metric=ErrorMetric.NRMSE, bounds=[0.1, 0.01])


def _build_ladder_for_app_bounds():
    from repro.apps import make_app
    from repro.core.error_control import ErrorMetric
    from repro.experiments.runner import build_ladder_for_app

    build_ladder_for_app(
        make_app("xgc"),
        grid_shape=(64, 64),
        decimation_ratio=4,
        metric=ErrorMetric.NRMSE,
        bounds=(0.1, 0.01),
        seed=0,
    )


def _abplot_positional():
    from repro.core.abplot import AugmentationBandwidthPlot
    from repro.util.units import mb_per_s

    AugmentationBandwidthPlot(mb_per_s(30), mb_per_s(120))


def _tango_legacy_kwargs():
    from repro.control import TangoController

    TangoController(*_controller_parts(), prescribed_bound=0.01, priority=5.0)


def _tango_legacy_positionals():
    from repro.control import TangoController

    TangoController(*_controller_parts(), 0.01, 2.0)


def _runner_make_weight_function():
    import repro.experiments.runner as runner

    runner.make_weight_function


def _core_controller_reexport(name):
    def lookup():
        import repro.core.controller as controller

        getattr(controller, name)

    return lookup


def _core_package_reexport(name):
    def lookup():
        import repro.core as core

        getattr(core, name)

    return lookup


def _cluster_config_workers():
    from repro.cluster import ClusterConfig

    ClusterConfig(workers=2)


def _run_cluster_pool():
    from repro.cluster import ClusterConfig, run_cluster

    run_cluster(ClusterConfig(n_nodes=2, shards=1, rounds=1), pool=None)


def _run_cluster_compare_workers():
    from repro.experiments.cluster import run_cluster_compare

    run_cluster_compare(n_nodes=2, shards=1, rounds=1, workers=1)


def _cli_cluster_workers():
    from repro.cli import build_parser

    build_parser().parse_args(["cluster", "--workers", "2"])


def _run_fig08_workers():
    from repro.experiments.fig08 import run_fig08

    run_fig08(replications=0, workers=1)


def _run_stability_workers():
    from repro.experiments.stability import run_stability

    run_stability(inputs=("unknown",), workers=1)


def _replicate_executor():
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.stats import replicate

    replicate(ScenarioConfig(), seeds=(), executor=None)


def _sweep_executor_mp_context():
    from repro.engine.sweep import SweepExecutor

    SweepExecutor(1, mp_context="spawn")


def _sweep_executor_run_scenarios():
    from repro.engine.sweep import SweepExecutor

    SweepExecutor.run_scenarios


def _sweep_workers_env():
    import repro.engine.sweep as sweep

    sweep.WORKERS_ENV


def _cli_workers(*argv):
    def parse():
        from repro.cli import build_parser

        build_parser().parse_args([*argv, "--workers", "2"])

    return parse


def _cluster_package_attr(name):
    def lookup():
        import repro.cluster as cluster

        getattr(cluster, name)

    return lookup


_REMOVED = [
    ("ScenarioConfig(ladder_bounds=)", _scenario_ladder_bounds, TypeError),
    ("CampaignConfig(ladder_bounds=)", _campaign_ladder_bounds, TypeError),
    ("build_ladder(bounds=)", _build_ladder_bounds, TypeError),
    ("build_ladder_for_app(bounds=)", _build_ladder_for_app_bounds, TypeError),
    ("AugmentationBandwidthPlot(low, high)", _abplot_positional, TypeError),
    ("TangoController(prescribed_bound=)", _tango_legacy_kwargs, TypeError),
    ("TangoController(bound, priority)", _tango_legacy_positionals, TypeError),
    ("ScenarioConfig.ladder_bounds", _scenario_ladder_bounds_attr, AttributeError),
    ("CampaignConfig.ladder_bounds", _campaign_ladder_bounds_attr, AttributeError),
    ("runner.make_weight_function", _runner_make_weight_function, AttributeError),
    *[
        (f"core.controller.{name}", _core_controller_reexport(name), AttributeError)
        for name in ("TangoController", "BaseController", "AdaptationDecision", "_HistoryEntry")
    ],
    *[
        (f"core.{name}", _core_package_reexport(name), AttributeError)
        for name in ("TangoController", "BaseController", "AdaptationDecision")
    ],
    ("ClusterConfig(workers=)", _cluster_config_workers, TypeError),
    ("run_cluster(pool=)", _run_cluster_pool, TypeError),
    ("run_cluster_compare(workers=)", _run_cluster_compare_workers, TypeError),
    ("repro cluster --workers", _cli_cluster_workers, SystemExit),
    *[
        (f"cluster.{name}", _cluster_package_attr(name), AttributeError)
        for name in ("ShardPool", "make_shard_pool")
    ],
    ("run_fig08(workers=)", _run_fig08_workers, TypeError),
    ("run_stability(workers=)", _run_stability_workers, TypeError),
    ("replicate(executor=)", _replicate_executor, TypeError),
    ("SweepExecutor(mp_context=)", _sweep_executor_mp_context, TypeError),
    ("SweepExecutor.run_scenarios", _sweep_executor_run_scenarios, AttributeError),
    ("engine.sweep.WORKERS_ENV", _sweep_workers_env, AttributeError),
    ("repro stability --workers", _cli_workers("stability"), SystemExit),
    ("repro export --workers", _cli_workers("export", "fig01", "out.json"), SystemExit),
]


@pytest.mark.parametrize(
    ("spelling", "error"),
    [case[1:] for case in _REMOVED],
    ids=[case[0] for case in _REMOVED],
)
def test_removed_spelling_raises(spelling, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with pytest.raises(error):
            spelling()


class TestControllerConstructionShim:
    """``TangoController`` takes only the ``config=`` spelling."""

    def test_config_path_is_silent(self):
        from repro.control import ControllerConfig, TangoController

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ctrl = TangoController(
                *_controller_parts(), config=ControllerConfig(prescribed_bound=0.01)
            )
        assert ctrl.config.prescribed_bound == 0.01

    def test_config_plus_legacy_rejected(self):
        from repro.control import ControllerConfig, TangoController

        with pytest.raises(TypeError):
            TangoController(
                *_controller_parts(),
                prescribed_bound=0.02,
                config=ControllerConfig(prescribed_bound=0.01),
            )

    def test_neither_config_nor_legacy_rejected(self):
        from repro.control import TangoController

        with pytest.raises(TypeError, match="config"):
            TangoController(*_controller_parts())

    def test_unknown_legacy_kwarg_rejected(self):
        from repro.control import ControllerConfig, TangoController

        with pytest.raises(TypeError):
            TangoController(
                *_controller_parts(),
                config=ControllerConfig(prescribed_bound=0.01),
                gain=2.0,
            )

    def test_controller_surface_on_facade(self):
        import repro.api as api

        for name in ("CONTROLLERS", "register_controller", "ControllerConfig",
                     "BaseController", "PidController", "MpcController",
                     "TangoController", "StabilityResult", "run_stability"):
            assert name in api.__all__
