import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from gradednet.config import RunConfig
from gradednet.grading import GradingConfig
from gradednet.optimizers import AbcConfig, GaConfig

_run_configs = st.builds(
    RunConfig,
    density_threshold=st.integers(0, 20),
    lifetime_threshold=st.floats(0.0, 200.0),
    lifetime_scale=st.floats(0.0, 500.0),
    resource_prob=st.floats(0.0, 1.0),
    congestion_threshold=st.floats(0.0, 1.0),
    delay_multiplier=st.floats(0.1, 20.0),
    alpha=st.floats(1e-3, 10.0),
    arrival_horizon_s=st.floats(1e-3, 10.0),
    flow_rate_mbps=st.floats(1e-3, 10.0),
    grade_time_s=st.floats(0.0, 10.0),
    colony_size=st.integers(1, 200),
    max_cycles=st.integers(1, 100),
    abc_limit=st.none() | st.integers(1, 1000),
    population_size=st.integers(2, 50),
    generations=st.integers(1, 100),
    mutation_rate=st.floats(0.0, 1.0),
)


@settings(max_examples=100, deadline=None)
@given(_run_configs)
def test_stage_configs_are_cut_from_run_config_by_name(config):
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    for stage in (config.grading_config(), config.abc_config(), config.ga_config()):
        for f in dataclasses.fields(stage):
            assert f.name in run_fields, (type(stage).__name__, f.name)
            assert getattr(stage, f.name) == getattr(config, f.name), (type(stage).__name__, f.name)


def test_stage_config_defaults_are_the_run_defaults():
    run = RunConfig()
    assert GradingConfig() == run.grading_config()
    assert AbcConfig() == run.abc_config()
    assert GaConfig() == run.ga_config()
