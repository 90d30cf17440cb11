import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "pkg",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")


@pytest.fixture(scope="session")
def random_specs():
    """The benchmark's random_batch generator, random_specs(seed, count),
    loaded from perfbench/workloads.py without putting perfbench on sys.path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.random_specs
