import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_cfg():
    """A run config small enough to synthesize, train and evaluate in seconds:
    tests/tiny.json, which CI's two-hash-seed run reads too."""
    from ude.config import load_config

    return load_config(pathlib.Path(__file__).with_name("tiny.json"))
