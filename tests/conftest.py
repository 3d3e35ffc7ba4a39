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
    """A run config small enough to synthesize, train and evaluate in seconds."""
    from ude.config import RunConfig

    return RunConfig(
        frames=16, families="walk:2,wave:2,jump:2,turn:2",
        families_test="walk:2,wave:2,jump:2,turn:2",
        genres="sway:2,groove:1,pulse:1", genres_test="sway:2,groove:1,pulse:1",
        code_count=8, code_dim=8, mq_hidden=16, embed_dim=16, mate_layers=1,
        mate_heads=2, utt_layers=1, utt_heads=2, z_dim=4, diffusion_steps=2,
        dmd_layers=1, dmd_cond_layers=1, dmd_heads=2, retrieval_distractors=3,
        retrieval_trials=1, retrieval_dim=8)
