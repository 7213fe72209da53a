"""Shared test helpers."""

import pytest

from procplan import pipeline
from procplan.config import RunConfig, StageParams


def make_tiny_config(**top_level) -> RunConfig:
    """A config small enough for integration tests to train in seconds."""
    cfg = RunConfig()
    cfg.data.videos_per_task = 4
    cfg.data.obs_dim = 8
    cfg.data.text_dim = 4
    cfg.schedule.steps = 20
    cfg.vae = StageParams(epochs=2, steps_per_epoch=10, batch_size=16, peak_lr=1e-3)
    cfg.classifier = StageParams(epochs=2, steps_per_epoch=10, batch_size=16, peak_lr=1e-3)
    cfg.diffusion = StageParams(
        epochs=2, steps_per_epoch=10, batch_size=8, peak_lr=5e-4, warmup_epochs=1
    )
    for key, value in top_level.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def plant_denoiser_weight(monkeypatch, name: str, value: float) -> None:
    """Make the diffusion stage's fresh denoiser hold ``value`` at the
    first entry of parameter ``name``."""
    make = pipeline._stage_model

    def stage_model(stage, config, seed):
        model = make(stage, config, seed)
        if stage == "diffusion":
            model.params[name].data.flat[0] = value
        return model

    monkeypatch.setattr(pipeline, "_stage_model", stage_model)


@pytest.fixture()
def tiny_config():
    return make_tiny_config()
