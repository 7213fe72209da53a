"""Run configuration: defaults, presets, and the key=value file format.

Config files are flat ``section.key = value`` lines; ``#`` starts a
comment.  Every key must exist in the default config, which doubles as
the type oracle when parsing.  ``fingerprint`` hashes the canonical dump
so reports stay traceable to the exact configuration that produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field


class ConfigError(Exception):
    """Configuration file or override is invalid."""


@dataclass
class DataParams:
    num_tasks: int = 5
    num_actions: int = 12
    obs_dim: int = 16
    text_dim: int = 8
    videos_per_task: int = 30
    noise_sd: float = 0.02
    branch_prob: float = 0.0
    split_ratio: float = 0.7


@dataclass
class ScheduleParams:
    steps: int = 200
    beta_start: float = 1e-4
    beta_end: float = 0.05


@dataclass
class StageParams:
    epochs: int
    steps_per_epoch: int
    batch_size: int
    peak_lr: float
    warmup_epochs: int = 0
    decay_window_epochs: int = 0
    decay_every: int = 5
    decay_factor: float = 0.5
    weight_decay: float = 0.0

    def lr_at(self, step: int) -> float:
        """Linear warmup, hold, then stepwise decay inside a final window."""
        if step < 0:
            raise ValueError(f"lr_at: step must be >= 0, got {step}")
        warmup_steps = self.warmup_epochs * self.steps_per_epoch
        if warmup_steps > 0 and step < warmup_steps:
            return self.peak_lr * step / warmup_steps
        epoch = step // self.steps_per_epoch
        decay_start = self.epochs - self.decay_window_epochs
        if self.decay_window_epochs > 0 and epoch >= decay_start:
            k = (epoch - decay_start) // self.decay_every + 1
            return self.peak_lr * self.decay_factor**k
        return self.peak_lr


@dataclass
class Flags:
    use_eps: bool = True
    inject_constraints: bool = True
    gt_boundary_eval: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    horizon: int = 3
    curation: str = "pdpp"
    dataset_name: str = "synthetic"
    data: DataParams = field(default_factory=DataParams)
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    vae: StageParams = field(
        default_factory=lambda: StageParams(
            epochs=30, steps_per_epoch=20, batch_size=64, peak_lr=1e-3
        )
    )
    classifier: StageParams = field(
        default_factory=lambda: StageParams(
            epochs=20, steps_per_epoch=20, batch_size=64, peak_lr=1e-3, warmup_epochs=2
        )
    )
    diffusion: StageParams = field(
        default_factory=lambda: StageParams(
            epochs=40,
            steps_per_epoch=50,
            batch_size=32,
            peak_lr=5e-4,
            warmup_epochs=5,
            decay_window_epochs=10,
            decay_every=5,
            decay_factor=0.5,
        )
    )
    flags: Flags = field(default_factory=Flags)

    def validate(self) -> None:
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if self.curation not in ("pdpp", "kepp"):
            raise ConfigError(f"curation must be pdpp or kepp, got {self.curation!r}")
        for name in ("vae", "classifier", "diffusion"):
            stage: StageParams = getattr(self, name)
            for attr in ("epochs", "steps_per_epoch", "batch_size"):
                if getattr(stage, attr) < 1:
                    raise ConfigError(f"{name}.{attr} must be positive")
            if stage.peak_lr < 0 or stage.decay_every < 1:
                raise ConfigError(f"{name} has invalid learning-rate settings")

    def to_kv(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if dataclasses.is_dataclass(value):
                for sub in dataclasses.fields(value):
                    out[f"{f.name}.{sub.name}"] = _format_value(getattr(value, sub.name))
            else:
                out[f.name] = _format_value(value)
        return out

    def to_kv_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in sorted(self.to_kv().items()))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_kv_text().encode("utf-8")).hexdigest()[:12]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text: str, kind: type):
    text = text.strip()
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"expected {kind.__name__}, got {text!r}") from exc


def apply_overrides(config: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """New config with ``section.key -> value`` strings applied."""
    config = dataclasses.replace(config)  # shallow; sections replaced below
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            setattr(config, f.name, dataclasses.replace(value))
    for key, raw in overrides.items():
        target = config
        attr = key
        if "." in key:
            section, attr = key.split(".", 1)
            if not hasattr(config, section) or not dataclasses.is_dataclass(
                getattr(config, section)
            ):
                raise ConfigError(f"unknown config section {section!r} in {key!r}")
            target = getattr(config, section)
        matching = [f for f in dataclasses.fields(target) if f.name == attr]
        if not matching:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(target, attr)
        if dataclasses.is_dataclass(current):
            raise ConfigError(f"{key!r} is a section, not a value")
        setattr(target, attr, _parse_value(raw, type(current)))
    config.validate()
    return config


def parse_kv_text(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def load_config(path: str | None = None, overrides: dict[str, str] | None = None,
                preset: str | None = None) -> RunConfig:
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
    config = PRESETS[preset]() if preset else RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        config = apply_overrides(config, parse_kv_text(text))
    if overrides:
        config = apply_overrides(config, overrides)
    config.validate()
    return config


def _desk() -> RunConfig:
    return RunConfig()


def _crosstask() -> RunConfig:
    """Training profile sized for the real CrossTask-scale data."""
    cfg = RunConfig(dataset_name="crosstask")
    cfg.data = DataParams(num_tasks=18, num_actions=105, obs_dim=1536, text_dim=512)
    cfg.vae = StageParams(epochs=50, steps_per_epoch=100, batch_size=256, peak_lr=1e-3)
    cfg.diffusion = StageParams(
        epochs=120, steps_per_epoch=200, batch_size=128, peak_lr=5e-4,
        warmup_epochs=20, decay_window_epochs=30, decay_every=5, decay_factor=0.5,
    )
    cfg.classifier = StageParams(
        epochs=50, steps_per_epoch=100, batch_size=256, peak_lr=1e-3, warmup_epochs=5
    )
    return cfg


def _coin() -> RunConfig:
    cfg = _crosstask()
    cfg.dataset_name = "coin"
    cfg.data = DataParams(num_tasks=180, num_actions=778, obs_dim=1536, text_dim=512)
    cfg.diffusion = StageParams(
        epochs=800, steps_per_epoch=200, batch_size=128, peak_lr=1e-4,
        warmup_epochs=20, decay_window_epochs=50, decay_every=5, decay_factor=0.5,
    )
    return cfg


def _niv() -> RunConfig:
    cfg = _crosstask()
    cfg.dataset_name = "niv"
    cfg.data = DataParams(num_tasks=5, num_actions=18, obs_dim=1536, text_dim=512)
    # Learning rate ramps to its peak over the first 90 epochs and then
    # holds; no decay window is configured for this profile.
    cfg.diffusion = StageParams(
        epochs=130, steps_per_epoch=50, batch_size=128, peak_lr=3e-4,
        warmup_epochs=90, decay_window_epochs=0,
    )
    return cfg


PRESETS = {
    "desk": _desk,
    "crosstask": _crosstask,
    "coin": _coin,
    "niv": _niv,
}
