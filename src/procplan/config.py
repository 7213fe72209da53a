"""Run configuration: defaults, presets, and the key=value file format.

Config files are flat ``section.key = value`` lines; ``#`` starts a
comment.  Every key must exist in the default config, which doubles as
the type oracle when parsing.  ``fingerprint`` hashes the canonical dump
so reports stay traceable to the exact configuration that produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field


# Horizons whose corpus windows ``generate_corpus`` checks identify the task.
SUPPORTED_HORIZONS = range(3, 7)
# Lengths of the task chains ``generate_corpus`` draws over distinct actions.
CHAIN_LENGTH_RANGE = (6, 10)


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
            steps_per_epoch=25,
            batch_size=64,
            peak_lr=1e-3,
            warmup_epochs=5,
            decay_window_epochs=10,
            decay_every=5,
            decay_factor=0.5,
        )
    )
    flags: Flags = field(default_factory=Flags)

    def validate(self) -> None:
        """Raise ``ConfigError`` for a value that would fail a later stage or
        be silently ignored (NaN noise reads as "no noise", for example)."""
        values = dict(self._items())
        for key, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.curation not in ("pdpp", "kepp"):
            raise ConfigError(f"curation must be pdpp or kepp, got {self.curation!r}")
        data, sched = self.data, self.schedule
        horizons = f"{SUPPORTED_HORIZONS[0]}..{SUPPORTED_HORIZONS[-1]}"
        counts = ("epochs", "steps_per_epoch", "batch_size", "decay_every")
        min_actions = max(CHAIN_LENGTH_RANGE[0], data.num_tasks)  # one start action per task
        rules = (
            ("horizon", self.horizon in SUPPORTED_HORIZONS, f"lie in {horizons}"),
            ("data.num_tasks", data.num_tasks >= 1, "be positive"),
            ("data.num_actions", data.num_actions >= min_actions,
             f"be >= max({CHAIN_LENGTH_RANGE[0]}, data.num_tasks) = {min_actions}"),
            ("data.obs_dim", data.obs_dim >= 1, "be positive"),
            ("data.text_dim", data.text_dim >= 1, "be positive"),
            ("data.videos_per_task", data.videos_per_task >= 1, "be positive"),
            ("data.noise_sd", data.noise_sd >= 0.0, "be >= 0"),
            ("data.branch_prob", 0.0 <= data.branch_prob <= 1.0, "lie in [0, 1]"),
            ("data.split_ratio", 0.0 < data.split_ratio < 1.0, "lie in (0, 1)"),
            ("schedule.steps", sched.steps >= 1, "be positive"),
            ("schedule.beta_start", 0.0 < sched.beta_start <= sched.beta_end,
             "lie in (0, schedule.beta_end]"),
            ("schedule.beta_end", sched.beta_end < 1.0, "be < 1"),
        ) + tuple(  # stage settings: the counts are positive, the rest >= 0
            (key, values[key] >= 1, "be positive") if key.split(".")[1] in counts
            else (key, values[key] >= 0, "be >= 0")
            for key in values if key.split(".")[0] in ("vae", "classifier", "diffusion")
        )
        for key, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{key} must {rule}, got {values[key]}")

    def _items(self):
        """(dotted key, value) of every setting, sections flattened."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if dataclasses.is_dataclass(value):
                for sub in dataclasses.fields(value):
                    yield f"{f.name}.{sub.name}", getattr(value, sub.name)
            else:
                yield f.name, value

    def to_kv(self) -> dict[str, str]:
        return {key: _format_value(value) for key, value in self._items()}

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
    """The ``key = value`` lines of a config file; a key may be set once."""
    pairs: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        pairs[key] = value
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
