"""Synthetic instructional-video corpus.

Each task owns a canonical chain of 6-10 distinct actions whose first
action is unique to the task.  Videos replay their task's chain as
contiguous fixed-length segments; frame features are the active action's
embedding row plus Gaussian noise.  Chain sets are rejection-sampled until
the curated start/goal observations identify the task for every window at
every supported horizon, which is what gives the default corpus a
success-rate ceiling of 1.0: the planning inputs determine the
intermediate actions exactly.

Per-video branch substitutions (``branch_prob`` > 0) deliberately break
that guarantee and default to off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .config import CHAIN_LENGTH_RANGE, SUPPORTED_HORIZONS, DataParams

LEAD_IN_SECONDS = 2.0
STEP_SECONDS = 6.0
_MAX_CHAIN_ATTEMPTS = 500


class CorpusError(Exception):
    """Corpus configuration is invalid or infeasible."""


@dataclass(frozen=True)
class Step:
    action: int
    start: float
    end: float


@dataclass
class Video:
    task: int
    steps: list[Step]
    frames: np.ndarray  # [n_frames, obs_dim], one feature row per second

    def __post_init__(self) -> None:
        for step in self.steps:
            if step.start >= step.end:
                raise CorpusError(f"step {step} has start >= end")
        for a, b in zip(self.steps, self.steps[1:]):
            if b.start < a.end:
                raise CorpusError("steps must be temporally ordered and non-overlapping")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class Samples:
    """Curated examples as row-aligned arrays: task labels [N], action
    indices [N, T], start/goal observations [N, obs_dim] and start/goal
    language vectors [N, text_dim]."""

    task: np.ndarray
    actions: np.ndarray
    o_s: np.ndarray
    o_g: np.ndarray
    n_es: np.ndarray
    n_eg: np.ndarray

    def __len__(self) -> int:
        return len(self.task)

    def take(self, idx) -> Samples:
        """The rows ``idx`` selects, in its order (a slice gives views)."""
        return Samples(*(getattr(self, f.name)[idx] for f in fields(self)))

    @staticmethod
    def concat(parts: list[Samples]) -> Samples:
        return Samples(
            *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Samples))
        )

    def states(self) -> np.ndarray:
        """[N, 2, obs_dim + text_dim] autoencoder inputs, start then goal,
        each its observation then its language vector."""
        start = np.concatenate([self.o_s, self.n_es], axis=1)
        goal = np.concatenate([self.o_g, self.n_eg], axis=1)
        return np.stack([start, goal], axis=1)


@dataclass
class Corpus:
    action_embeddings: np.ndarray  # [A, obs_dim]
    language_embeddings: np.ndarray  # [A, text_dim]
    task_chains: list[list[int]]
    videos: list[Video] = field(default_factory=list)


def active_step_index(steps: list[Step], t: float) -> int:
    """Step active at time t; times outside the steps clamp to the nearest."""
    if t < steps[0].start:
        return 0
    for i, step in enumerate(steps):
        if t < step.end:
            return i
    return len(steps) - 1


def render_frames(
    steps: list[Step],
    embeddings: np.ndarray,
    n_frames: int,
    noise_sd: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One feature row per integer second: active action's row plus noise."""
    obs_dim = embeddings.shape[1]
    frames = np.empty((n_frames, obs_dim))
    for t in range(n_frames):
        frames[t] = embeddings[steps[active_step_index(steps, float(t))].action]
    if noise_sd > 0.0:
        frames += noise_sd * rng.standard_normal(frames.shape)
    return frames


def _chain_window_signature(
    chain: list[int], first_idx: int, last_idx: int, mode: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Action labels visible in the noise-free start/goal windows.

    Uses the same window bounds and frame selection as live curation, so
    the identifiability check below cannot drift from what the models see.
    """
    from .curation import frame_indices, window_bounds

    steps = [
        Step(a, LEAD_IN_SECONDS + i * STEP_SECONDS, LEAD_IN_SECONDS + (i + 1) * STEP_SECONDS)
        for i, a in enumerate(chain)
    ]
    n_frames = int(LEAD_IN_SECONDS + STEP_SECONDS * len(chain))
    (s0, s1), (g0, g1) = window_bounds(mode, steps[first_idx].start, steps[last_idx].start)
    sig_s = tuple(chain[active_step_index(steps, float(t))] for t in frame_indices(s0, s1, n_frames))
    sig_g = tuple(chain[active_step_index(steps, float(t))] for t in frame_indices(g0, g1, n_frames))
    return sig_s, sig_g


def _chains_identifiable(chains: list[list[int]]) -> bool:
    """No two tasks may curate identical start/goal observations."""
    for mode in ("pdpp", "kepp"):
        for horizon in SUPPORTED_HORIZONS:
            seen: dict[tuple, int] = {}
            for task, chain in enumerate(chains):
                for i in range(len(chain) - horizon + 1):
                    sig = _chain_window_signature(chain, i, i + horizon - 1, mode)
                    owner = seen.setdefault(sig, task)
                    if owner != task:
                        return False
    return True


def _draw_chains(data: DataParams, rng: np.random.Generator) -> list[list[int]]:
    lo, hi = CHAIN_LENGTH_RANGE
    max_len = min(hi, data.num_actions)
    starts = rng.permutation(data.num_actions)[: data.num_tasks]
    chains: list[list[int]] = []
    for task in range(data.num_tasks):
        length = int(rng.integers(lo, max_len + 1))
        pool = [a for a in range(data.num_actions) if a != starts[task]]
        body = rng.permutation(len(pool))[: length - 1]
        chains.append([int(starts[task])] + [pool[i] for i in body])
    return chains


def generate_corpus(data: DataParams, seed: int) -> Corpus:
    """Deterministic corpus for ``data``; same seed, same bytes.
    ``split_ratio`` is read by ``curation.split``, not here."""
    c, a = data.num_tasks, data.num_actions
    if c < 1 or a < 2:
        raise CorpusError(f"need num_tasks >= 1 and num_actions >= 2, got {c}/{a}")
    if data.videos_per_task < 1:
        raise CorpusError("videos_per_task must be >= 1")
    if a < c or a < CHAIN_LENGTH_RANGE[0]:
        raise CorpusError(
            f"num_actions={a} is too small to build {c} disjoint-start chains "
            f"of length >= {CHAIN_LENGTH_RANGE[0]}"
        )
    if data.obs_dim < 1 or data.text_dim < 1:
        raise CorpusError("obs_dim and text_dim must be positive")

    rng = np.random.default_rng(seed)
    action_embeddings = rng.random((a, data.obs_dim))
    language_embeddings = rng.random((a, data.text_dim))

    chains: list[list[int]] | None = None
    for _ in range(_MAX_CHAIN_ATTEMPTS):
        candidate = _draw_chains(data, rng)
        if _chains_identifiable(candidate):
            chains = candidate
            break
    if chains is None:
        raise CorpusError(
            f"could not build {c} identifiable chains over {a} actions "
            f"after {_MAX_CHAIN_ATTEMPTS} attempts"
        )

    corpus = Corpus(action_embeddings, language_embeddings, chains)
    for task in range(c):
        chain = chains[task]
        for _ in range(data.videos_per_task):
            actions = list(chain)
            if data.branch_prob > 0.0:
                for pos in range(1, len(actions) - 1):
                    if rng.random() < data.branch_prob:
                        actions[pos] = int(rng.integers(0, a))
            steps = [
                Step(
                    action,
                    LEAD_IN_SECONDS + i * STEP_SECONDS,
                    LEAD_IN_SECONDS + (i + 1) * STEP_SECONDS,
                )
                for i, action in enumerate(actions)
            ]
            n_frames = int(LEAD_IN_SECONDS + STEP_SECONDS * len(actions))
            frames = render_frames(steps, action_embeddings, n_frames, data.noise_sd, rng)
            corpus.videos.append(Video(task=task, steps=steps, frames=frames))
    return corpus
