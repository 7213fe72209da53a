"""Synthetic instructional-video corpus, its step timing and window geometry.

Each task owns a canonical chain of 6-10 distinct actions whose first
action is unique to the task.  A video replays its task's action list on
one fixed timing: a ``LEAD_IN_SECONDS`` lead-in, then ``STEP_SECONDS`` per
action, so step i covers seconds [LEAD_IN + i*STEP, LEAD_IN + (i+1)*STEP).
Frames land at one feature row per second, the row of the action that
``step_at`` maps the second to plus Gaussian noise.  The start/goal
window geometry (``window_bounds``, ``frame_indices``) lives here too, so
the identifiability check and live curation read the same windows.
Chain sets are rejection-sampled until the curated start/goal
observations identify the task for every window at every supported
horizon, which is what gives the default corpus a success-rate ceiling of
1.0: the planning inputs determine the intermediate actions exactly.

Per-video branch substitutions (``branch_prob`` > 0) deliberately break
that guarantee and default to off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import CHAIN_LENGTH_RANGE, SUPPORTED_HORIZONS, DataParams

LEAD_IN_SECONDS = 2.0
STEP_SECONDS = 6.0
_MAX_CHAIN_ATTEMPTS = 500


class CorpusError(Exception):
    """Corpus configuration is invalid or infeasible."""


class CurationError(Exception):
    """Window curation failed for a video."""


def step_start(i: int) -> float:
    """Second at which step ``i`` begins."""
    return LEAD_IN_SECONDS + i * STEP_SECONDS


def frame_count(n_steps: int) -> int:
    """Frames of a video of ``n_steps`` actions, one per second."""
    return int(step_start(n_steps))


def step_at(seconds, n_steps: int) -> np.ndarray:
    """Index of the step each frame second shows; seconds before the first
    step or after the last clamp to it."""
    steps = (np.asarray(seconds) - LEAD_IN_SECONDS) // STEP_SECONDS
    return np.clip(steps, 0, n_steps - 1).astype(np.intp)


_WINDOW_OFFSETS = {
    "pdpp": ((0.0, 3.0), (-2.0, 1.0)),
    "kepp": ((-1.0, 2.0), (-1.0, 2.0)),
}


def window_bounds(
    mode: str, t_first: float, t_last: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Unclamped (start_window, goal_window) second-ranges for a mode."""
    if mode not in _WINDOW_OFFSETS:
        raise CurationError(f"unknown curation mode {mode!r}, expected pdpp or kepp")
    (s_lo, s_hi), (g_lo, g_hi) = _WINDOW_OFFSETS[mode]
    return (t_first + s_lo, t_first + s_hi), (t_last + g_lo, t_last + g_hi)


def frame_indices(lo: float, hi: float, n_frames: int) -> range:
    """Integer seconds whose frame starts inside [lo, hi), clamped."""
    start = max(0, math.ceil(lo))
    stop = min(n_frames, math.ceil(hi))
    return range(start, stop)


@dataclass
class Video:
    task: int
    actions: list[int]  # one per step, in order, on the fixed timing
    frames: np.ndarray  # [n_frames, obs_dim], one feature row per second


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


def render_frames(
    actions: list[int], embeddings: np.ndarray, noise_sd: float, rng: np.random.Generator
) -> np.ndarray:
    """One feature row per second of the video: the shown action's row
    plus noise."""
    seconds = np.arange(frame_count(len(actions)))
    frames = embeddings[np.asarray(actions)[step_at(seconds, len(actions))]]
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
    n, labels = len(chain), np.asarray(chain)
    windows = window_bounds(mode, step_start(first_idx), step_start(last_idx))
    sig_s, sig_g = (
        tuple(labels[step_at(frame_indices(lo, hi, frame_count(n)), n)].tolist())
        for lo, hi in windows
    )
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
            frames = render_frames(actions, action_embeddings, data.noise_sd, rng)
            corpus.videos.append(Video(task=task, actions=actions, frames=frames))
    return corpus
