"""Window curation, horizon slicing, splitting and normalization.

Two curation settings map an action's start time to the seconds-window
whose averaged frame features become the start/goal observation:

    pdpp  start [t_first, t_first + 3],  goal [t_last - 2, t_last + 1]
    kepp  start [t_first - 1, t_first + 2],  goal [t_last - 1, t_last + 2]

with t_first / t_last the start times of the window's first and last
action, read off the corpus's fixed step timing (``corpus.step_start``).
The window geometry (``window_bounds``, ``frame_indices``) lives in
``corpus`` beside that timing and is re-exported here.  Generated windows
never reach a video's edge; ``frame_indices`` still clamps to the stored
frames, and a window left empty raises ``CurationError``.  Because the
goal window is anchored at the last action's start, it shows the
penultimate action for 2 of its 3 s under pdpp and for 1 of 3 s under
kepp; at T=3 that action is the plan's only intermediate action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, CurationError, Samples, Video, frame_indices, step_start, window_bounds


def curate_windows(
    video: Video, first_step: int, last_step: int, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Mean frame features over the mode's start and goal windows."""
    n_steps = len(video.actions)
    if not (0 <= first_step <= last_step < n_steps):
        raise CurationError(f"step range [{first_step}, {last_step}] invalid for {n_steps} steps")
    observations = []
    for lo, hi in window_bounds(mode, step_start(first_step), step_start(last_step)):
        idx = frame_indices(lo, hi, len(video.frames))
        if len(idx) == 0:
            raise CurationError(f"window [{lo}, {hi}] is empty after clamping")
        rows = video.frames[list(idx)]
        if np.all(rows == rows[0]):
            # Mean of identical rows must be that row bit-exactly; summing
            # and dividing would round.
            observations.append(rows[0].copy())
        else:
            observations.append(rows.mean(axis=0))
    return observations[0], observations[1]


def slide_horizon(corpus: Corpus, video: Video, horizon: int, mode: str) -> Samples:
    """One sample per contiguous action window of the given horizon.

    Videos shorter than the horizon yield no samples.  Language vectors
    are the table rows of the window's first and last action.
    """
    if horizon < 2:
        raise CurationError(f"horizon must be >= 2, got {horizon}")
    n = max(0, len(video.actions) - horizon + 1)
    actions = np.array([video.actions[i : i + horizon] for i in range(n)], dtype=np.int64)
    actions = actions.reshape(n, horizon)
    o_s = np.empty((n, video.frames.shape[1]))
    o_g = np.empty_like(o_s)
    for i in range(n):
        o_s[i], o_g[i] = curate_windows(video, i, i + horizon - 1, mode)
    return Samples(
        task=np.full(n, video.task, dtype=np.int64),
        actions=actions,
        o_s=o_s,
        o_g=o_g,
        n_es=corpus.language_embeddings[actions[:, 0]],
        n_eg=corpus.language_embeddings[actions[:, -1]],
    )


def curate_corpus(corpus: Corpus, horizon: int, mode: str) -> Samples:
    return Samples.concat([slide_horizon(corpus, video, horizon, mode) for video in corpus.videos])


def split(samples: Samples, ratio: float = 0.7, seed: int = 0) -> tuple[Samples, Samples]:
    """Seeded shuffle into disjoint, exhaustive train/test row sets."""
    if not len(samples):
        raise CurationError("cannot split an empty sample set")
    if not 0.0 < ratio < 1.0:
        raise CurationError(f"split ratio must lie in (0, 1), got {ratio}")
    n_train = int(round(len(samples) * ratio))
    if not 0 < n_train < len(samples):
        raise CurationError(
            f"split ratio {ratio} leaves {n_train} train / {len(samples) - n_train} test "
            f"samples of {len(samples)}; each side needs one or more"
        )
    order = np.random.default_rng(seed).permutation(len(samples))
    return samples.take(order[:n_train]), samples.take(order[n_train:])


@dataclass
class MinMaxNormalizer:
    """Per-dimension min-max scaling fitted on the training split.

    Observation and language dimensions are scaled independently; applied
    values are clipped to [0, 1] so test samples outside the training
    range stay valid targets for the state autoencoder's BCE loss.
    """

    obs_lo: np.ndarray
    obs_hi: np.ndarray
    text_lo: np.ndarray
    text_hi: np.ndarray

    @classmethod
    def fit(cls, samples: Samples) -> "MinMaxNormalizer":
        if not len(samples):
            raise CurationError("cannot fit a normalizer on no samples")
        obs = np.concatenate([samples.o_s, samples.o_g])
        text = np.concatenate([samples.n_es, samples.n_eg])
        return cls(
            obs_lo=obs.min(axis=0),
            obs_hi=obs.max(axis=0),
            text_lo=text.min(axis=0),
            text_hi=text.max(axis=0),
        )

    @staticmethod
    def _scale(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        span = hi - lo
        flat = span < 1e-12
        safe = np.where(flat, 1.0, span)
        out = (v - lo) / safe
        out[np.broadcast_to(flat, out.shape)] = 0.5
        return np.clip(out, 0.0, 1.0)

    def apply(self, samples: Samples) -> Samples:
        return replace(
            samples,
            o_s=self._scale(samples.o_s, self.obs_lo, self.obs_hi),
            o_g=self._scale(samples.o_g, self.obs_lo, self.obs_hi),
            n_es=self._scale(samples.n_es, self.text_lo, self.text_hi),
            n_eg=self._scale(samples.n_eg, self.text_lo, self.text_hi),
        )


def normalize_splits(train: Samples, test: Samples) -> tuple[Samples, Samples]:
    """Both splits scaled by the normalizer fitted on ``train``."""
    norm = MinMaxNormalizer.fit(train)
    return norm.apply(train), norm.apply(test)
