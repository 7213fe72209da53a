"""Curation windows, horizon slicing, splitting, normalization."""

import numpy as np
import pytest

from procplan.config import DataParams
from procplan.corpus import (
    Samples, Video, _chain_window_signature, generate_corpus, render_frames,
)
from procplan.curation import (
    CurationError,
    MinMaxNormalizer,
    curate_corpus,
    curate_windows,
    frame_indices,
    normalize_splits,
    slide_horizon,
    split,
    window_bounds,
)


def _fixture_video(embeddings, n_steps=6, n_frames=None):
    """Noise-free video of actions 0, 1, ... (mod the table) on the fixed
    timing: step i starts at 2 + 6i s.  ``n_frames`` keeps only the first
    frames, as a video cut short."""
    actions = [i % embeddings.shape[0] for i in range(n_steps)]
    frames = render_frames(actions, embeddings, 0.0, np.random.default_rng(0))
    return Video(task=0, actions=actions, frames=frames[:n_frames])


class TestWindowBounds:
    def test_pdpp_start_window(self):
        s, _ = window_bounds("pdpp", 10.0, 50.0)
        assert s == (10.0, 13.0)

    def test_pdpp_goal_window(self):
        _, g = window_bounds("pdpp", 10.0, 50.0)
        assert g == (48.0, 51.0)

    def test_kepp_windows(self):
        s, g = window_bounds("kepp", 10.0, 50.0)
        assert s == (9.0, 12.0)
        assert g == (49.0, 52.0)

    def test_unknown_mode(self):
        with pytest.raises(CurationError, match="mode"):
            window_bounds("other", 0.0, 1.0)

    @pytest.mark.parametrize("mode,goal", [("pdpp", (11, 11, 12)), ("kepp", (11, 12, 12))])
    def test_goal_window_shows_the_penultimate_action(self, mode, goal):
        # Windows anchor at the last action's start, so at T=3 the goal
        # window's three seconds show the plan's only intermediate action
        # (11) for two seconds under pdpp and one under kepp.
        start, seen = _chain_window_signature(list(range(10, 16)), 0, 2, mode)
        assert start == (10, 10, 10) and seen == goal

    def test_frame_selection_half_open(self):
        assert list(frame_indices(10.0, 13.0, 100)) == [10, 11, 12]
        assert list(frame_indices(-1.0, 2.0, 100)) == [0, 1]  # clamped at video start
        assert list(frame_indices(98.5, 101.5, 100)) == [99]  # clamped at video end


class TestCurateWindows:
    def test_fixture_video_window_means(self):
        emb = np.eye(6)
        video = _fixture_video(emb)
        o_s, o_g = curate_windows(video, 0, 5, "pdpp")
        # Start window [2, 5) sits inside the 6-second first action.
        assert np.array_equal(o_s, emb[0])
        # The last action starts at 32 s, so goal window [30, 33) spans
        # 2 frames of action 4 and 1 of action 5.
        assert np.allclose(o_g, (2 * emb[4] + emb[5]) / 3.0)

    def test_modes_differ_on_the_same_video(self):
        emb = np.eye(6)
        video = _fixture_video(emb)
        pdpp = curate_windows(video, 0, 5, "pdpp")
        kepp = curate_windows(video, 0, 5, "kepp")
        assert not np.array_equal(pdpp[0], kepp[0]) or not np.array_equal(pdpp[1], kepp[1])

    def test_single_action_window_returns_exact_row(self):
        corpus = generate_corpus(DataParams(noise_sd=0.0), seed=2)
        video = corpus.videos[0]
        o_s, _ = curate_windows(video, 1, 2, "pdpp")
        assert np.array_equal(o_s, corpus.action_embeddings[video.actions[1]])

    def test_empty_window_after_clamping(self):
        video = _fixture_video(np.eye(3), n_steps=3, n_frames=10)
        # The last action starts at 14 s, so its goal window [12, 15)
        # starts past the 10 stored frames.
        with pytest.raises(CurationError, match="empty"):
            curate_windows(video, 0, 2, "pdpp")

    def test_step_range_validated(self):
        video = _fixture_video(np.eye(6))
        with pytest.raises(CurationError):
            curate_windows(video, 4, 2, "pdpp")
        with pytest.raises(CurationError):
            curate_windows(video, 0, 9, "pdpp")
        with pytest.raises(CurationError, match="invalid for 0 steps"):
            curate_windows(Video(task=0, actions=[], frames=video.frames), 0, 0, "pdpp")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(DataParams(noise_sd=0.0), seed=4)


class TestSlideHorizon:
    def test_window_count(self, corpus):
        video = corpus.videos[0]
        n = len(video.actions)
        assert len(slide_horizon(corpus, video, 3, "pdpp")) == n - 2
        assert len(slide_horizon(corpus, video, n, "pdpp")) == 1

    def test_short_video_yields_nothing(self, corpus):
        video = _fixture_video(corpus.action_embeddings, n_steps=2)
        assert len(slide_horizon(corpus, video, 3, "pdpp")) == 0

    def test_sample_k_covers_steps_k_through_k_plus_t(self, corpus):
        video = corpus.videos[0]
        actions = video.actions
        samples = slide_horizon(corpus, video, 3, "pdpp")
        assert samples.actions.tolist() == [actions[k : k + 3] for k in range(len(actions) - 2)]
        assert np.array_equal(samples.task, np.full(len(samples), video.task))

    def test_language_rows_match_first_and_last_action(self, corpus):
        video = corpus.videos[0]
        samples = slide_horizon(corpus, video, 4, "kepp")
        assert np.array_equal(samples.n_es, corpus.language_embeddings[samples.actions[:, 0]])
        assert np.array_equal(samples.n_eg, corpus.language_embeddings[samples.actions[:, -1]])

    def test_total_count_formula(self, corpus):
        horizon = 4
        expected = sum(max(0, len(v.actions) - horizon + 1) for v in corpus.videos)
        assert len(curate_corpus(corpus, horizon, "pdpp")) == expected

    def test_horizon_must_be_at_least_two(self, corpus):
        with pytest.raises(CurationError):
            slide_horizon(corpus, corpus.videos[0], 1, "pdpp")


def _dummy_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    return Samples(
        task=rng.integers(0, 3, size=n),
        actions=rng.integers(0, 5, size=(n, 3)),
        o_s=rng.normal(size=(n, 4)),
        o_g=rng.normal(size=(n, 4)),
        n_es=rng.normal(size=(n, 2)),
        n_eg=rng.normal(size=(n, 2)),
    )


def _row_ids(samples):
    """Each row's first observation value, unique in the dummy samples."""
    return samples.o_s[:, 0].tolist()


class TestSplit:
    def test_seventy_thirty(self):
        train, test = split(_dummy_samples(100), 0.7, seed=0)
        assert len(train) == 70 and len(test) == 30

    def test_same_seed_same_split(self):
        samples = _dummy_samples(50)
        a = split(samples, 0.7, seed=3)
        b = split(samples, 0.7, seed=3)
        assert _row_ids(a[0]) == _row_ids(b[0])

    def test_union_preserves_input(self):
        samples = _dummy_samples(31)
        train, test = split(samples, 0.7, seed=1)
        assert sorted(_row_ids(train) + _row_ids(test)) == sorted(_row_ids(samples))
        for part in (train, test):
            rows = [_row_ids(samples).index(r) for r in _row_ids(part)]
            for field in ("task", "actions", "o_s", "o_g", "n_es", "n_eg"):
                assert np.array_equal(getattr(part, field), getattr(samples, field)[rows])

    def test_bad_inputs(self):
        with pytest.raises(CurationError):
            split(_dummy_samples(0), 0.7)
        with pytest.raises(CurationError):
            split(_dummy_samples(5), 1.0)

    @pytest.mark.parametrize("ratio, counts", [(0.999, "54 train / 0 test"),
                                               (0.001, "0 train / 54 test")],
                             ids=["no-test", "no-train"])
    def test_empty_side_refused(self, ratio, counts):
        with pytest.raises(CurationError, match=f"split ratio {ratio} leaves {counts} samples of 54"):
            split(_dummy_samples(54), ratio)


class TestNormalization:
    def test_outputs_in_unit_interval(self):
        train, test = split(_dummy_samples(40), 0.7, seed=0)
        train_n, test_n = normalize_splits(train, test)
        for part in (train_n, test_n):
            for vec in (part.o_s, part.o_g, part.n_es, part.n_eg):
                assert vec.min() >= 0.0 and vec.max() <= 1.0

    def test_train_extremes_map_to_bounds(self):
        train = _dummy_samples(40)
        norm = MinMaxNormalizer.fit(train)
        scaled = norm.apply(train)
        obs = np.concatenate([scaled.o_s, scaled.o_g])
        assert np.allclose(obs.min(axis=0), 0.0)
        assert np.allclose(obs.max(axis=0), 1.0)

    def test_test_split_is_clipped(self):
        train = _dummy_samples(10, seed=1)
        out_of_range = _dummy_samples(10, seed=2)
        out_of_range.o_s[:] = 100.0
        norm = MinMaxNormalizer.fit(train)
        assert norm.apply(out_of_range).o_s.max() == 1.0

    def test_constant_dimension_maps_to_half(self):
        train = _dummy_samples(10, seed=3)
        train.o_s[:, 1] = 7.0
        train.o_g[:, 1] = 7.0
        norm = MinMaxNormalizer.fit(train)
        assert np.all(norm.apply(train).o_g[:, 1] == 0.5)
