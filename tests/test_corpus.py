"""Synthetic corpus generator: determinism, grammar shape, feasibility."""

import numpy as np
import pytest

from procplan.config import DataParams
from procplan.corpus import (
    LEAD_IN_SECONDS,
    STEP_SECONDS,
    CorpusError,
    frame_count,
    generate_corpus,
    step_at,
)


@pytest.fixture(scope="module")
def noise_free():
    return generate_corpus(DataParams(noise_sd=0.0), seed=5)


class TestGeneration:
    def test_niv_scale_video_count(self):
        corpus = generate_corpus(DataParams(num_tasks=5, num_actions=12, videos_per_task=30), seed=0)
        assert len(corpus.videos) == 150

    def test_noise_free_frames_equal_embedding_rows(self, noise_free):
        # A 2 s lead-in showing the first action, then 6 s per action.
        for video in noise_free.videos[:5]:
            shown = [video.actions[0]] * 2 + [a for a in video.actions for _ in range(6)]
            assert len(video.frames) == len(shown)
            assert np.array_equal(video.frames, noise_free.action_embeddings[shown])

    def test_same_seed_gives_byte_identical_corpora(self):
        a, b = generate_corpus(DataParams(), seed=7), generate_corpus(DataParams(), seed=7)
        assert np.array_equal(a.action_embeddings, b.action_embeddings)
        assert np.array_equal(a.language_embeddings, b.language_embeddings)
        assert a.task_chains == b.task_chains
        assert all(
            np.array_equal(va.frames, vb.frames) and va.actions == vb.actions
            for va, vb in zip(a.videos, b.videos)
        )

    def test_different_seeds_differ(self):
        a = generate_corpus(DataParams(), seed=1)
        b = generate_corpus(DataParams(), seed=2)
        assert not np.array_equal(a.action_embeddings, b.action_embeddings)

    def test_chain_shape(self, noise_free):
        data = DataParams()
        starts = [chain[0] for chain in noise_free.task_chains]
        assert len(set(starts)) == data.num_tasks  # disjoint start actions
        for chain in noise_free.task_chains:
            assert 6 <= len(chain) <= 10
            assert len(set(chain)) == len(chain)  # no repeats inside a chain
            assert all(0 <= a < data.num_actions for a in chain)

    def test_videos_follow_their_chain_by_default(self, noise_free):
        for video in noise_free.videos:
            assert video.actions == noise_free.task_chains[video.task]

    def test_branch_substitutions_alter_some_videos(self):
        corpus = generate_corpus(DataParams(branch_prob=0.5), seed=3)
        altered = sum(v.actions != corpus.task_chains[v.task] for v in corpus.videos)
        assert altered > 0

    def test_steps_are_contiguous_and_ordered(self, noise_free):
        # Past the lead-in, each step shows for STEP_SECONDS frames in order.
        for video in noise_free.videos[:5]:
            n = len(video.actions)
            shown = step_at(np.arange(frame_count(n)), n)
            lead_in = int(LEAD_IN_SECONDS)
            assert np.all(shown[:lead_in] == 0)
            assert np.array_equal(shown[lead_in:], np.repeat(np.arange(n), int(STEP_SECONDS)))


class TestFeasibility:
    def test_more_tasks_than_actions_rejected(self):
        with pytest.raises(CorpusError, match="disjoint-start"):
            generate_corpus(DataParams(num_tasks=9, num_actions=8), seed=0)

    def test_too_few_actions_for_a_chain_rejected(self):
        with pytest.raises(CorpusError, match="disjoint-start"):
            generate_corpus(DataParams(num_tasks=2, num_actions=5), seed=0)

    def test_bad_counts_rejected(self):
        with pytest.raises(CorpusError):
            generate_corpus(DataParams(videos_per_task=0), seed=0)
        with pytest.raises(CorpusError):
            generate_corpus(DataParams(num_tasks=0), seed=0)
        with pytest.raises(CorpusError):
            generate_corpus(DataParams(obs_dim=0), seed=0)


class TestStepTiming:
    def test_step_at_clamps_outside_range(self):
        assert step_at([0.0, 1.0, 2.0, 7.0, 8.0, 13.0, 14.0, 99.0], 2).tolist() == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]
