"""Shared fixtures: shrunken architectures, the synthetic desk corpus and
a tracemalloc probe."""

import tracemalloc

import numpy as np
import pytest

from wavems.datasets import synth_dataset
from wavems.model import BranchSpec, ModelConfig


def tiny_model_config(**overrides) -> ModelConfig:
    """Shrunken architecture for gradient checks and fast training tests.

    300-sample window, 20 time bins, conv channels 4/8/8/8, level maps
    pooled to 2x2. Per-level pool windows are chosen so all four level maps
    stay at or above the 2x2 target.
    """
    defaults = dict(
        branches=(BranchSpec(7, 1, 4), BranchSpec(11, 2, 4), BranchSpec(15, 3, 4)),
        phase_filter_len=3,
        phase_stride=1,
        frontend_time_bins=20,
        conv_channels=(4, 8, 8, 8),
        level_pool_windows=((2, 2), (2, 2), (1, 2), (1, 1)),
        level_pool_target=(2, 2),
        last_n_levels=4,
        fc_hidden=16,
        num_classes=3,
        window_length=300,
        sample_rate=4410,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def desk_model_config(**overrides) -> ModelConfig:
    """Desk-scale architecture: 1 s windows at 4410 Hz, 5 classes."""
    defaults = dict(
        branches=(BranchSpec(11, 1, 11), BranchSpec(51, 5, 11), BranchSpec(101, 10, 10)),
        phase_filter_len=3,
        phase_stride=1,
        frontend_time_bins=64,
        conv_channels=(8, 16, 16, 16),
        level_pool_windows=((2, 2), (2, 2), (2, 2), (2, 2)),
        level_pool_target=(2, 2),
        last_n_levels=4,
        fc_hidden=64,
        num_classes=5,
        window_length=4410,
        sample_rate=4410,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def graph_nodes(root) -> int:
    """Op outputs reachable from ``root``, itself included."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += bool(node._parents)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def traced(fn):
    """Run ``fn()`` under tracemalloc: its result, then the bytes traced as
    held when it returned and at peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


@pytest.fixture(scope="session")
def desk_corpus():
    """5 classes x 40 clips at 4410 Hz, 5 folds; shared across the session."""
    manifest, clips = synth_dataset(num_classes=5, clips_per_class=40,
                                    clip_seconds=2.0, sample_rate=4410, seed=11)
    return manifest, clips


@pytest.fixture
def rng():
    return np.random.default_rng(42)
