"""Importance scores, the gradient accumulator, and the divergence diagnostic."""

import numpy as np
import pytest

from spiderft.errors import AlignmentError, ConfigError, UninitializedError
from spiderft.importance import (
    GradAccumulator,
    accumulate_gradient,
    generalization_importance,
    pid,
    pid_per_tensor,
    specialization_importance,
)

from helpers import tmap

# sigmoid(+-1 / sqrt(2/3)) for the [1,2,3] magnitude profile
SIG_LO = 0.22710251943568419
SIG_HI = 0.7728974805643157


# ---------------------------------------------------------------------------
# Generalization importance
# ---------------------------------------------------------------------------


def test_generalization_importance_three_point_example():
    scores = generalization_importance(tmap(w=[1.0, 2.0, 3.0]))
    np.testing.assert_allclose(
        scores["w"].data, [SIG_LO, 0.5, SIG_HI], rtol=0, atol=1e-9
    )


def test_generalization_importance_uses_magnitudes():
    # |-2| == |2|: magnitudes tie, z-scores vanish, everything lands at 0.5
    scores = generalization_importance(tmap(w=[-2.0, 2.0]))
    np.testing.assert_array_equal(scores["w"].data, [0.5, 0.5])


def test_generalization_importance_constant_weights():
    scores = generalization_importance(tmap(w=[3.0, 3.0, 3.0]))
    np.testing.assert_array_equal(scores["w"].data, [0.5, 0.5, 0.5])


def test_generalization_importance_scale_invariant():
    rng = np.random.default_rng(11)
    w = rng.normal(size=40)
    a = generalization_importance(tmap(w=w))["w"].data
    b = generalization_importance(tmap(w=7.0 * w))["w"].data
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_generalization_importance_preserves_magnitude_ranking():
    rng = np.random.default_rng(12)
    w = rng.normal(size=25)
    scores = generalization_importance(tmap(w=w))["w"].data
    assert np.array_equal(np.argsort(np.abs(w)), np.argsort(scores))


def test_generalization_importance_strictly_interior():
    scores = generalization_importance(tmap(w=[0.0, 1e9]))["w"].data
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


# ---------------------------------------------------------------------------
# Gradient accumulator
# ---------------------------------------------------------------------------


def test_first_observation_seeds_with_abs_grad():
    state = GradAccumulator.empty(tmap(w=[0.0, 0.0]), beta=0.9)
    accumulate_gradient(state, tmap(w=[-4.0, 2.0]))
    np.testing.assert_array_equal(state.acc["w"].data, [4.0, 2.0])
    assert state.initialized


def test_decay_step_example():
    state = GradAccumulator(acc=tmap(w=[4.0, 2.0]), beta=0.9, initialized=True)
    accumulate_gradient(state, tmap(w=[0.0, 0.0]))
    np.testing.assert_allclose(state.acc["w"].data, [3.6, 1.8], rtol=0, atol=1e-12)


def test_half_beta_example():
    state = GradAccumulator(acc=tmap(w=[1.0]), beta=0.5, initialized=True)
    accumulate_gradient(state, tmap(w=[-3.0]))
    np.testing.assert_allclose(state.acc["w"].data, [2.0], rtol=0, atol=1e-12)


def test_beta_zero_tracks_latest_abs_grad():
    state = GradAccumulator.empty(tmap(w=[0.0, 0.0]), beta=0.0)
    accumulate_gradient(state, tmap(w=[5.0, 5.0]))
    accumulate_gradient(state, tmap(w=[-1.0, 2.0]))
    np.testing.assert_array_equal(state.acc["w"].data, [1.0, 2.0])


def test_accumulator_updates_in_place():
    state = GradAccumulator.empty(tmap(w=[0.0]), beta=0.9)
    buffer = state.acc["w"].data
    accumulate_gradient(state, tmap(w=[1.0]))
    accumulate_gradient(state, tmap(w=[2.0]))
    assert np.shares_memory(state.acc["w"].data, buffer)


def test_accumulator_alignment_check():
    state = GradAccumulator.empty(tmap(w=[0.0]), beta=0.9)
    with pytest.raises(AlignmentError):
        accumulate_gradient(state, tmap(v=[1.0]))


def test_accumulator_rejects_bad_beta():
    with pytest.raises(ConfigError):
        GradAccumulator.empty(tmap(w=[0.0]), beta=1.0)


# ---------------------------------------------------------------------------
# Specialization importance
# ---------------------------------------------------------------------------


def test_specialization_importance_two_point_example():
    state = GradAccumulator(acc=tmap(w=[0.0, 2.0]), beta=0.9, initialized=True)
    scores = specialization_importance(state)
    np.testing.assert_allclose(
        scores["w"].data,
        [0.2689414213699951, 0.7310585786300049],
        rtol=0,
        atol=1e-9,
    )


def test_specialization_importance_requires_initialization():
    state = GradAccumulator.empty(tmap(w=[0.0]), beta=0.9)
    with pytest.raises(UninitializedError):
        specialization_importance(state)


def test_importance_scores_share_the_unit_scale():
    # both kinds come from the same sigmoid(zscore(.)) pipeline, so equal
    # inputs produce numerically equal scores
    values = [0.3, 1.2, 0.8, 2.5]
    g = generalization_importance(tmap(w=values))["w"].data
    state = GradAccumulator(acc=tmap(w=values), beta=0.9, initialized=True)
    s = specialization_importance(state)["w"].data
    np.testing.assert_array_equal(g, s)


# ---------------------------------------------------------------------------
# Importance-profile divergence
# ---------------------------------------------------------------------------


def test_pid_parallel_profiles():
    assert abs(pid(tmap(w=[1.0, 1.0]), tmap(w=[2.0, 2.0])) - 1.0) < 1e-12


def test_pid_45_degree_example():
    value = pid(tmap(w=[1.0, 1.0]), tmap(w=[1.0, 0.0]))
    assert abs(value - 2.0) < 1e-9


def test_pid_orthogonal_profiles_hit_the_floor():
    value = pid(tmap(w=[1.0, 0.0]), tmap(w=[0.0, 1.0]))
    assert abs(value - 1e12) / 1e12 < 1e-12


def test_pid_at_least_one():
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = tmap(w=rng.normal(size=30))
        g = tmap(w=rng.normal(size=30))
        assert pid(w, g) >= 1.0


def test_pid_self_divergence_is_one():
    rng = np.random.default_rng(14)
    w = rng.normal(size=50)
    assert abs(pid(tmap(w=w), tmap(w=w)) - 1.0) < 1e-9


def test_pid_uses_magnitudes_not_signs():
    w = tmap(w=[1.0, -2.0, 3.0])
    g = tmap(w=[-1.0, 2.0, -3.0])
    assert abs(pid(w, g) - 1.0) < 1e-12


def test_pid_per_tensor_matches_single_tensor_global():
    w = tmap(a=[1.0, 1.0], b=[1.0, 0.5])
    g = tmap(a=[1.0, 0.0], b=[2.0, 1.0])
    per = pid_per_tensor(w, g)
    assert set(per) == {"a", "b"}
    assert abs(per["a"] - 2.0) < 1e-9
    assert abs(per["a"] - pid(tmap(a=[1.0, 1.0]), tmap(a=[1.0, 0.0]))) < 1e-12


def test_pid_alignment_check():
    with pytest.raises(AlignmentError):
        pid(tmap(w=[1.0]), tmap(v=[1.0]))
