"""Update masks, the pretrained-weight merge, and the random baselines."""

import logging

import numpy as np
import pytest

from spiderft.errors import AlignmentError, ConfigError
from spiderft.importance import (
    GradAccumulator,
    generalization_importance,
    specialization_importance,
)
from spiderft.masking import (
    MaskRule,
    UpdateMask,
    binary_mask,
    dare_mask_and_rescale,
    dare_merge,
    merge,
    random_half_mask,
    rescale_mask,
    weighted_mask,
)
from helpers import tmap


def scores_pair(g_values, i_values):
    return tmap(w=g_values), tmap(w=i_values)


def random_scores_pair(seed, size=200):
    rng = np.random.default_rng(seed)
    return scores_pair(rng.uniform(0.01, 0.99, size), rng.uniform(0.01, 0.99, size))


def weighted_of(values):
    return UpdateMask(tmap(w=values))


# ---------------------------------------------------------------------------
# Binary mask
# ---------------------------------------------------------------------------


def test_binary_mask_examples():
    g, i = scores_pair([0.6, 0.4], [0.5, 0.5])
    np.testing.assert_array_equal(binary_mask(g, i).mask["w"].data, [1.0, 0.0])

    g, i = scores_pair([0.9, 0.8, 0.1], [0.1, 0.9, 0.9])
    np.testing.assert_array_equal(binary_mask(g, i).mask["w"].data, [1.0, 0.0, 0.0])


def test_binary_mask_ties_deselect():
    g, i = scores_pair([0.5, 0.7], [0.5, 0.7])
    np.testing.assert_array_equal(binary_mask(g, i).mask["w"].data, [0.0, 0.0])


def test_binary_mask_alignment():
    g = tmap(w=[0.6])
    i = tmap(v=[0.5])
    with pytest.raises(AlignmentError):
        binary_mask(g, i)


# ---------------------------------------------------------------------------
# Weighted mask
# ---------------------------------------------------------------------------


def test_weighted_mask_discrepancy_example():
    g, i = scores_pair([0.6], [0.5])
    value = weighted_mask(g, i).mask["w"].data[0]
    assert abs(value - 0.6 / 1.1) < 1e-12


def test_weighted_mask_tie_gives_zero():
    g, i = scores_pair([0.5], [0.5])
    assert weighted_mask(g, i).mask["w"].data[0] == 0.0


def test_weighted_mask_two_entry_example():
    g, i = scores_pair([0.9, 0.2], [0.1, 0.4])
    np.testing.assert_allclose(
        weighted_mask(g, i).mask["w"].data, [0.9, 0.0], rtol=0, atol=1e-12
    )


def test_weighted_mask_selected_entries_land_in_open_half_interval():
    g, i = random_scores_pair(21)
    values = weighted_mask(g, i).mask["w"].data
    selected = values[values != 0.0]
    assert np.all(selected > 0.5)
    assert np.all(selected < 1.0)


# ---------------------------------------------------------------------------
# Rescaled mask
# ---------------------------------------------------------------------------


def test_rescale_mask_example():
    out = rescale_mask(weighted_of([0.0, 0.5, 0.75]))
    np.testing.assert_allclose(out.mask["w"].data, [0.0, 0.8, 1.0], rtol=0, atol=1e-12)
    assert not out.empty_selection


def test_rescale_mask_uniform_entries_saturate():
    out = rescale_mask(weighted_of([0.7, 0.7]))
    np.testing.assert_array_equal(out.mask["w"].data, [1.0, 1.0])


def test_rescale_mask_empty_selection_flagged_and_logged(caplog):
    with caplog.at_level(logging.WARNING, logger="spiderft.masking"):
        out = rescale_mask(weighted_of([0.0, 0.0]))
    np.testing.assert_array_equal(out.mask["w"].data, [0.0, 0.0])
    assert out.empty_selection
    assert any("empty selection" in r.message for r in caplog.records)


def test_rescale_mask_per_tensor_uses_each_tensors_own_mean():
    m = UpdateMask(tmap(a=[0.0, 0.5, 0.75], b=[0.6, 0.6]))
    out = rescale_mask(m, "per_tensor")
    np.testing.assert_allclose(out.mask["a"].data, [0.0, 0.8, 1.0], atol=1e-12)
    np.testing.assert_array_equal(out.mask["b"].data, [1.0, 1.0])


def test_rescale_mask_global_pools_the_mean():
    m = UpdateMask(tmap(a=[0.0, 0.5, 0.75], b=[0.6, 0.6]))
    out = rescale_mask(m, "global")
    mean = (0.5 + 0.75 + 0.6 + 0.6) / 4
    np.testing.assert_allclose(
        out.mask["a"].data, [0.0, 0.5 / mean, min(1.0, 0.75 / mean)], atol=1e-12
    )
    np.testing.assert_allclose(out.mask["b"].data, [0.6 / mean, 0.6 / mean], atol=1e-12)


def test_support_equality_across_variants():
    g, i = random_scores_pair(22)
    b = binary_mask(g, i).mask["w"].data
    w = weighted_mask(g, i).mask["w"].data
    r = rescale_mask(weighted_mask(g, i)).mask["w"].data
    expected = g["w"].data > i["w"].data
    assert np.array_equal(b != 0.0, expected)
    assert np.array_equal(w != 0.0, expected)
    assert np.array_equal(r != 0.0, expected)


def test_all_mask_values_in_unit_interval():
    for seed in range(5):
        g, i = random_scores_pair(100 + seed)
        for mask in (
            binary_mask(g, i),
            weighted_mask(g, i),
            rescale_mask(weighted_mask(g, i)),
        ):
            values = mask.mask["w"].data
            assert np.all(values >= 0.0)
            assert np.all(values <= 1.0)


def test_rescale_only_clamps_from_above():
    g, i = random_scores_pair(23)
    w = weighted_mask(g, i).mask["w"].data
    r = rescale_mask(weighted_mask(g, i)).mask["w"].data
    selected = w != 0.0
    mean = w[selected].mean()
    # entries below the mean scale up exactly, never down to zero
    np.testing.assert_allclose(
        r[selected & (w < mean)], (w / mean)[selected & (w < mean)], atol=1e-12
    )
    assert np.all(r[selected & (w >= mean)] == 1.0)


def test_mask_density():
    mask = UpdateMask(tmap(w=[0.0, 1.0, 0.5, 0.0]))
    assert mask.density == 0.5
    assert UpdateMask(tmap()).density == 0.0  # no entries: no division by zero


# ---------------------------------------------------------------------------
# The selector
# ---------------------------------------------------------------------------


def two_tensor_maps(seed):
    rng = np.random.default_rng(seed)
    g = tmap(a=rng.uniform(0.01, 0.99, 12), b=rng.uniform(0.01, 0.99, 7))
    i = tmap(a=rng.normal(size=12), b=rng.normal(size=7))
    return g, i


def accumulator_of(acc):
    return GradAccumulator(acc=acc, beta=0.9, initialized=True)


@pytest.mark.parametrize("scope", ["per_tensor", "global"])
def test_mask_rule_builds_the_comparison_masks(scope):
    acc, pretrained = two_tensor_maps(60)
    before = (acc.flat.copy(), pretrained.flat.copy())
    g = specialization_importance(accumulator_of(acc), scope)
    i = generalization_importance(pretrained, scope)
    expected = {
        "binary": binary_mask(g, i),
        "weighted": weighted_mask(g, i),
        "rescaled": rescale_mask(weighted_mask(g, i), scope),
    }
    for variant, want in expected.items():
        got = MaskRule(variant, pretrained, scope)(accumulator_of(acc))
        assert np.array_equal(got.mask.flat, want.mask.flat), variant
        assert np.array_equal(got.selection, want.selection)
        assert got.empty_selection == want.empty_selection
    assert np.array_equal(acc.flat, before[0]) and np.array_equal(pretrained.flat, before[1])


def test_mask_rule_arms_pick_half_of_each_tensor():
    acc, pretrained = two_tensor_maps(61)
    state = accumulator_of(acc)
    largest_g = MaskRule("gradient", pretrained)(state)
    smallest_i = MaskRule("magnitude", pretrained)(state)
    drawn = MaskRule("random", pretrained)(state, seed=4)
    for gt, it, mg, mm, mr in zip(acc, pretrained, largest_g.mask, smallest_i.mask, drawn.mask):
        k = gt.size // 2
        assert set(np.flatnonzero(mg.data)) == set(np.argsort(gt.data)[gt.size - k:])
        assert set(np.flatnonzero(mm.data)) == set(np.argsort(np.abs(it.data))[:k])
        assert np.count_nonzero(mr.data) == k
    # the random draw is a function of the seed
    again, other = (MaskRule("random", pretrained)(state, seed=s).mask.flat for s in (4, 5))
    assert np.array_equal(again, drawn.mask.flat)
    assert not np.array_equal(other, again)  # many possible draws: another seed, another one


def test_mask_rule_rejects_unknown_variant():
    _, pretrained = two_tensor_maps(63)
    with pytest.raises(ConfigError):
        MaskRule("soft", pretrained)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


def test_merge_zero_mask_restores_pretrained_bitwise():
    rng = np.random.default_rng(31)
    current = tmap(w=rng.normal(size=16))
    pretrained = tmap(w=rng.normal(size=16))
    zeros = UpdateMask(tmap(w=np.zeros(16)))
    out = merge(current, pretrained, zeros)
    assert np.array_equal(out["w"].data, pretrained["w"].data)


def test_merge_ones_mask_keeps_current_bitwise():
    rng = np.random.default_rng(32)
    current = tmap(w=rng.normal(size=16))
    pretrained = tmap(w=rng.normal(size=16))
    ones = UpdateMask(tmap(w=np.ones(16)))
    out = merge(current, pretrained, ones)
    assert np.array_equal(out["w"].data, current["w"].data)


def test_merge_convex_combination_example():
    out = merge(
        tmap(w=[2.0]), tmap(w=[0.0]), UpdateMask(tmap(w=[0.5]))
    )
    assert out["w"].data[0] == 1.0


def test_merge_stays_between_endpoints():
    rng = np.random.default_rng(33)
    current = tmap(w=rng.normal(size=64))
    pretrained = tmap(w=rng.normal(size=64))
    mask = UpdateMask(tmap(w=rng.uniform(0, 1, size=64)))
    out = merge(current, pretrained, mask)["w"].data
    lo = np.minimum(current["w"].data, pretrained["w"].data)
    hi = np.maximum(current["w"].data, pretrained["w"].data)
    assert np.all(out >= lo - 1e-15)
    assert np.all(out <= hi + 1e-15)


def test_merge_alignment_checks():
    with pytest.raises(AlignmentError):
        merge(tmap(w=[1.0]), tmap(v=[1.0]), UpdateMask(tmap(w=[1.0])))
    with pytest.raises(AlignmentError):
        merge(tmap(w=[1.0]), tmap(w=[1.0]), UpdateMask(tmap(v=[1.0])))


def test_merge_does_not_mutate_inputs():
    current = tmap(w=[2.0])
    pretrained = tmap(w=[0.0])
    merge(current, pretrained, UpdateMask(tmap(w=[0.5])))
    assert current["w"].data[0] == 2.0
    assert pretrained["w"].data[0] == 0.0


# ---------------------------------------------------------------------------
# Random half-block mask
# ---------------------------------------------------------------------------


def four_block_map():
    return tmap(a=[0.0] * 3, b=[0.0] * 5, c=[0.0] * 2, d=[0.0] * 4)


def selected_blocks(mask):
    return {t.name for t in mask.mask if np.all(t.data == 1.0)}


def test_random_half_selects_exactly_half_the_blocks():
    mask = random_half_mask(four_block_map(), rng_seed=0)
    chosen = selected_blocks(mask)
    assert len(chosen) == 2
    for t in mask.mask:
        expected = 1.0 if t.name in chosen else 0.0
        assert np.all(t.data == expected)  # whole blocks, never partial


def test_random_half_floor_counts():
    for block_count in (1, 2, 3, 4, 5, 7):
        shapes = {f"t{k}": [0.0] * (k + 1) for k in range(block_count)}
        mask = random_half_mask(tmap(**shapes), rng_seed=5)
        assert len(selected_blocks(mask)) == block_count // 2


def test_random_half_deterministic_per_seed():
    a = random_half_mask(four_block_map(), rng_seed=42)
    b = random_half_mask(four_block_map(), rng_seed=42)
    assert np.array_equal(a.mask.flat, b.mask.flat)


def test_random_half_varies_across_seeds():
    # 4 blocks -> 6 possible halves; 40 seeds make a collision-only
    # outcome astronomically unlikely and should visit every subset
    picks = {frozenset(selected_blocks(random_half_mask(four_block_map(), s))) for s in range(40)}
    assert len(picks) == 6


# ---------------------------------------------------------------------------
# Drop-and-rescale on deltas
# ---------------------------------------------------------------------------


def test_dare_drop_zero_is_identity():
    delta = tmap(w=[1.0, -2.0, 3.0])
    out = dare_mask_and_rescale(delta, 0.0, rng_seed=7)
    assert np.array_equal(out["w"].data, delta["w"].data)
    assert out["w"].data is not delta["w"].data


def test_dare_survivors_rescaled_exactly():
    delta = tmap(w=np.full(1000, 2.0))
    out = dare_mask_and_rescale(delta, 0.75, rng_seed=8)["w"].data
    assert set(np.unique(out)) <= {0.0, 8.0}  # 2.0 / (1 - 0.75)


def test_dare_mean_preserved_on_large_vector():
    n = 100_000
    delta = tmap(w=np.ones(n))
    out = dare_mask_and_rescale(delta, 0.5, rng_seed=9)["w"].data
    assert abs(float(np.mean(out)) - 1.0) <= 3.0 * np.sqrt(1.0 / n)


def test_dare_deterministic_per_seed():
    delta = tmap(w=np.linspace(-1, 1, 50))
    a = dare_mask_and_rescale(delta, 0.5, rng_seed=10)["w"].data
    b = dare_mask_and_rescale(delta, 0.5, rng_seed=10)["w"].data
    assert np.array_equal(a, b)


def test_dare_unbiased_over_many_seeds():
    delta = tmap(w=np.array([1.0, -0.5, 2.0, 0.25]))
    total = np.zeros(4)
    trials = 1000
    for seed in range(trials):
        total += dare_mask_and_rescale(delta, 0.5, rng_seed=seed)["w"].data
    empirical = total / trials
    # per-entry std of one draw is |d| * sqrt(p / (1-p)) = |d| at p=0.5
    se = np.abs(delta["w"].data) / np.sqrt(trials)
    assert np.all(np.abs(empirical - delta["w"].data) <= 3.0 * se)


def test_dare_rejects_bad_drop_probability():
    with pytest.raises(ConfigError):
        dare_mask_and_rescale(tmap(w=[1.0]), 1.0, rng_seed=0)
    with pytest.raises(ConfigError):
        dare_mask_and_rescale(tmap(w=[1.0]), -0.1, rng_seed=0)


def test_dare_merge_adds_the_dropped_delta_to_pretrained():
    rng = np.random.default_rng(12)
    pretrained = tmap(a=rng.normal(size=40), b=rng.normal(size=(3, 5)))
    current = pretrained.with_flat(pretrained.flat + rng.normal(size=pretrained.total_size))
    before = current.flat.copy()
    kept = dare_mask_and_rescale(current.with_flat(current.flat - pretrained.flat), 0.4, 13)
    expected = (pretrained.flat + kept.flat).tobytes()
    fresh = dare_merge(current, pretrained, 0.4, 13)
    assert fresh.flat.tobytes() == expected and fresh.layout == current.layout
    assert np.array_equal(current.flat, before)  # a fresh map leaves the inputs alone
    assert dare_merge(current, pretrained, 0.4, 13, out=current) is current
    assert current.flat.tobytes() == expected
    with pytest.raises(AlignmentError):
        dare_merge(tmap(w=[1.0]), tmap(v=[1.0]), 0.4, 13)
    with pytest.raises(AlignmentError):
        dare_merge(tmap(w=[1.0]), tmap(w=[1.0]), 0.4, 13, out=tmap(v=[1.0]))


def test_masks_built_from_real_importance_pipeline():
    # end-to-end shape: scores from the actual importance functions
    rng = np.random.default_rng(55)
    pretrained = tmap(w=rng.normal(size=30))
    i = generalization_importance(pretrained)
    g = tmap(w=rng.uniform(0.01, 0.99, 30))
    mask = rescale_mask(weighted_mask(g, i))
    assert 0.0 <= mask.density <= 1.0
    assert mask.mask.layout == pretrained.layout
