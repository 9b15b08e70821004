"""Width sweep: per-call time of each fine-tuning stage at three model widths.

The model is 8-W-W-3 with its last two layers trainable, so the trainable
parameter count P grows as W**2.  Each stage is timed with ``perf_counter``
on its own, untraced, and the median call is kept.  Per stage the fit is
``t(P) = fixed + slope * P``: the slope comes from the two widest models,
where work per element dominates, and ``fixed`` is what remains of the
narrowest model's time.  A large ``fixed_us`` with a small ``ns_per_param``
means a stage is bound by per-call Python overhead; the reverse means it is
bound by work on the arrays.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from spiderft import benchmark, importance, masking, trainer

WIDTHS = (16, 256, 1024)
# calls per stage and width: enough for a stable median, about 1 s in all
REPEATS = {16: 150, 256: 25, 1024: 7}
STAGES = (
    "trainer.forward", "trainer.backward", "importance.accumulate_gradient",
    "importance.specialization_importance", "masking.weighted_mask",
    "masking.rescale_mask", "masking.merge", "importance.pid",
)


def _median_call(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _stage_times(width: int, seed: int, batch) -> tuple[int, dict[str, float]]:
    model = trainer.build_model([8, width, width, 3], seed)
    trainer.set_trainable_tail(model, 2)
    pretrained = model.tensor_map(trainable_only=True).copy()
    gen = importance.generalization_importance(pretrained)
    acc = importance.GradAccumulator.empty(pretrained, 0.9)
    _, cache = trainer.forward(model, batch)
    grads = trainer.backward(model, cache)
    importance.accumulate_gradient(acc, grads)
    spec = importance.specialization_importance(acc)
    weighted = masking.weighted_mask(spec, gen)
    rescaled = masking.rescale_mask(weighted)
    current = model.tensor_map(trainable_only=True)

    calls = {
        "trainer.forward": lambda: trainer.forward(model, batch),
        "trainer.backward": lambda: trainer.backward(model, cache),
        "importance.accumulate_gradient": lambda: importance.accumulate_gradient(acc, grads),
        "importance.specialization_importance": lambda: importance.specialization_importance(acc),
        "masking.weighted_mask": lambda: masking.weighted_mask(spec, gen),
        "masking.rescale_mask": lambda: masking.rescale_mask(weighted),
        "masking.merge": lambda: masking.merge(current, pretrained, rescaled),
        "importance.pid": lambda: importance.pid(pretrained, acc.acc),
    }
    repeats = REPEATS[width]
    return pretrained.total_size, {s: _median_call(calls[s], repeats) for s in STAGES}


def width_sweep(seed: int) -> dict:
    """Returns the raw points and, per stage, ``fixed_us`` and ``ns_per_param``."""
    target = benchmark.generate_task(benchmark.default_target())
    batch = trainer.batches_of(target.train_inputs, target.train_labels, 16)[0]
    points = {w: _stage_times(w, seed, batch) for w in WIDTHS}
    (p_lo, t_lo), (p_mid, t_mid), (p_hi, t_hi) = (points[w] for w in WIDTHS)
    fits = {}
    for stage in STAGES:
        slope = (t_hi[stage] - t_mid[stage]) / (p_hi - p_mid)
        fits[f"{stage}.fixed_us"] = 1e6 * (t_lo[stage] - slope * p_lo)
        fits[f"{stage}.ns_per_param"] = 1e9 * slope
    raw = {str(w): {"params": p, "median_call_us": {s: 1e6 * t for s, t in times.items()}}
           for w, (p, times) in points.items()}
    return {"fits": fits, "points": raw}
