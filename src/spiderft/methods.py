"""The names a run is configured by and reported under: fine-tuning methods,
mask variants, merge strategies, normalization scopes and the CSV columns.

Their one owner, which imports nothing: the CLI's parser and ``report`` use
them without loading numpy or the modules that run them.
"""

# the masks that compare specialization scores G with generalization scores I
DISCREPANCY_MASKS = ("binary", "weighted", "rescaled")
# the offline merge's strategies: a comparison mask, or drop-and-rescale
MERGE_STRATEGIES = DISCREPANCY_MASKS + ("dare",)

# masked methods: the masking.MaskRule variant merged after each SGD step
MASK_OF_METHOD = {
    "spider": "rescaled",
    "spider_binary": "binary",
    "spider_weighted_norescale": "weighted",
    "select_random": "random",
    "select_magnitude": "magnitude",
    "select_gradient": "gradient",
}
SPIDER_METHODS = tuple(MASK_OF_METHOD)
BASELINE_METHODS = ("full_ft", "l2_reg", "l1_graft", "half_ft", "dare")
ZERO_SHOT = "zero_shot"  # the pretrained model as is: no fine-tuning
# every method name a TrainConfig accepts
METHOD_CHOICES = (ZERO_SHOT,) + BASELINE_METHODS + SPIDER_METHODS

NORMALIZATION_SCOPES = ("per_tensor", "global")  # a statistic per tensor, or over the map
CSV_HEADER = ("method", "seed", "task", "metric", "value")  # the metrics CSV's columns
