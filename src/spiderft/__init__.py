"""Selective fine-tuning via importance-discrepancy masking.

The library compares two per-parameter importance profiles, one from
pretrained weight magnitudes and one from gradients accumulated during
fine-tuning, and merges each optimizer step back toward the pretrained
weights wherever the fine-tuning signal does not dominate.  A synthetic
rotated-mixture benchmark, counterpart baselines, checkpoint tooling,
and a CLI round out the package.  Each name is imported from its module
(``spiderft.trainer``, ``spiderft.masking``, ...); the package root
exports none.
"""

__version__ = "0.1.0"
