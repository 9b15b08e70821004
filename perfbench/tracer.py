"""In-memory span tracer that wraps spiderft's public functions from outside.

Each wrapped function is replaced under every name a spiderft module looks
it up by (for example ``spiderft.trainer.accumulate_gradient`` and
``spiderft.cli.load_checkpoint`` are the same object, so both are wrapped).
``ToyModel.load_values`` and ``FlatTensor.__post_init__`` are wrapped on
their classes.  ``uninstall`` restores every original.

A span is (name, start, end, parent, iteration).  Spans are appended to
flat lists while the program runs and are only turned into arrays when a
pass is summarised.  A fine-tuning iteration starts at each ``forward``
call made inside a fine-tuning driver; every span until the next one shares
its iteration id.  Self time is a span's duration minus the duration of its
direct children (children never overlap in this single-threaded program).
"""

from __future__ import annotations

import contextlib
import os
from time import perf_counter

import numpy as np

import spiderft
from spiderft import benchmark, checkpoint, cli, config, importance, masking, tensors, trainer

MODULES = (spiderft, tensors, importance, masking, trainer, benchmark, checkpoint, config, cli)

# span name -> function object; the name is "<defining module>.<function>"
TRACED = {
    "trainer.forward": trainer.forward,
    "trainer.backward": trainer.backward,
    "trainer.sgd_step": trainer.sgd_step,
    "trainer.finetune_spider": trainer.finetune_spider,
    "trainer.finetune_baseline": trainer.finetune_baseline,
    "importance.accumulate_gradient": importance.accumulate_gradient,
    "importance.specialization_importance": importance.specialization_importance,
    "importance.generalization_importance": importance.generalization_importance,
    "importance.pid": importance.pid,
    "importance.pid_per_tensor": importance.pid_per_tensor,
    "tensors.zscore_map": tensors.zscore_map,
    "masking.weighted_mask": masking.weighted_mask,
    "masking.binary_mask": masking.binary_mask,
    "masking.rescale_mask": masking.rescale_mask,
    "masking.merge": masking.merge,
    "benchmark.pretrain": benchmark.pretrain,
    "benchmark.evaluate": benchmark.evaluate,
    "benchmark.generate_task": benchmark.generate_task,
    "checkpoint.save": checkpoint.save_checkpoint,
    "checkpoint.load": checkpoint.load_checkpoint,
    "config.load_config": config.load_config,
}
DRIVERS = ("trainer.finetune_spider", "trainer.finetune_baseline")
HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.iteration = []
        self._stack: list[int] = []
        self._drivers = 0
        self._iter = -1
        self.iterations = 0
        # per-iteration FlatTensor constructions and their payload bytes
        self.flat_count = 0
        self.flat_bytes = 0
        # observations made by hooks, outside the span they observe
        self.last_mask = None
        self.mask_kept = 0
        self.mask_total = 0
        self.empty_selections = 0
        self.bytes_saved = 0
        self.bytes_loaded = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self._iter)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook=None):
        nid, hook_id = self._id(name), self._id(HOOK)
        is_forward, is_driver = name == "trainer.forward", name in DRIVERS

        def traced(*args, **kwargs):
            if is_forward and self._drivers:
                self._iter = self.iterations
                self.iterations += 1
            if is_driver:
                self._drivers += 1
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if is_driver:
                    self._drivers -= 1
                    self._iter = -1
            if hook is not None:
                h = self._open(hook_id)
                hook(args, out)
                self._close(h)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- hooks: observations for checks and counters -------------------------

    def _on_merge(self, args, _out):
        mask = args[2]
        self.last_mask = mask
        self.mask_kept += sum(int(np.count_nonzero(t.data)) for t in mask.mask)
        self.mask_total += mask.mask.total_size

    def _on_rescale(self, _args, out):
        self.empty_selections += int(out.empty_selection)

    def _on_save(self, args, _out):
        self.bytes_saved += os.path.getsize(args[1])

    def _on_load(self, args, _out):
        self.bytes_loaded += os.path.getsize(args[0])

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        hooks = {
            "masking.merge": self._on_merge,
            "masking.rescale_mask": self._on_rescale,
            "checkpoint.save": self._on_save,
            "checkpoint.load": self._on_load,
        }
        for name, fn in TRACED.items():
            wrapped = self._wrap(name, fn, hooks.get(name))
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)
        self._patch(trainer.ToyModel, "load_values",
                    self._wrap("trainer.load_values", trainer.ToyModel.load_values))

        post_init = tensors.FlatTensor.__post_init__

        def counted(flat):
            post_init(flat)
            if self._iter >= 0:
                self.flat_count += 1
                self.flat_bytes += flat.data.nbytes

        self._patch(tensors.FlatTensor, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def mark(self) -> dict:
        """Counter snapshot; two marks bracket one pass."""
        return {
            "span": len(self.start),
            "iterations": self.iterations,
            "flat_count": self.flat_count,
            "flat_bytes": self.flat_bytes,
            "mask_kept": self.mask_kept,
            "mask_total": self.mask_total,
            "empty_selections": self.empty_selections,
            "bytes_saved": self.bytes_saved,
            "bytes_loaded": self.bytes_loaded,
        }

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self.start) if hi is None else hi
        start = np.asarray(self.start[lo:hi])
        end = np.asarray(self.end[lo:hi])
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        return {
            "name": np.asarray(self.name[lo:hi], dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "iteration": np.asarray(self.iteration[lo:hi], dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def summarize(self, before: dict, after: dict) -> dict:
        """Per-name totals and per-iteration driver times for one pass."""
        a = self.arrays(before["span"], after["span"])
        out = {"self_s": {}, "dur_s": {}, "calls": {}, "call_s": {}}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            if not sel.any():
                continue
            out["self_s"][name] = float(a["self"][sel].sum())
            out["dur_s"][name] = float(a["dur"][sel].sum())
            out["calls"][name] = int(sel.sum())
            out["call_s"][name] = a["dur"][sel]
        # per-iteration wall time of fine-tuning runs, keyed by method; a
        # baseline driver called from pretrain is pretraining, not fine-tuning
        lo = before["span"]
        local_parent = a["parent"] - lo
        fwd_parent = local_parent[a["name"] == self._ids.get("trainer.forward", -1)]
        iter_counts = np.bincount(fwd_parent[fwd_parent >= 0], minlength=len(a["dur"]))
        pretrain = self._ids.get("benchmark.pretrain", -1)
        per_iter = {"spider": [], "full_ft": []}
        for method, driver in (("spider", "trainer.finetune_spider"),
                               ("full_ft", "trainer.finetune_baseline")):
            for i in np.flatnonzero(a["name"] == self._ids.get(driver, -1)):
                p = local_parent[i]
                if (p >= 0 and a["name"][p] == pretrain) or not iter_counts[i]:
                    continue
                per_iter[method].append(a["dur"][i] / iter_counts[i])
        out["per_iter_s"] = per_iter
        out["counters"] = {k: after[k] - before[k] for k in before if k != "span"}
        return out
