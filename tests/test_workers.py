"""blockwise's runs and the split sums, gather and dot products on several
threads: the same bits, and safe to share.

A map of at least SPLIT entries is cut into runs of whole blocks, at most
one per usable CPU (tensors.WORKERS), and the runs go to a thread pool
(tensors.spread), as do the halves of a sum and the runs of a gather or a
dot product on a vector of that length.  Fine-tuning a tail of several runs
gives the same weights, RunLog lists and final accumulator whatever the
worker count, and reaches every split; a process limited to one CPU starts
no pool thread.  Each run sees the caller's np.errstate, a run's error
reaches the caller only once every run has finished, and a forked child
starts its own pool.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from spiderft import tensors
from spiderft.benchmark import default_target, finetune_with_method, generate_task
from spiderft.tensors import BLOCK, MIN_RUN, blockwise
from spiderft.trainer import TrainConfig, batches_of, build_model, set_trainable_tail, sgd_step

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # perfbench/run.py's

# a tail of 412,163 entries, not a whole number of blocks: its largest tensor
# alone makes three runs at three workers
DIMS = [8, 640, 640, 3]
CASES = ([(m, s) for m in ("spider", "spider_binary", "spider_weighted_norescale")
          for s in ("per_tensor", "global")]
         + [("full_ft", "per_tensor"), ("dare", "per_tensor"), ("half_ft", "per_tensor")])


def outputs(method: str, scope: str) -> tuple:
    """Every output of a three-step run: weights, RunLog lists and counts, accumulator."""
    model = build_model(DIMS, seed=3)
    set_trainable_tail(model, 2)
    target = generate_task(default_target())
    data = batches_of(target.train_inputs, target.train_labels, 16)[:3]
    cfg = TrainConfig(method=method, epochs=1, seed=5, normalization_scope=scope)
    model, log = finetune_with_method(model, model.tensor_map(trainable_only=True).copy(),
                                      data, cfg)
    return (model.params.flat.tobytes(), log.losses, log.mask_density, log.pid,
            log.final_accumulator.flat.tobytes(), log.changed_weights, log.mask_support)


def digest(method: str, scope: str) -> str:
    return hashlib.sha256(repr(outputs(method, scope)).encode()).hexdigest()


def test_the_tail_spans_three_runs(monkeypatch):
    model = build_model(DIMS, 0)
    set_trainable_tail(model, 2)
    tail = model.tensor_map(trainable_only=True)
    assert tail.total_size > 2 * BLOCK and tail.total_size % BLOCK
    monkeypatch.setattr(tensors, "WORKERS", 3)
    assert len(tensors.runs(tail.segments[tail.layout.largest].size)) == 3


@pytest.mark.parametrize("method,scope", CASES, ids=[f"{m}-{s}" for m, s in CASES])
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, method, scope):
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(tensors, "WORKERS", workers)
        runs[workers] = outputs(method, scope)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_a_run_hands_every_split_to_the_pool(monkeypatch):
    # at two workers, each split gives the pool one call: the elementwise
    # passes (_run), the z-score's sums (np.add.reduce), the rescale's gather
    # (_compress), and one dot product per step in each finiteness check
    # (gradient and weights) and in pid
    handed = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            handed.append(args[0].__name__)  # fn is a context's run, args[0] the call
            return super().submit(fn, *args, **kwargs)

    pool = Recording(1)
    monkeypatch.setattr(tensors, "WORKERS", 2)
    monkeypatch.setattr(tensors, "_pool", pool)
    try:
        outputs("spider", "per_tensor")
    finally:
        pool.shutdown()
    assert {"_run", "reduce", "_compress"} <= set(handed)
    assert handed.count("dot") == 3 * 3


def test_one_usable_cpu_gives_the_same_digest_and_starts_no_pool_thread():
    # two processes at one BLAS thread: a dot product of this length splits
    # its sum across BLAS threads, so the pid trace follows their count
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity call on this platform")
    script = (
        "import os, sys, threading\n"
        "if sys.argv[1] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import spiderft.cli\n"
        "assert 'concurrent.futures' not in sys.modules\n"  # (pytest imports it below)
        "import test_workers\n"
        "from spiderft import tensors\n"
        "if sys.argv[1] == 'three':\n"
        "    tensors.WORKERS = 3\n"
        "print(tensors.WORKERS, test_workers.digest('spider', 'global'), threading.active_count())\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), str(TESTS), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1"), "PYTHONPATH": path}
    procs = [subprocess.Popen([sys.executable, "-c", script, mode], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for mode in ("one", "three")]
    printed = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        printed.append(out.split())
    (workers, one, threads), (_, three, pool_threads) = printed
    assert (workers, threads) == ("1", "1") and int(pool_threads) > 1
    assert one == three


def test_a_worker_run_keeps_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(tensors, "WORKERS", 2)
    model = build_model([1, 4 * BLOCK + 3], 0)  # one weight and one bias: 8 blocks and a bit
    weights = model.tensor_map(trainable_only=True)
    grads = weights.with_flat(np.full(weights.total_size, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            sgd_step(model, grads, 10.0)  # lr * grad overflows in every run
    assert np.isneginf(weights.flat).all()


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_a_run_error_is_raised_once_every_run_has_finished(monkeypatch, failing):
    monkeypatch.setattr(tensors, "WORKERS", 3)
    caller = threading.get_ident()
    lock, live, done = threading.Lock(), [0], []

    def kernel(scratch, part):
        with lock:
            live[0] += 1
        try:
            in_caller = threading.get_ident() == caller
            if not in_caller:
                time.sleep(0.002)  # each worker run outlasts a failing caller's
            if in_caller == (failing == "caller"):
                raise ValueError(failing)
            part += 1.0
        finally:
            with lock:
                live[0] -= 1
                done.append(in_caller)

    values = np.zeros(3 * MIN_RUN * BLOCK)
    with pytest.raises(ValueError, match=failing):
        blockwise(kernel, values)
    assert live[0] == 0
    # a failing run stops at its first block; every other run did all of its blocks
    assert len(done) == (1 + 2 * MIN_RUN if failing == "caller" else MIN_RUN + 2)


def test_threads_that_split_at_once_share_one_pool(monkeypatch):
    # more callers and workers than cores, switching often, and a pool that
    # takes 10 ms to build: each result is right, and one pool is built
    monkeypatch.setattr(tensors, "WORKERS", 3)
    monkeypatch.setattr(tensors, "_pool", None)
    built = []

    class SlowPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            time.sleep(0.01)
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowPool)
    values = np.arange(3 * MIN_RUN * BLOCK, dtype=np.float64)
    outs = [np.zeros_like(values) for _ in range(8)]
    start = threading.Barrier(len(outs))

    def call(out):
        start.wait()
        for _ in range(5):
            blockwise(_plus_one, out, values)

    threads = [threading.Thread(target=call, args=(out,)) for out in outs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for pool in built:
            pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(out, values + 1.0) for out in outs)
    assert len(built) == 1


def _plus_one(scratch, out, values):
    np.add(values, 1.0, out=out)


def _child(conn):
    values = np.arange(3 * MIN_RUN * BLOCK, dtype=np.float64)
    tensors.sigmoid_array(values, out=values)
    conn.send(values.tobytes() == tensors.sigmoid_array(
        np.arange(3 * MIN_RUN * BLOCK, dtype=np.float64)).tobytes())


def test_a_forked_child_starts_its_own_pool(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    monkeypatch.setattr(tensors, "WORKERS", 3)
    tensors.sigmoid_array(np.zeros(3 * MIN_RUN * BLOCK))  # the parent's pool has threads
    assert tensors._pool is not None
    context = multiprocessing.get_context("fork")
    parent, child_end = context.Pipe()
    with warnings.catch_warnings():  # 3.12+ warns on a fork of a threaded process
        warnings.simplefilter("ignore", DeprecationWarning)
        child = context.Process(target=_child, args=(child_end,))
        child.start()
    child.join(timeout=60)
    if child.is_alive():  # a child that submitted to the parent's threads waits forever
        child.kill()
        child.join()
    assert child.exitcode == 0
    assert parent.poll() and parent.recv() is True


def test_a_map_of_one_block_makes_one_direct_call():
    calls = []
    values = np.ones(BLOCK)
    blockwise(lambda scratch, part: calls.append((scratch, part.size)), values)
    assert calls == [(None, BLOCK)]


def test_a_map_too_small_to_split_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(tensors, "WORKERS", 8)
    threads = set()
    blockwise(lambda scratch, part: threads.add(threading.get_ident()),
              np.zeros((2 * MIN_RUN - 1) * BLOCK))
    assert threads == {threading.get_ident()}
