"""Golden output digests for every fine-tuning method, the sweep, pretraining
and the offline CLI commands.

Each digest is a SHA-256 over the exact bytes of a run's outputs: the final
weights (frozen tensors included), the losses, the mask densities, the pid
trace and the final accumulator.  The constants were recorded on the
implementation with two separate fine-tuning loops that the single loop
replaced, so a change to the arithmetic, the operation order or the seed
streams of any method shows up here as a mismatch.  The CLI digests (every
merge strategy and scope, and ``pid --per-tensor``) were recorded on the
implementation that kept loose, unpacked tensor maps beside packed ones.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from spiderft.benchmark import (
    METHOD_CHOICES,
    default_suite,
    default_target,
    finetune_with_method,
    pretrain,
    run_experiment,
)
from spiderft.trainer import TrainConfig, batches_of, build_model, set_trainable_tail


def _update_map(h, tm) -> None:
    for t in tm:
        h.update(t.name.encode())
        h.update(t.data.tobytes())


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def run_digest(method: str, tail: int) -> str:
    """One two-epoch run of `method` on a 4-6-5-3 model with `tail` trainable layers."""
    seed = 7
    rng = np.random.default_rng(seed)
    labels = np.arange(48, dtype=np.int64) % 3
    inputs = 2.0 * np.eye(3, 4)[labels] + 0.5 * rng.standard_normal((48, 4))
    model = build_model([4, 6, 5, 3], seed)
    set_trainable_tail(model, tail)
    pretrained = model.tensor_map(trainable_only=True).copy()
    cfg = TrainConfig(epochs=2, seed=seed, method=method)
    batches = batches_of(inputs, labels, 16)
    model, log = finetune_with_method(model, pretrained, batches, cfg)

    h = hashlib.sha256()
    _update_map(h, model.tensor_map())
    for trace in (log.losses, log.mask_density, log.pid):
        h.update(b"|")
        h.update(_floats(trace))
    h.update(b"|")
    if log.final_accumulator is not None:
        _update_map(h, log.final_accumulator)
    return h.hexdigest()


def experiment_digest() -> str:
    reports = run_experiment(
        default_suite(), default_target(), METHOD_CHOICES, TrainConfig(epochs=2), [0, 1],
        n_per_task=200, n_eval=300, pretrain_epochs=3,
    )
    return hashlib.sha256(repr([
        (r.method, r.seed, sorted(r.per_source_accuracy.items()), r.target_accuracy,
         r.h_avg, r.o_avg, r.pid_trace, r.mask_density_trace)
        for r in reports
    ]).encode()).hexdigest()


def pretrain_digest() -> str:
    _, snapshot = pretrain(default_suite(), TrainConfig(epochs=10, seed=3))
    h = hashlib.sha256()
    _update_map(h, snapshot)
    return h.hexdigest()


RUN_DIGESTS = {
    ("zero_shot", 1): "982acf1ff09273a554748e95492359961160e6b3f099024175dbdb67de2a4681",
    ("zero_shot", 3): "982acf1ff09273a554748e95492359961160e6b3f099024175dbdb67de2a4681",
    ("full_ft", 1): "6c29bbb25749d2ab525f55089f89267017610d22e69bf794adec5abbfaec7e72",
    ("full_ft", 3): "0fb7c1c7f8976ae9c737d3328cefc5defd11d884292e5d3a1e181bf9659fcf2d",
    ("l2_reg", 1): "0f06a573ae9da786396817e7595baba002c865ed1964465093a6ef1b396e98df",
    ("l2_reg", 3): "31e6b432e3bd39a30048bbe392486f1a14931342b862dfee2fb6c2cbca1bdc38",
    ("l1_graft", 1): "a7498574f9a41e2349e983f944a7a7998d4fddf5b7495d8d61066c9d856b83bc",
    ("l1_graft", 3): "dd1170ed0fc8b7f7ccd44069479b410e90cd02e1b2a5bb7cf3c27f013694ae56",
    ("half_ft", 1): "2785e610c0877e8224eabf9df60115c78a754ee7e5587954df9c6945a5c1a0ee",
    ("half_ft", 3): "e37601b13b32f02791711264ae944d3bcdb19a7fa74df540fcd0e11ccabc2efa",
    ("dare", 1): "5e76d54b5a391a58277ea81a595854c8f84e18869e90d42d6268f50b4a64e829",
    ("dare", 3): "433b82910f402706be4e2d746a886dcb7cee242b7536f944713184bddf16c577",
    ("spider", 1): "c899a4e38ce015effe29d09418a583de6a812788b11ade3467d964b10414128c",
    ("spider", 3): "12bf9d535b96cd39f9efd2647442f69d63caeeda44f04728ed6897efa0db1659",
    ("spider_binary", 1): "f56590844782ef096acf368a014e346b9c182c463a95455e916c0ea79c30a89c",
    ("spider_binary", 3): "2ea92a77cf64e1d785293d80b0acc6033614ece7446fbd82206e7ca7edb1aece",
    ("spider_weighted_norescale", 1):
        "79675cb633132701f12dc16d628f1e8347b40e1186374773e8470c2c0f733e41",
    ("spider_weighted_norescale", 3):
        "5e734154c88406c51fa9c20e3eb2dd87d1ca629d6cff943b470ccf49005eb1fb",
    ("select_random", 1): "a2581077afa5ac209b45b0123bb65cc5534fd5670788bd5afd703f00c61ad986",
    ("select_random", 3): "9ab8d788ae4df6e5ccbed6b99a2db00a6690c93c1b45dc47acac107364d637c9",
    ("select_magnitude", 1): "c79587251b9ab06591502066da08fd836f44d5b9ee15590374c301b684abf188",
    ("select_magnitude", 3): "125cfc4efb24f8b2980a32d2c661036cf887459436afb55fcef118f223f96b6d",
    ("select_gradient", 1): "b5015ca067c7defc285031a5882a7994df1e889e0aca5bf977de659e3eebb37b",
    ("select_gradient", 3): "9af9b29558bdf83cb5729052e1746a55059b69f438f9055f336b7804e133709f",
}
EXPERIMENT_DIGEST = "31f07e0791f151c0747151e519c8508587fd3e7eee7b8187c87a606f9f70acc9"
PRETRAIN_DIGEST = "4d4d68c72bd4f163b52d265a9b80fac4bf10fa0b936774b4e696e3573d268733"


@pytest.mark.parametrize("method", METHOD_CHOICES)
@pytest.mark.parametrize("tail", [1, 3])
def test_run_matches_golden_digest(method, tail):
    assert run_digest(method, tail) == RUN_DIGESTS[(method, tail)]


def test_run_experiment_matches_golden_digest():
    assert experiment_digest() == EXPERIMENT_DIGEST


def test_pretrain_matches_golden_digest():
    assert pretrain_digest() == PRETRAIN_DIGEST


# ---------------------------------------------------------------------------
# Offline CLI commands on small checkpoints: load_checkpoint, the gradient
# domain of a trainable-only grad dump, the four merge strategies and pid
# ---------------------------------------------------------------------------

MERGE_STRATEGIES = ("binary", "weighted", "rescaled", "dare")
SCOPES = ("per_tensor", "global")


def _cli_checkpoints(tmp_path):
    """A pretrained and a fine-tuned 4-6-5-3 model, and a dump covering its last two layers."""
    from spiderft.checkpoint import save_checkpoint
    from spiderft.tensors import FlatTensor, TensorMap

    rng = np.random.default_rng(11)
    pre = build_model([4, 6, 5, 3], 11).tensor_map()
    fine = TensorMap.from_tensors(
        t.with_data(t.data + 0.05 * rng.standard_normal(t.size)) for t in pre
    )
    grads = [
        FlatTensor(t.name, t.shape, np.abs(rng.standard_normal(t.size)) * 1e-2)
        for t in pre if not t.name.startswith("layer0.")
    ]
    grads[0].data[:3] = 0.0  # a few entries without gradient evidence
    paths = {k: tmp_path / f"{k}.ckpt" for k in ("pre", "fine", "grads")}
    save_checkpoint(pre, paths["pre"])
    save_checkpoint(fine, paths["fine"])
    save_checkpoint(TensorMap.from_tensors(grads), paths["grads"])
    return paths


def merge_digest(tmp_path, strategy: str, scope: str) -> str:
    from spiderft.cli import main

    paths = _cli_checkpoints(tmp_path)
    out = tmp_path / "merged.ckpt"
    assert main([
        "merge", "--pretrained", str(paths["pre"]), "--finetuned", str(paths["fine"]),
        "--grads", str(paths["grads"]), "--strategy", strategy, "--scope", scope,
        "--out", str(out),
    ]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def pid_stdout_digest(tmp_path, capsys) -> str:
    from spiderft.cli import main

    paths = _cli_checkpoints(tmp_path)
    capsys.readouterr()
    assert main(["pid", "--pretrained", str(paths["pre"]), "--grads", str(paths["grads"]),
                 "--per-tensor"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


MERGE_DIGESTS = {
    ("binary", "per_tensor"): "67f528720e2904cbfde15b041d0b749af86100952b561113ce9de90464965788",
    ("binary", "global"): "c4673ba16aeb79d54da91b443132dcd83f6e186a3917c9b05ec4cf7f03b2fa0c",
    ("weighted", "per_tensor"): "836782aa09b2abedbab81c0cbaf212cd2363f806172947605ee1343acf077518",
    ("weighted", "global"): "2323a4021377060a959ce38ea3588c6717d855075181a3a102db1cb38c9f459e",
    ("rescaled", "per_tensor"): "12efda364d34433c313cdaee23b755b13d6cecba49958224173548a3f7eb498c",
    ("rescaled", "global"): "65879c2c851f99dac8927f1e20940cc8f34be92a4768ac419a5fa1b39df07ac6",
    # dare ignores the scope
    ("dare", "per_tensor"): "eed7011ab3b0c50832b9d08746eced7a7e71d48ac35c1eadc1136def42b58726",
    ("dare", "global"): "eed7011ab3b0c50832b9d08746eced7a7e71d48ac35c1eadc1136def42b58726",
}
PID_STDOUT_DIGEST = "b47802c8a5b5ccca990995a27edec20c3f288b9d237cf91badf7875c2924b6d7"


@pytest.mark.parametrize("strategy", MERGE_STRATEGIES)
@pytest.mark.parametrize("scope", SCOPES)
def test_cli_merge_matches_golden_digest(tmp_path, strategy, scope):
    assert merge_digest(tmp_path, strategy, scope) == MERGE_DIGESTS[(strategy, scope)]


def test_cli_pid_per_tensor_matches_golden_digest(tmp_path, capsys):
    assert pid_stdout_digest(tmp_path, capsys) == PID_STDOUT_DIGEST
