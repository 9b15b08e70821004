"""Command-line front end.

Subcommands: pretrain, finetune, merge, eval, pid, report.  Exit codes:
0 success, 1 usage error (synopsis on stderr), 2 data error (bad files,
failed checksums, misaligned tensors, invalid configs).

All randomness comes from config seeds, so every invocation is
reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .benchmark import (
    CSV_HEADER,
    DEFAULT_SAMPLES,
    METHOD_CHOICES,
    ZERO_SHOT,
    build_report,
    evaluate,
    finetune_with_method,
    generate_task,
    h_average,
    metrics_csv,
    o_average,
    pretrain,
    source_average,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config
from .errors import AlignmentError, ConfigError, FormatError, SpiderftError
from .importance import GradAccumulator, generalization_importance, pid, pid_per_tensor, specialization_importance
from .masking import binary_mask, dare_mask_and_rescale, merge, rescale_mask, weighted_mask
from .tensors import NORMALIZATION_SCOPES, TensorMap
from .trainer import RunLog, batches_of, model_from_tensor_map, set_trainable_tail

MERGE_STRATEGIES = ("binary", "weighted", "rescaled", "dare")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not SystemExit."""

    def error(self, message):
        print(self.format_usage().rstrip(), file=sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    tcfg = cfg.to_train_config(method="full_ft")
    model, snapshot = pretrain(cfg.suite, tcfg)
    save_checkpoint(snapshot, args.out)
    for spec in cfg.suite:
        print(f"accuracy {spec.task_id} {evaluate(model, spec)}")
    print(f"saved {len(snapshot)} tensors -> {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    cfg = load_config(args.config)
    method = args.method if args.method else cfg.method
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    tcfg = cfg.to_train_config(seed=seed, method=method)

    model = model_from_tensor_map(load_checkpoint(args.pretrained))
    set_trainable_tail(model, cfg.trainable_layers)
    pretrained = model.tensor_map(trainable_only=True).copy()
    target = generate_task(cfg.target, DEFAULT_SAMPLES)
    data = batches_of(target.train_inputs, target.train_labels, tcfg.batch_size)

    model, log = finetune_with_method(model, pretrained, data, tcfg, method)
    save_checkpoint(model.tensor_map(), args.out)

    if args.log:
        _write_run_log(log, args.log)
    if args.grad_dump:
        if log.final_accumulator is None:
            raise ConfigError("no gradient trace to dump (no training iterations ran)")
        save_checkpoint(log.final_accumulator, args.grad_dump)
    print(f"finetuned method={method} seed={seed} steps={len(log.losses)} -> {args.out}")
    return 0


def _write_run_log(log: RunLog, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("iteration", "loss", "mask_density", "pid"))
        for i, loss in enumerate(log.losses):
            density = repr(log.mask_density[i]) if i < len(log.mask_density) else ""
            divergence = repr(log.pid[i]) if i < len(log.pid) else ""
            writer.writerow((i, repr(loss), density, divergence))


def _gradient_domain(full: TensorMap, grads: TensorMap, op: str) -> TensorMap:
    """Restrict a full weight map to the tensors the grad dump covers.

    A dump from a run with frozen layers legitimately covers only the
    trainable tensors; anything it omits is treated as frozen.
    """
    bad = [t.name for t in grads if t.name not in full or full[t.name].shape != t.shape]
    if bad:
        raise AlignmentError(f"{op}: gradient tensors not in the model: {bad}")
    return TensorMap.from_tensors(full[t.name] for t in grads)


def _cmd_merge(args) -> int:
    pretrained = load_checkpoint(args.pretrained)
    finetuned = load_checkpoint(args.finetuned)
    finetuned.require_aligned(pretrained, "merge")

    if args.strategy == "dare":
        delta = finetuned.with_flat(finetuned.as_flat() - pretrained.as_flat())
        kept = dare_mask_and_rescale(delta, args.drop_p, args.seed)
        merged = pretrained.with_flat(pretrained.as_flat() + kept.flat)
    else:
        if not args.grads:
            args.parser.error(f"--grads is required for strategy {args.strategy}")
        grads = load_checkpoint(args.grads)
        sub_pre = _gradient_domain(pretrained, grads, "merge")
        sub_fine = _gradient_domain(finetuned, grads, "merge")
        state = GradAccumulator(acc=grads, beta=0.9, initialized=True)
        g_scores = specialization_importance(state, args.scope)
        i_scores = generalization_importance(sub_pre, args.scope)
        if args.strategy == "binary":
            mask = binary_mask(g_scores, i_scores)
        elif args.strategy == "weighted":
            mask = weighted_mask(g_scores, i_scores)
        else:
            mask = rescale_mask(weighted_mask(g_scores, i_scores), args.scope)
        masked = merge(sub_fine, sub_pre, mask)
        # tensors without gradient evidence stay at the pretrained values
        merged = TensorMap.from_tensors(
            masked[t.name] if t.name in masked else t for t in pretrained
        )

    save_checkpoint(merged, args.out)
    print(f"merged strategy={args.strategy} tensors={len(merged)} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(args.config)
    model = model_from_tensor_map(load_checkpoint(args.model))

    source_accs = {spec.task_id: evaluate(model, spec) for spec in cfg.suite}
    target_acc = evaluate(model, cfg.target)
    a_s = source_average(list(source_accs.values()))
    for task_id, acc in source_accs.items():
        print(f"accuracy {task_id} {acc}")
    print(f"accuracy {cfg.target.task_id} {target_acc}")
    print(f"source_avg {a_s}")
    print(f"target_accuracy {target_acc}")
    h = h_average(a_s, target_acc) if min(a_s, target_acc) > 0 else 0.0
    print(f"h_average {h}")
    print(f"o_average {o_average(a_s, target_acc)}")

    if args.out:
        report = build_report(
            args.method_label, args.seed_label, source_accs, target_acc, RunLog(method=args.method_label)
        )
        Path(args.out).write_text(metrics_csv([report]))
    return 0


def _cmd_pid(args) -> int:
    grads = load_checkpoint(args.grads)
    pretrained = _gradient_domain(load_checkpoint(args.pretrained), grads, "pid")
    if args.per_tensor:
        for name, value in pid_per_tensor(pretrained, grads).items():
            print(f"{name} {value}")
        print(f"global {pid(pretrained, grads)}")
    else:
        print(pid(pretrained, grads))
    return 0


def _cmd_report(args) -> int:
    logs = sorted(Path(args.logs).glob("*.csv"))
    if not logs:
        raise ConfigError(f"no .csv files under {args.logs}")

    rows: list[tuple[str, ...]] = []
    for path in logs:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != CSV_HEADER:
                raise FormatError(f"{path}: unexpected header {header}")
            for row in reader:
                if len(row) != len(CSV_HEADER):
                    raise FormatError(f"{path}: malformed row {row}")
                rows.append(tuple(row))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)

    # method x metric grid, metrics averaged over seeds
    methods: list[str] = []
    cells: dict[tuple[str, str], list[float]] = {}
    for method, _seed, task, metric, value in rows:
        if method not in methods:
            methods.append(method)
        if metric in ("source_avg", "h_average", "o_average"):
            cells.setdefault((method, metric), []).append(float(value))
        elif metric == "accuracy" and task == "target":
            cells.setdefault((method, "target_accuracy"), []).append(float(value))

    print("method source_avg target_accuracy h_average o_average")
    for method in methods:
        parts = [method]
        for metric in ("source_avg", "target_accuracy", "h_average", "o_average"):
            values = cells.get((method, metric))
            parts.append(f"{sum(values) / len(values):.4f}" if values else "-")
        print(" ".join(parts))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="spiderft", description="Selective fine-tuning toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("pretrain", help="train the shared source-suite model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pretrain, parser=p)

    p = sub.add_parser("finetune", help="fine-tune a pretrained checkpoint on the target task")
    p.add_argument("--config", required=True)
    p.add_argument("--pretrained", required=True)
    p.add_argument("--method", choices=METHOD_CHOICES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="per-iteration trace CSV")
    p.add_argument("--grad-dump", default=None, help="save the accumulated |grad| map")
    p.set_defaults(func=_cmd_finetune, parser=p)

    p = sub.add_parser("merge", help="offline mask-and-merge on saved checkpoints")
    p.add_argument("--pretrained", required=True)
    p.add_argument("--finetuned", required=True)
    p.add_argument(
        "--grads", default=None,
        help="accumulated |grad| checkpoint; tensors it omits keep pretrained values",
    )
    p.add_argument("--strategy", choices=MERGE_STRATEGIES, required=True)
    p.add_argument("--scope", choices=NORMALIZATION_SCOPES, default="per_tensor")
    p.add_argument("--drop-p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge, parser=p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the configured tasks")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="write metrics CSV")
    p.add_argument("--method-label", default="eval")
    p.add_argument("--seed-label", type=int, default=0)
    p.set_defaults(func=_cmd_eval, parser=p)

    p = sub.add_parser("pid", help="importance-profile divergence of grads vs weights")
    p.add_argument("--pretrained", required=True)
    p.add_argument("--grads", required=True)
    p.add_argument("--per-tensor", action="store_true")
    p.set_defaults(func=_cmd_pid, parser=p)

    p = sub.add_parser("report", help="combine metric CSVs and print the method grid")
    p.add_argument("--logs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError:
        return 1
    except (SpiderftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
