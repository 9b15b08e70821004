"""Command-line front end.

Subcommands: pretrain, finetune, merge, eval, pid, report.  Exit codes:
0 success, 1 usage error (synopsis on stderr), 2 data error (bad files,
failed checksums, misaligned tensors, invalid configs).

All randomness comes from config seeds, so every invocation is
reproducible bit for bit.

A process runs one subcommand, so each subcommand imports the modules it
runs; the module itself imports only errors and methods, and no numpy.  The
program's entry point is ``run``, for ``python -m spiderft.cli`` and the
installed ``spiderft`` script alike; ``main`` is the command without its exit.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import sys
from pathlib import Path

from .errors import AlignmentError, ConfigError, FormatError, SpiderftError
from .methods import CSV_HEADER, MERGE_STRATEGIES, METHOD_CHOICES, NORMALIZATION_SCOPES


class _UsageError(Exception):
    pass


def _bounded(convert, low: float, high: float = math.inf):
    """An argparse type: `convert`, then require low <= value < high."""

    def parse(text: str):
        value = convert(text)
        if not low <= value < high:  # NaN fails too
            raise argparse.ArgumentTypeError(
                f"expected a value in [{low:g}, {high:g}), got {text!r}"
            )
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: ..."
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not SystemExit."""

    def error(self, message):
        print(self.format_usage().rstrip(), file=sys.stderr)
        print(f"{self.prog}: error: {_one_line(message)}", file=sys.stderr)
        raise _UsageError(message)


def _one_line(message: str) -> str:
    """The message with its line breaks escaped: an argument or a file name
    may hold one, and an error is reported on one line."""
    return message.replace("\n", "\\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _require_outputs(args) -> None:
    """Before any work: each given output is a file of its own in an existing
    directory (else exit 2)."""
    flag_of = {}  # real path -> the flag that writes it
    for flag in ("--out", "--log", "--grad-dump"):  # every file a subcommand writes
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path is None:
            continue
        if not path:
            raise FileNotFoundError(f"{flag}: empty path")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{flag}: {path!r} is a directory")
        if not os.path.isdir(out_dir := os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{flag}: no directory {out_dir!r}")
        if (other := flag_of.setdefault(os.path.realpath(path), flag)) != flag:
            raise ConfigError(f"{flag}: {path!r} is also the {other} file")


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _cmd_pretrain(args) -> int:
    from .benchmark import evaluate, pretrain
    from .checkpoint import save_checkpoint
    from .config import load_config

    cfg = load_config(args.config)
    model, snapshot = pretrain(cfg.suite, cfg.to_train_config())
    save_checkpoint(snapshot, args.out)
    for spec in cfg.suite:
        print(f"accuracy {spec.task_id} {evaluate(model, spec)}")
    print(f"saved {len(snapshot)} tensors -> {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    from .benchmark import DEFAULT_SAMPLES, finetune_cell, generate_task
    from .checkpoint import load_checkpoint, save_checkpoint
    from .config import load_config
    from .trainer import ToyModel

    cfg = load_config(args.config)
    tcfg = cfg.to_train_config(seed=args.seed, method=args.method)

    model = ToyModel(load_checkpoint(args.pretrained))
    target = generate_task(cfg.target, DEFAULT_SAMPLES)
    model, log = finetune_cell(model, target.train_inputs, target.train_labels, tcfg)
    # checked before any write, so that the failed command leaves no files
    if args.grad_dump is not None and log.final_accumulator is None:
        raise ConfigError("no gradient trace to dump (no training iterations ran)")
    save_checkpoint(model.tensor_map(), args.out)

    if args.log is not None:
        _write_csv(args.log, _run_log_rows(log))
    if args.grad_dump is not None:
        save_checkpoint(log.final_accumulator, args.grad_dump)
    print(f"finetuned method={tcfg.method} seed={tcfg.seed} steps={len(log.losses)} -> {args.out}")
    return 0


def _run_log_rows(log):
    """A trainer.RunLog's per-iteration trace, as CSV rows under a header."""
    yield ("iteration", "loss", "mask_density", "pid")
    for i, loss in enumerate(log.losses):
        density = repr(log.mask_density[i]) if i < len(log.mask_density) else ""
        yield (i, repr(loss), density, repr(log.pid[i]))


def _gradient_domain(full: TensorMap, grads: TensorMap, op: str) -> TensorMap:
    """Restrict a full weight map to the tensors the grad dump covers.

    A dump from a run with frozen layers legitimately covers only the
    trainable tensors; anything it omits is treated as frozen.
    """
    from .tensors import TensorMap

    bad = [t.name for t in grads if t.name not in full or full[t.name].shape != t.shape]
    if bad:
        raise AlignmentError(f"{op}: gradient tensors not in the model: {bad}")
    return TensorMap.from_tensors(full[t.name] for t in grads)


def _cmd_merge(args) -> int:
    from .checkpoint import load_checkpoint, save_checkpoint
    from .importance import GradAccumulator
    from .masking import MaskRule, dare_merge, merge
    from .tensors import TensorMap

    if args.strategy != "dare" and not args.grads:
        args.parser.error(f"--grads is required for strategy {args.strategy}")
    pretrained = load_checkpoint(args.pretrained)
    finetuned = load_checkpoint(args.finetuned)
    finetuned.require_aligned(pretrained, "merge")

    if args.strategy == "dare":
        merged = dare_merge(finetuned, pretrained, args.drop_p, args.seed)
    else:
        grads = load_checkpoint(args.grads)
        sub_pre = _gradient_domain(pretrained, grads, "merge")
        sub_fine = _gradient_domain(finetuned, grads, "merge")
        state = GradAccumulator(acc=grads, beta=0.9, initialized=True)
        # the fine-tuning loop's mask rule, called once on the dumped accumulator
        mask = MaskRule(args.strategy, sub_pre, args.scope)(state)
        masked = merge(sub_fine, sub_pre, mask)
        # tensors without gradient evidence stay at the pretrained values
        merged = TensorMap.from_tensors(
            masked[t.name] if t.name in masked else t for t in pretrained
        )

    save_checkpoint(merged, args.out)
    print(f"merged strategy={args.strategy} tensors={len(merged)} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    from .benchmark import build_report, evaluate, metrics_csv_rows
    from .checkpoint import load_checkpoint
    from .config import load_config
    from .trainer import RunLog, ToyModel

    cfg = load_config(args.config)
    model = ToyModel(load_checkpoint(args.model))

    source_accs = {spec.task_id: evaluate(model, spec) for spec in cfg.suite}
    report = build_report(
        args.method_label, args.seed_label, source_accs, evaluate(model, cfg.target), RunLog()
    )
    for task_id, acc in report.per_source_accuracy.items():
        print(f"accuracy {task_id} {acc}")
    print(f"accuracy {cfg.target.task_id} {report.target_accuracy}")
    print(f"source_avg {report.source_avg}")
    print(f"target_accuracy {report.target_accuracy}")
    print(f"h_average {report.h_avg}")
    print(f"o_average {report.o_avg}")

    if args.out is not None:
        _write_csv(args.out, metrics_csv_rows([report]))
    return 0


def _cmd_pid(args) -> int:
    from .checkpoint import load_checkpoint
    from .importance import pid, pid_per_tensor

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
    # a previous run's output under --logs is not an input
    own = os.path.realpath(args.out)
    logs = sorted(p for p in Path(args.logs).glob("*.csv") if os.path.realpath(p) != own)
    if not logs:
        raise ConfigError(f"no .csv files under {args.logs}")

    rows: list[tuple[str, ...]] = []
    for path in logs:
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = tuple(next(reader, ()))
                if header != CSV_HEADER:
                    raise FormatError(f"{path}: unexpected header {header}")
                for row in reader:
                    if len(row) != len(CSV_HEADER):
                        raise FormatError(f"{path}: malformed row {row}")
                    if not math.isfinite(float(row[-1])):  # every value is a finite number
                        raise FormatError(f"{path}: non-finite value in row {row}")
                    rows.append(tuple(row))
        except (ValueError, csv.Error) as exc:
            # a non-numeric value, bytes that are not text, or an oversized field
            raise FormatError(f"{path}: {exc}") from exc

    _write_csv(args.out, [CSV_HEADER, *rows])

    # method x metric grid, metrics averaged over seeds; methods in row order
    grid: dict[str, dict[str, list[float]]] = {}
    for method, _seed, task, metric, value in rows:
        cells = grid.setdefault(method, {})
        if metric in ("source_avg", "h_average", "o_average"):
            cells.setdefault(metric, []).append(float(value))
        elif metric == "accuracy" and task == "target":
            cells.setdefault("target_accuracy", []).append(float(value))

    print("method source_avg target_accuracy h_average o_average")
    for method, cells in grid.items():
        parts = [method]
        for metric in ("source_avg", "target_accuracy", "h_average", "o_average"):
            values = cells.get(metric)
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
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a pretrained checkpoint on the target task")
    p.add_argument("--config", required=True)
    p.add_argument("--pretrained", required=True)
    p.add_argument("--method", choices=METHOD_CHOICES, default=None)
    p.add_argument("--seed", type=_bounded(int, 0), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="per-iteration trace CSV")
    p.add_argument("--grad-dump", default=None, help="save the accumulated |grad| map")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("merge", help="offline mask-and-merge on saved checkpoints")
    p.add_argument("--pretrained", required=True)
    p.add_argument("--finetuned", required=True)
    p.add_argument(
        "--grads", default=None,
        help="accumulated |grad| checkpoint; tensors it omits keep pretrained values",
    )
    p.add_argument("--strategy", choices=MERGE_STRATEGIES, required=True)
    p.add_argument("--scope", choices=NORMALIZATION_SCOPES, default="per_tensor")
    p.add_argument("--drop-p", type=_bounded(float, 0.0, 1.0), default=0.5)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge, parser=p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the configured tasks")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="write metrics CSV")
    p.add_argument("--method-label", default="eval")
    p.add_argument("--seed-label", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pid", help="importance-profile divergence of grads vs weights")
    p.add_argument("--pretrained", required=True)
    p.add_argument("--grads", required=True)
    p.add_argument("--per-tensor", action="store_true")
    p.set_defaults(func=_cmd_pid)

    p = sub.add_parser("report", help="combine metric CSVs and print the method grid")
    p.add_argument("--logs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _require_outputs(args)
        return args.func(args)
    except _UsageError:
        return 1
    except (SpiderftError, OSError) as exc:
        print(f"error: {_one_line(str(exc))}", file=sys.stderr)
        return 2


def run() -> int:
    """The program: `main` on sys.argv, then the process ends.

    Whichever way main leaves (a return, --help's SystemExit, an
    exception), the heap it leaves behind is frozen, so the interpreter's
    shutdown still runs atexit handlers and flushes the streams but skips
    the collector's passes over every object numpy and spiderft created.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
