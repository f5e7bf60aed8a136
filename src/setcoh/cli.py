"""Command-line surface: seeded, reproducible pipelines over the toolkit.

Every command resolves its flags (seed defaulting to the SETCOH_SEED
environment variable), writes a ``config.snapshot`` JSON next to its
outputs, and is byte-reproducible from that snapshot.  Exit codes:
0 success, 2 bad flags, 3 data errors, 4 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__, evalkit, trainer, verifier
from .datagen import (
    CONSISTENT,
    DEFAULT_FLIPS,
    DatasetSplit,
    GenConfig,
    INCONSISTENT,
    MalformedRecordError,
    QA_FLIPS,
    SPLIT_NAMES,
    StatementSet,
    _check_base,
    build_splits,
    load_jsonl,
    pools,
    save_jsonl,
)
from .logic import DataError, read_lines
from .model import (
    EMBED_DIM,
    HEADS,
    HIDDEN_DIM,
    MAX_SEED,
    ModelParams,
    build_vocabulary,
    load_params,
    save_params,
)
from .trainer import TrainerConfig, TrainingDivergedError, Threshold

DATA_FILE = "data.jsonl"
CERTIFICATE_FILE = DATA_FILE + ".sha256"     # gen's sha256sum line for the data.jsonl it wrote
MODEL_FILE = "model.bin"
THRESHOLD_FILE = "threshold.txt"
METRICS_FILE = "metrics.csv"
SNAPSHOT_FILE = "config.snapshot"

# Classes whose union contains at most one corrupted part; the locate
# default, where the gold index set has at most one element per set.
SINGLE_GOLD_CLASSES = tuple(tag for tag in evalkit.PROVENANCE_CLASSES if tag.count("I") <= 1)

# The loss column of train_log.csv for each --arch.
LOSS_COLUMNS = {"energy": "mean_hinge_loss", "binary": "mean_cross_entropy_loss"}
# The threshold mixture's classes, in train_log.csv's order of their median validation1 scores.
LOG_CLASSES = tuple(sorted(trainer.THRESHOLD_CLASSES))


class _SeedText(str):
    """The SETCOH_SEED text ``--seed`` defaults to; argparse parses it only when the flag is absent."""


def _seed(text: str) -> int:
    """A ``--seed`` or SETCOH_SEED value: an integer from 0 to the largest seed a parameter file holds; any other
    exits 2 through argparse, naming the flag (``argument --seed: ...``) and, for the variable's text, the variable."""
    try:
        seed = int(text)
    except ValueError:  # also for base-10 integer text of more digits than sys.get_int_max_str_digits()
        seed = Decimal(text) if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text) else -1
    if not 0 <= seed <= MAX_SEED:
        source = "SETCOH_SEED " if isinstance(text, _SeedText) else ""
        bound = ">= 0" if seed < 0 else f"<= {MAX_SEED}"
        raise argparse.ArgumentTypeError(f"{source}must be an integer {bound}, got {text!r}")
    return int(seed)


def _write_snapshot(args: argparse.Namespace) -> Path:
    """Write the resolved flags to ``--out``/config.snapshot; returns ``--out``."""
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    snapshot = {"command": args.command, "version": __version__, "args": resolved}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / SNAPSHOT_FILE).write_text(json.dumps(snapshot, indent=2, sort_keys=True, default=str) + "\n")
    return out


def _columns(report_type: type) -> list[str]:
    """The field names of the dataclass ``report_type``: its columns in a report file."""
    return [f.name for f in fields(report_type)]


def _write_csv(path: Path, columns: list[str], rows: Iterable[dict]) -> None:
    """One line of ``columns``, then each row's values in that order; a column a row lacks is left empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, columns, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_summary(out: Path, payload: dict) -> None:
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _certificate(path: Path) -> bytes:
    """The ``sha256sum`` line of the file ``path`` as it is now: its sha256 in lowercase hex, two spaces, its name."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return f"{digest.hexdigest()}  {path.name}\n".encode()


def _certified(path: Path) -> bool:
    """Whether :data:`CERTIFICATE_FILE` beside ``path`` is exactly :func:`_certificate` of ``path``'s bytes.

    A certificate or corpus that cannot be read, or any other byte in the
    certificate, leaves the file uncertified.
    """
    try:
        with open(path.with_name(CERTIFICATE_FILE), "rb") as fh:
            line = _certificate(path)
            return fh.read(len(line) + 1) == line
    except OSError:
        return False


def load_corpus(data_dir: Path, splits: Sequence[str] = SPLIT_NAMES) -> DatasetSplit:
    """The sets of ``splits`` in data.jsonl, each filed under its split by the id prefix convention.

    Every record is decoded and checked, but one of a split not in
    ``splits`` of a file that gen certified (:func:`_certified`), which
    :func:`datagen.load_jsonl` passes over by its ``<split>-`` id prefix;
    any edit of the file changes its sha256 and so restores the whole
    check.  A set whose id names no split or holds ``#`` (which marks a
    subset's score-file id, :func:`~setcoh.verifier.subset_id`), or that is a union
    (:func:`datagen._check_base`), is refused at its line.  Only the
    records of ``splits`` are built into sets; the other splits are left
    empty.  The sets built share equal values as :func:`datagen.load_jsonl`
    says.
    """
    path = data_dir / DATA_FILE
    unread = [name for name in SPLIT_NAMES if name not in splits]
    skip = [f"{name}-" for name in unread] if unread and _certified(path) else ()
    corpus = DatasetSplit()
    buckets = corpus.splits()

    def kept(set_id: str, provenance: str) -> bool:
        name = set_id.split("-", 1)[0]
        if name not in buckets:
            raise MalformedRecordError(f"set id {set_id!r} does not start with a split name ({'/'.join(SPLIT_NAMES)})")
        if "#" in set_id:  # verifier.subset_id puts it between a set id and the indices a subset keeps
            raise MalformedRecordError(f"set id {set_id!r} holds '#', which score files use to name a subset")
        _check_base(set_id, provenance)
        return name in splits

    for s in load_jsonl(path, kept, skip):
        buckets[s.id.split("-", 1)[0]].append(s)
    return corpus


def _load_split(args: argparse.Namespace, name: str,
                drawn: Sequence[str] = ()) -> tuple[DatasetSplit, list[StatementSet]]:
    """The :func:`load_corpus` of ``--data`` that keeps split ``name``, which must not be empty, and ``drawn``."""
    corpus = load_corpus(Path(args.data), (name, *drawn))
    if not corpus.splits()[name]:
        raise MalformedRecordError(f"{Path(args.data) / DATA_FILE}: split {name!r} is empty")
    return corpus, corpus.splits()[name]


def _training_start(args: argparse.Namespace, drawn: Sequence[str]) -> tuple[DatasetSplit, ModelParams]:
    """The corpus of ``--data`` and the initial parameters over its train split's vocabulary.

    Each split in ``drawn``, which training draws pairs or mixtures from,
    must hold consistent and inconsistent sets; found before training starts.
    """
    corpus, train_sets = _load_split(args, "train", drawn)
    for name in drawn:
        missing = sorted({CONSISTENT, INCONSISTENT} - {s.label for s in corpus.splits()[name]})
        if missing:
            raise MalformedRecordError(f"{Path(args.data) / DATA_FILE}: split {name!r} has no "
                                       f"{' or '.join(missing)} sets")
    return corpus, ModelParams.init(build_vocabulary(train_sets), d=args.dim, h=args.hidden, seed=args.seed)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        train_count, eval_count = (int(x) for x in args.counts.split(","))
    except ValueError:
        raise ValueError(f"--counts must be TRAIN,EVAL (two integers), got {args.counts!r}") from None
    if min(train_count, eval_count) < 1:
        raise ValueError(f"--counts must be >= 1, got {args.counts!r}")
    config = GenConfig(style=args.style, train_count=train_count, eval_count=eval_count,
                       qa_flips=tuple(_entries(args, "qa_flips", QA_FLIPS)))
    out = _write_snapshot(args)
    ordered = [s for sets in build_splits(config, args.seed).splits().values() for s in sets]
    save_jsonl(ordered, out / DATA_FILE)
    (out / CERTIFICATE_FILE).write_bytes(_certificate(out / DATA_FILE))
    print(f"wrote {len(ordered)} sets to {out / DATA_FILE}")
    return 0


# The lines of a threshold file after its value, each ``key=value``.
_THRESHOLD_KEYS = ("source", "epoch", "degenerate")


def _save_threshold(out: Path, threshold: Threshold) -> None:
    values = (threshold.source, threshold.learned_epoch, threshold.degenerate)
    lines = [repr(threshold.value), *(f"{key}={value}" for key, value in zip(_THRESHOLD_KEYS, values))]
    (out / THRESHOLD_FILE).write_text("\n".join(lines) + "\n")


def load_threshold(path: Path) -> Threshold:
    """Inverse of :func:`_save_threshold`; a malformed file raises MalformedRecordError.

    The threshold must be finite unless the file marks it ``degenerate=True``:
    training writes an infinite threshold only for a degenerate fit.  Each
    later line is one of :data:`_THRESHOLD_KEYS` ``=`` its value, once.
    Lines are those of :func:`~setcoh.logic.read_lines`.
    """
    lines = [line for _, line in read_lines(path, MalformedRecordError)]
    if not lines:
        raise MalformedRecordError(f"{path}: empty threshold file")
    try:
        value = float(lines[0])
    except ValueError:
        raise MalformedRecordError(f"{path}:1: threshold {lines[0]!r} is not a number") from None
    if math.isnan(value):
        raise MalformedRecordError(f"{path}:1: threshold is NaN")
    meta = {}  # key -> (value, line number)
    for lineno, line in enumerate(lines[1:], start=2):
        key, equals, text = line.partition("=")
        if not equals or key not in _THRESHOLD_KEYS:
            raise MalformedRecordError(f"{path}:{lineno}: line {line!r} is not one of "
                                       + ", ".join(f"{k}=" for k in _THRESHOLD_KEYS))
        if key in meta:
            raise MalformedRecordError(f"{path}:{lineno}: {key!r} repeats line {meta[key][1]}")
        meta[key] = (text, lineno)
    flag, flag_line = meta.get("degenerate", ("False", 2))
    if flag not in ("True", "False"):
        raise MalformedRecordError(f"{path}:{flag_line}: degenerate {flag!r} is not True or False")
    degenerate = flag == "True"
    if math.isinf(value) and not degenerate:
        raise MalformedRecordError(f"{path}:1: threshold {lines[0]!r} is not finite")
    epoch, epoch_line = meta.get("epoch", ("-1", 2))
    try:
        learned_epoch = int(epoch)
    except ValueError:
        raise MalformedRecordError(f"{path}:{epoch_line}: epoch {epoch!r} is not an integer") from None
    source, source_line = meta.get("source", ("energy", 2))
    if source not in HEADS:
        raise MalformedRecordError(f"{path}:{source_line}: unknown source {source!r}")
    return Threshold(
        value=value,
        source=source,
        learned_epoch=learned_epoch,
        degenerate=degenerate,
    )


def _check_positive(args: argparse.Namespace, *names: str) -> None:
    """Exit 2 through ValueError, naming the flag, when one of ``names`` is below 1."""
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {getattr(args, name)}")


def _trainer_config(args: argparse.Namespace, **dests: str) -> TrainerConfig:
    """The TrainerConfig of ``--seed`` and of each field in ``dests`` from the flag that argparse stores as its dest.

    A bad value exits 2 through ValueError: TrainerConfig's message, naming the flag in place of the field.
    """
    for field, dest in dests.items():
        try:
            TrainerConfig(**{field: getattr(args, dest)})
        except ValueError as exc:
            raise ValueError(str(exc).replace(field, f"--{dest.replace('_', '-')}", 1)) from None
    return TrainerConfig(rng_seed=args.seed, **{field: getattr(args, dest) for field, dest in dests.items()})


def cmd_train(args: argparse.Namespace) -> int:
    _check_positive(args, "dim", "hidden")
    config = _trainer_config(args, alpha="alpha", learning_rate="lr", epochs="epochs", batch_size="batch_size",
                             regime="regime", pairs_per_epoch="pairs_per_epoch", val_per_class="val_per_class")
    out = _write_snapshot(args)
    corpus, params = _training_start(args, ("train", "validation1"))
    result = (trainer.train if args.arch == "energy" else trainer.train_binary)(params, corpus, config)
    save_params(result.params, out / MODEL_FILE)
    _save_threshold(out, result.threshold)
    columns = ["epoch", LOSS_COLUMNS[args.arch], "val1_macro_acc", "threshold", *(f"median_{c}" for c in LOG_CLASSES)]
    _write_csv(out / "train_log.csv", columns,
               (dict(zip(columns, [stats.epoch, stats.mean_loss, stats.val1_macro_acc, stats.threshold,
                                   *(stats.median_scores[c] for c in LOG_CLASSES)])) for stats in result.log))
    print(f"wrote {out / MODEL_FILE}")
    return 0


def resolve_scorer(spec: str, threshold_file: str | None) -> verifier.Scorer:
    """oracle | path to model.bin | external:scores.csv"""
    if spec == "oracle":
        return verifier.OracleScorer()
    if spec.startswith("external:"):
        return verifier.external_scorer_from_file(spec.split(":", 1)[1])
    params = load_params(spec)
    if threshold_file is None:
        threshold_file = str(Path(spec).parent / THRESHOLD_FILE)
    threshold = load_threshold(Path(threshold_file))
    return verifier.MODEL_SCORERS[threshold.source](params, threshold.value)


def _scored_mixture(args: argparse.Namespace, classes=evalkit.PROVENANCE_CLASSES, min_size: int = 0,
                    gold: bool = False) -> tuple[Path, verifier.Scorer, evalkit.EvalMixture]:
    """The set-up ``verify``, ``locate`` and ``sweep`` share: snapshot, corpus, scorer, mixture.

    The mixture draws ``--mixture-per-class`` sets of each of ``classes``
    from the ``--split`` base sets with at least ``min_size`` statements.
    With ``gold``, and a class with an ``I`` part, an inconsistent base set
    without gold indices is a data error, found before the mixture is drawn.
    """
    _check_positive(args, "mixture_per_class")
    out = _write_snapshot(args)
    _, sets = _load_split(args, args.split)
    scorer = resolve_scorer(args.scorer, args.threshold_file)
    base_c, base_i = ([s for s in pool if len(s) >= min_size] for pool in pools(sets))
    missing = [s.id for s in base_i if s.gold_inconsistent_indices is None] if gold else []
    if missing and any("I" in tag for tag in classes):
        raise evalkit.MissingGoldError(f"{Path(args.data) / DATA_FILE}: set {missing[0]!r} has no "
                                       "gold_inconsistent_indices for locate to score against")
    mixture = evalkit.build_eval_mixture(base_c, base_i, args.mixture_per_class, rng_seed=args.seed, classes=classes)
    return out, scorer, mixture


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        verifier.tolerance_rule(args.mtr)
    except ValueError:
        raise ValueError(f"--mtr must be in [0, 1], got {args.mtr}") from None
    out, scorer, mixture = _scored_mixture(args)
    scores = {} if args.dump_scores else None       # every row the verdicts read
    report = evalkit.verification_report(scorer, mixture.sets, args.strategy, args.mtr, scores)
    _write_csv(out / METRICS_FILE, ["class", *_columns(evalkit.ClassMetrics)],
               [{"class": "consistent", **asdict(report.consistent)},
                {"class": "inconsistent", **asdict(report.inconsistent)},
                {"class": "macro", "f1": report.macro_f1, "support": report.count}])
    _write_summary(out, {
        "macro_f1": report.macro_f1,
        "f1_consistent": report.consistent.f1,
        "f1_inconsistent": report.inconsistent.f1,
        "strategy": args.strategy,
        "mtr": args.mtr,
        "count": report.count,
    })
    if scores is not None:
        verifier.write_scores_file(out / "scores.csv", scorer.threshold, scores)
    print(f"macro_f1={report.macro_f1:.4f} ({args.strategy})")
    return 0


def cmd_locate(args: argparse.Namespace) -> int:
    classes = _entries(args, "classes", evalkit.PROVENANCE_CLASSES)
    if args.min_size < 0:
        raise ValueError(f"--min-size must be >= 0, got {args.min_size}")
    out, scorer, mixture = _scored_mixture(args, classes, args.min_size, gold=True)
    # A consistent set's gold is empty, whether its indices are () or, for a sentence set, None.
    golds = [() if s.label == CONSISTENT else s.gold_inconsistent_indices for s in mixture.sets]
    report = evalkit.locate_metrics([(verifier.locate(scorer, s), gold) for s, gold in zip(mixture.sets, golds)])
    _write_csv(out / "locate_report.csv", _columns(evalkit.LocateReport), [asdict(report)])
    _write_summary(out, asdict(report))
    print(f"locate em={report.em:.4f} f1={report.f1:.4f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _entries(args, "mtr_grid")
    out, scorer, mixture = _scored_mixture(args)
    rows = evalkit.mtr_sweep(scorer, mixture, grid)
    _write_csv(out / "sweep.csv", _columns(evalkit.SweepRow), map(asdict, rows))
    best = evalkit.best_row(rows)
    _write_summary(out, {"best_mtr": best.mtr, "best_macro_f1": best.macro_f1})
    print(f"best mtr={best.mtr} macro_f1={best.macro_f1:.4f}")
    return 0


def _entries(args: argparse.Namespace, dest: str, choices: Sequence[str] | None = None) -> list:
    """The comma-separated entries of the flag argparse stores as ``dest``, each one of ``choices`` (without
    ``choices``, an MTR that :func:`verifier.tolerance_rule` accepts) and none repeated; any other exits 2
    through ValueError, naming the flag."""
    flag, values = f"--{dest.replace('_', '-')}", []
    for entry in getattr(args, dest).split(","):
        if choices is None:
            try:
                value = float(entry)
                verifier.tolerance_rule(value)
            except ValueError:
                raise ValueError(f"{flag} must be comma-separated numbers in [0, 1], got {entry!r}") from None
        elif entry in choices:
            value = entry
        else:
            raise ValueError(f"{flag} must name {dest.replace('_', ' ')} from {', '.join(choices)}, got {entry!r}")
        if value in values:
            raise ValueError(f"{flag} must not repeat an entry, got {entry!r} again")
        values.append(value)
    return values


def cmd_ablate(args: argparse.Namespace) -> int:
    _check_positive(args, "dim", "hidden", "mixture_per_class")
    regimes = _entries(args, "regimes", sorted(trainer.REGIMES))
    config = _trainer_config(args, epochs="epochs", pairs_per_epoch="pairs_per_epoch", val_per_class="val_per_class")
    out = _write_snapshot(args)
    corpus, params = _training_start(args, ("train", "validation1", "validation2", "test"))
    reports = evalkit.ablation_report(corpus, regimes, config, params, eval_per_class=args.mixture_per_class)
    _write_csv(out / "ablation.csv", ["regime", *_columns(evalkit.EnergyQuartiles), "macro_f1"],
               [{"regime": r.regime, **asdict(q), "macro_f1": r.macro_f1} for r in reports for q in r.quartiles])
    _write_summary(out, {r.regime: r.macro_f1 for r in reports})
    for report in reports:
        print(f"{report.regime}: macro_f1={report.macro_f1:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setcoh", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, data: bool = True) -> None:
        p.add_argument("--seed", type=_seed, default=_SeedText(os.environ.get("SETCOH_SEED", "0")))
        p.add_argument("--out", required=True)
        if data:
            p.add_argument("--data", required=True, help="directory containing data.jsonl")

    def training(p: argparse.ArgumentParser, epochs: int) -> None:
        p.add_argument("--epochs", type=int, default=epochs)
        p.add_argument("--pairs-per-epoch", type=int, default=TrainerConfig.pairs_per_epoch)
        p.add_argument("--val-per-class", type=int, default=TrainerConfig.val_per_class)
        p.add_argument("--dim", type=int, default=EMBED_DIM)
        p.add_argument("--hidden", type=int, default=HIDDEN_DIM)

    def scored(p: argparse.ArgumentParser, per_class: int, split: str) -> None:
        p.add_argument("--scorer", required=True, help="oracle | model.bin path | external:scores.csv")
        p.add_argument("--threshold-file", default=None)
        p.add_argument("--mixture-per-class", type=int, default=per_class)
        p.add_argument("--split", choices=SPLIT_NAMES, default=split)

    p = sub.add_parser("gen", help="generate a corpus")
    common(p, data=False)
    p.add_argument("--style", choices=["snli", "qa"], required=True)
    p.add_argument("--counts", default=f"{GenConfig.train_count},{GenConfig.eval_count}",
                   help="train,eval pair counts per label")
    p.add_argument("--qa-flips", default=",".join(DEFAULT_FLIPS))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a scorer")
    common(p)
    training(p, epochs=TrainerConfig.epochs)
    p.add_argument("--arch", choices=list(LOSS_COLUMNS), default="energy")
    p.add_argument("--regime", choices=sorted(trainer.REGIMES), default=TrainerConfig.regime,
                   help="contrast regime (--arch energy only: binary trains every side of the eight-kind plan)")
    p.add_argument("--alpha", type=float, default=TrainerConfig.alpha,
                   help="hinge margin (--arch energy only: binary training has no margin)")
    p.add_argument("--lr", type=float, default=TrainerConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainerConfig.batch_size)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="verification metrics on a class-balanced mixture")
    common(p)
    scored(p, per_class=50, split="test")
    p.add_argument("--strategy", choices=["set", "elementwise"], default="set")
    p.add_argument("--mtr", type=float, default=0.0)
    p.add_argument("--dump-scores", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("locate", help="localization metrics over corrupted-QA mixtures")
    common(p)
    scored(p, per_class=25, split="test")
    p.add_argument("--classes", default=",".join(SINGLE_GOLD_CLASSES))
    p.add_argument("--min-size", type=int, default=4)
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("sweep", help="element-wise macro-F1 over a tolerance-rate grid")
    common(p)
    scored(p, per_class=25, split="validation2")
    p.add_argument("--mtr-grid", default="0,0.1,0.2,0.3,0.4,0.5")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="compare contrast regimes")
    common(p)
    training(p, epochs=8)
    p.add_argument("--regimes", default="basic,six,eight")
    p.add_argument("--mixture-per-class", type=int, default=25)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
