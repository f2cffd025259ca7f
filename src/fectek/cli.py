"""Command-line surface: vocabulary, training, encoding, index, search, eval.

Exit codes: 0 success, 1 runtime failure (diverged training, failed
gradient check), 2 usage, 3 missing or unreadable input, 4 corrupt data.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import index as findex  # via the module, so a replaced index.search is used
from .encoder import EncoderConfig
from .errors import CorruptFileError, DataFormatError, TrainingDivergedError, open_text
from .evaluation import load_qrels, load_run, mrr_at_k, recall_at_k, write_run
from .gradcheck import DEFAULT_EPS, DEFAULT_TOLERANCE, run_gradient_check
from .index import InvertedIndex
from .model import FecTekModel, load_model, save_model
from .synth import SynthConfig, write_dataset
from .tokenizer import Vocabulary, vocabulary_coverage
from .trainer import TrainerConfig, load_triples, train


def _read_tsv_pairs(path: str | Path, what: str) -> list[tuple[str, str]]:
    """Parse `id \\t text` rows; the text may be empty but the tab may not."""
    rows: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DataFormatError(
                    f"{path}:{lineno}: expected '<id>\\t<text>' in {what} file"
                )
            ident, text = line.split("\t", 1)
            if not ident:
                raise DataFormatError(f"{path}:{lineno}: empty id in {what} file")
            if ident in seen:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate id {ident!r} in {what} file"
                )
            seen.add(ident)
            rows.append((ident, text))
    if not rows:
        raise DataFormatError(f"{path}: no rows in {what} file")
    return rows


def _iter_weight_stream(path: str | Path):
    """Yield (docid, {term_id: weight}) rows from an encoded-weights file."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
                raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if (
                not isinstance(row, dict)
                or not isinstance(row.get("docid"), str)
                or not isinstance(row.get("weights"), dict)
            ):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {{'docid': str, 'weights': {{...}}}}"
                )
            weights: dict[int, float] = {}
            for key, value in row["weights"].items():
                try:
                    term = int(key)
                except ValueError:
                    term = None
                if key != str(term):  # "07", " 7", "+7" and "0_7" would alias term 7
                    raise DataFormatError(
                        f"{path}:{lineno}: term id {key!r} is not a canonical integer"
                    )
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise DataFormatError(
                        f"{path}:{lineno}: weight for term {key} is not a number"
                    )
                try:
                    weights[term] = float(value)
                except OverflowError as exc:
                    raise DataFormatError(
                        f"{path}:{lineno}: weight for term {key} is too large"
                    ) from exc
            yield row["docid"], weights


def _encoder_config(args: argparse.Namespace) -> EncoderConfig:
    return EncoderConfig(**{f.name: getattr(args, f.name) for f in fields(EncoderConfig)})


def _trainer_config(args: argparse.Namespace, enable_term_loss: bool) -> TrainerConfig:
    return TrainerConfig(
        epochs=args.epochs,
        batch_queries=args.batch_queries,
        max_negatives=args.negatives,
        peak_lr=args.lr,
        warmup_ratio=args.warmup_ratio,
        weight_decay=args.weight_decay,
        clip_norm=args.clip_norm,
        seed=args.seed,
        enable_term_loss=enable_term_loss,
    )


def _weigh(
    model: FecTekModel, vocab: Vocabulary, texts: list[str], max_len: int
) -> list[dict[int, float]]:
    """Term weights of each text cut to `max_len` tokens, in input order."""
    return model.weigh([vocab.encode(text, max_len) for text in texts])


def _rank(
    model: FecTekModel,
    vocab: Vocabulary,
    index: InvertedIndex,
    queries: list[tuple[str, str]],
    k: int,
) -> dict[str, list[tuple[str, float]]]:
    """Top-k (docid, score) hits for each query id."""
    weights = _weigh(model, vocab, [text for _, text in queries], model.config.max_query_len)
    results = {}
    for (qid, _), row in zip(queries, weights):
        results[qid] = [(hit.docid, hit.value) for hit in findex.search(index, row, k)]
    return results


def _check_vocab_match(model: FecTekModel, vocab: Vocabulary, source: str) -> None:
    if model.vocab_size != len(vocab):
        raise DataFormatError(
            f"{source}: checkpoint was trained with vocabulary size "
            f"{model.vocab_size}, but the given vocabulary has {len(vocab)}"
        )


# -- subcommands ----------------------------------------------------------------


def cmd_build_vocab(args: argparse.Namespace) -> int:
    rows = _read_tsv_pairs(args.corpus, "corpus")
    texts = [text for _, text in rows]
    vocab = Vocabulary.build(texts, min_freq=args.min_freq)
    vocab.save(args.out)
    coverage = vocabulary_coverage(vocab, texts)
    print(f"vocabulary: {len(vocab)} ids ({coverage:.1%} corpus coverage) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _encoder_config(args)
    trainer_config = _trainer_config(args, enable_term_loss=not args.no_tkgm)
    vocab = Vocabulary.load(args.vocab)
    triples = load_triples(args.triples)
    if args.init_checkpoint:
        model = load_model(args.init_checkpoint)
        _check_vocab_match(model, vocab, str(args.init_checkpoint))
        model.use_feature_gate = not args.no_fcm
        model.aggregation = args.aggregation
    else:
        model = FecTekModel(
            len(vocab),
            config,
            use_feature_gate=not args.no_fcm,
            aggregation=args.aggregation,
            seed=args.seed,
        )
    resolved = {
        "triples": str(args.triples),
        "vocab": str(args.vocab),
        "vocab_size": len(vocab),
        "queries": len(triples),
        # A loaded checkpoint keeps its own encoder shape, whatever the flags say.
        **asdict(model.config),
        "feature_gate": not args.no_fcm,
        "term_guidance": not args.no_tkgm,
        "aggregation": args.aggregation,
        "epochs": trainer_config.epochs,
        "batch_queries": trainer_config.batch_queries,
        "max_negatives": trainer_config.max_negatives,
        "peak_lr": trainer_config.peak_lr,
        "warmup_ratio": trainer_config.warmup_ratio,
        "weight_decay": trainer_config.weight_decay,
        "clip_norm": trainer_config.clip_norm,
        "seed": trainer_config.seed,
        "init_checkpoint": str(args.init_checkpoint) if args.init_checkpoint else None,
    }
    final = train(model, triples, vocab, trainer_config, args.out_dir, resolved)
    print(f"checkpoint: {final}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    model = load_model(args.checkpoint)
    vocab = Vocabulary.load(args.vocab)
    _check_vocab_match(model, vocab, str(args.checkpoint))
    rows = _read_tsv_pairs(args.corpus, "corpus")
    weights = _weigh(model, vocab, [text for _, text in rows], model.config.max_passage_len)
    lines = []
    for (docid, _), row in zip(rows, weights):
        payload = {str(term): row[term] for term in sorted(row)}
        lines.append(json.dumps({"docid": docid, "weights": payload}) + "\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"encoded {len(rows)} passages -> {args.out}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    vocab = Vocabulary.load(args.vocab)
    index = InvertedIndex.build(_iter_weight_stream(args.weights), len(vocab))
    index.save(args.out)
    print(
        f"index: {index.doc_count} docs, scale {index.scale:.6g} -> {args.out}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.k <= 0:
        raise ValueError(f"--k must be positive, got {args.k}")
    index = InvertedIndex.load(args.index)
    model = load_model(args.checkpoint)
    vocab = Vocabulary.load(args.vocab)
    _check_vocab_match(model, vocab, str(args.checkpoint))
    if index.vocab_size != len(vocab):
        raise DataFormatError(
            f"{args.index}: index vocabulary size {index.vocab_size} does not "
            f"match the given vocabulary ({len(vocab)})"
        )
    queries = _read_tsv_pairs(args.queries, "queries")
    write_run(_rank(model, vocab, index, queries, args.k), args.tag, args.out)
    print(f"searched {len(queries)} queries (top {args.k}) -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = load_run(args.run)
    qrels = load_qrels(args.qrels)
    mrr = mrr_at_k(run, qrels, k=10)
    recall = recall_at_k(run, qrels, k=args.recall_k)
    print(f"MRR@10={mrr:.6f} Recall@{args.recall_k}={recall:.6f}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradient_check(
        seed=args.seed,
        eps=args.eps,
        tolerance=args.tolerance,
        corrupt_group=args.corrupt_group,
        max_coords_per_group=args.max_coords,
    )
    for group in report.groups:
        print(
            f"{group.name:40s} max_rel_err={group.max_error:.3e} "
            f"({group.checked} coords)"
        )
    if report.passed:
        print(f"gradcheck passed: worst {report.worst:.3e} <= {report.tolerance:g}")
        return 0
    offender = max(report.groups, key=lambda g: g.max_error)
    print(
        f"gradcheck FAILED: {offender.name} max_rel_err={offender.max_error:.3e} "
        f"> {report.tolerance:g}",
        file=sys.stderr,
    )
    return 1


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        passages=args.passages,
        terms=args.terms,
        queries=args.queries,
        negatives=args.negatives,
        seed=args.seed,
    )
    paths = write_dataset(args.out_dir, config)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


_ABLATION_GRID = (
    ("baseline", False, False),
    ("+feature-gate", True, False),
    ("+term-guidance", False, True),
    ("full", True, True),
)


def cmd_ablation(args: argparse.Namespace) -> int:
    """Train the four flag combinations on one dataset and tabulate MRR@10."""
    data = Path(args.data_dir)
    corpus_path = data / "corpus.tsv"
    triples_path = data / "triples.jsonl"
    queries_path = data / "queries.tsv"
    qrels_path = data / "qrels.tsv"
    for path in (corpus_path, triples_path, queries_path, qrels_path):
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file: {path}")
    config = _encoder_config(args)
    trainer_config = _trainer_config(args, enable_term_loss=True)

    out_root = Path(args.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    corpus_rows = _read_tsv_pairs(corpus_path, "corpus")
    vocab = Vocabulary.build([text for _, text in corpus_rows], min_freq=1)
    vocab_path = out_root / "vocab.txt"
    vocab.save(vocab_path)
    triples = load_triples(triples_path)
    queries = _read_tsv_pairs(queries_path, "queries")
    qrels = load_qrels(qrels_path)

    rows = []
    for name, use_gate, use_guidance in _ABLATION_GRID:
        run_dir = out_root / name.replace("+", "with-")
        model = FecTekModel(
            len(vocab),
            config,
            use_feature_gate=use_gate,
            aggregation=args.aggregation,
            seed=args.seed,
        )
        run_config = replace(trainer_config, enable_term_loss=use_guidance)
        train(model, triples, vocab, run_config, run_dir, {"ablation": name})
        weights = _weigh(model, vocab, [text for _, text in corpus_rows], config.max_passage_len)
        index = InvertedIndex.build(zip((docid for docid, _ in corpus_rows), weights), len(vocab))
        mrr = mrr_at_k(_rank(model, vocab, index, queries, 10), qrels, k=10)
        rows.append({"config": name, "fcm": use_gate, "tkgm": use_guidance, "mrr@10": mrr})

    header = f"{'config':16s} {'FCM':>4s} {'TKGM':>5s} {'MRR@10':>8s}"
    print(header)
    print("-" * len(header))
    table_lines = [header]
    for row in rows:
        line = (
            f"{row['config']:16s} {'yes' if row['fcm'] else 'no':>4s} "
            f"{'yes' if row['tkgm'] else 'no':>5s} {row['mrr@10']:>8.4f}"
        )
        print(line)
        table_lines.append(line)
    (out_root / "ablation.json").write_text(
        json.dumps(rows, indent=2) + "\n", encoding="utf-8"
    )
    (out_root / "ablation.txt").write_text(
        "\n".join(table_lines) + "\n", encoding="utf-8"
    )
    print(f"table: {out_root / 'ablation.txt'}")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_encoder_flags(parser: argparse.ArgumentParser) -> None:
    config = EncoderConfig
    parser.add_argument("--dim", type=int, default=config.dim, help="hidden width")
    parser.add_argument(
        "--layers", type=int, default=config.layers, help="transformer layers"
    )
    parser.add_argument("--heads", type=int, default=config.heads, help="attention heads")
    parser.add_argument("--ffn-multiplier", type=int, default=config.ffn_multiplier)
    parser.add_argument("--max-query-len", type=int, default=config.max_query_len)
    parser.add_argument("--max-passage-len", type=int, default=config.max_passage_len)


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    config = TrainerConfig
    parser.add_argument("--epochs", type=int, default=config.epochs)
    parser.add_argument("--batch-queries", type=int, default=config.batch_queries)
    parser.add_argument(
        "--negatives", type=int, default=config.max_negatives, help="negatives used per query"
    )
    parser.add_argument("--lr", type=float, default=config.peak_lr, help="peak learning rate")
    parser.add_argument("--warmup-ratio", type=float, default=config.warmup_ratio)
    parser.add_argument("--weight-decay", type=float, default=config.weight_decay)
    parser.add_argument("--clip-norm", type=float, default=config.clip_norm)
    parser.add_argument("--seed", type=int, default=config.seed)
    parser.add_argument(
        "--aggregation",
        choices=("max", "sum"),
        default="max",
        help="how duplicate term occurrences collapse",
    )
    parser.add_argument(
        "--no-fcm",
        action="store_true",
        help="bypass the feature-context gate (weight head reads raw states)",
    )
    parser.add_argument(
        "--no-tkgm",
        action="store_true",
        help="drop the term-level guidance loss",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fectek",
        description="Learned sparse retrieval: train, encode, index, search, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary from a corpus TSV")
    p.add_argument("--corpus", required=True, help="TSV of docid<TAB>text")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model on JSONL triples")
    p.add_argument("--triples", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--init-checkpoint", default=None)
    _add_encoder_flags(p)
    _add_training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="write per-passage term weights as JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("index", help="build the impact index from encoded weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="run queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--queries", required=True, help="TSV of qid<TAB>text")
    p.add_argument("--out", required=True, help="run file to write")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--tag", default="fectek")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--recall-k", type=int, default=100)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--max-coords", type=int, default=None)
    p.add_argument("--corrupt-group", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic retrieval dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--passages", type=int, default=SynthConfig.passages)
    p.add_argument("--terms", type=int, default=SynthConfig.terms)
    p.add_argument("--queries", type=int, default=SynthConfig.queries)
    p.add_argument("--negatives", type=int, default=SynthConfig.negatives)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "ablation", help="train the 4-row flag grid and tabulate MRR@10"
    )
    p.add_argument("--data-dir", required=True, help="directory from `fectek synth`")
    p.add_argument("--out-dir", required=True)
    _add_encoder_flags(p)
    _add_training_flags(p)
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, CorruptFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
