"""Command-line surface: vocabulary, training, encoding, index, search, eval.

Exit codes: 0 success, 1 runtime failure (diverged training, failed
gradient check), 2 usage, 3 missing or unreadable input, 4 corrupt data
(including a checkpoint whose values overflow float32 in a forward pass).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import index as findex  # via the module, so a replaced index.search is used
from .encoder import EncoderConfig
from .errors import CorruptFileError, DataFormatError, TrainingDivergedError
from .errors import json_rows, open_text, write_file
from .evaluation import canonical_int, load_qrels, load_run, mrr_at_k, recall_at_k, write_run
from .gradcheck import TOLERANCE, run_gradient_check
from .index import InvertedIndex
from .model import FecTekModel, load_model, new_model
from .synth import SynthConfig, write_dataset
from .tokenizer import RESERVED_TOKENS, Vocabulary, vocabulary_coverage
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
            if ident.split() != [ident]:  # a run file splits its rows on whitespace
                raise DataFormatError(
                    f"{path}:{lineno}: id {ident!r} contains whitespace in {what} file"
                )
            if ident in seen:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate id {ident!r} in {what} file"
                )
            seen.add(ident)
            rows.append((ident, text))
    if not rows:
        raise DataFormatError(f"{path}: no rows in {what} file")
    return rows


class _TermIds(dict):
    """Term id of each key string found canonical; a new key is checked once,
    on its first lookup, and a non-canonical one raises ValueError."""

    def __missing__(self, key: str) -> int:
        self[key] = term = canonical_int(key)
        return term


def _iter_weight_stream(path: str | Path):
    """Yield (docid, term ids, weights) rows from an encoded-weights file.

    A row whose keys are canonical and whose values are all floats passes
    with no per-key Python: its keys map through `_TermIds` and one set of
    value types is checked.  Any other row takes the per-key walk, which
    names its first bad key or value, or turns its integer weights to floats.
    """
    terms_of = _TermIds()
    for lineno, row in json_rows(path):
        if (
            not isinstance(row, dict)
            or not isinstance(row.get("docid"), str)
            or not isinstance(row.get("weights"), dict)
        ):
            raise DataFormatError(
                f"{path}:{lineno}: expected {{'docid': str, 'weights': {{...}}}}"
            )
        raw = row["weights"]
        weights = raw.values()
        try:
            terms = list(map(terms_of.__getitem__, raw))
        except ValueError:
            terms = None
        if terms is None or not set(map(type, weights)) <= {float}:
            terms, weights = [], []
            for key, value in raw.items():
                try:  # "07", " 7", "+7" and "0_7" would alias term 7
                    term = canonical_int(key)
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}:{lineno}: term id {key!r} is not a canonical integer"
                    ) from exc
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise DataFormatError(
                        f"{path}:{lineno}: weight for term {key} is not a number"
                    )
                try:
                    weights.append(float(value))
                except OverflowError as exc:
                    raise DataFormatError(
                        f"{path}:{lineno}: weight for term {key} is too large"
                    ) from exc
                terms.append(term)
        yield row["docid"], terms, weights


def _config(cls, args: argparse.Namespace):
    """`cls` from the flags whose dest is one of its fields; a flag that was
    not given (None) keeps the field's default."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _check_out_dir(path: str) -> None:
    """Raise the error that writing `path` would, if its directory is missing
    or it is a directory, before a command does its work; `path` stays as is."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    if Path(path).is_dir():
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _rank(
    model: FecTekModel,
    vocab: Vocabulary,
    index: InvertedIndex,
    queries: list[tuple[str, str]],
    k: int,
) -> dict[str, list[tuple[str, float]]]:
    """Top-k (docid, score) hits for each query id."""
    weights = model.weigh([vocab.encode(text, model.config.max_query_len) for _, text in queries])
    results = {}
    for (qid, _), row in zip(queries, weights):
        results[qid] = [(hit.docid, hit.value) for hit in findex.search(index, row, k)]
    return results


def _build_vocab(corpus: str | Path, texts: list[str], min_freq: int) -> Vocabulary:
    """The vocabulary of `texts`, which must keep at least one token."""
    vocab = Vocabulary.build(texts, min_freq=min_freq)
    if len(vocab) == len(RESERVED_TOKENS):
        raise DataFormatError(f"{corpus}: no token occurs at least {min_freq} times")
    return vocab


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
    vocab = _build_vocab(args.corpus, texts, args.min_freq)
    vocab.save(args.out)
    coverage = vocabulary_coverage(vocab, texts)
    print(f"vocabulary: {len(vocab)} ids ({coverage:.1%} corpus coverage) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config(EncoderConfig, args)
    trainer_config = _config(TrainerConfig, args)
    vocab = Vocabulary.load(args.vocab)
    triples = load_triples(args.triples)
    if args.init_checkpoint:
        model = load_model(args.init_checkpoint)
        _check_vocab_match(model, vocab, str(args.init_checkpoint))
        for f in fields(EncoderConfig):  # a loaded model keeps its stored shape
            flag, stored = getattr(args, f.name), getattr(model.config, f.name)
            if flag not in (None, stored):
                raise ValueError(
                    f"--{f.name.replace('_', '-')} {flag} conflicts with "
                    f"{args.init_checkpoint}, which stores {f.name} {stored}"
                )
    else:
        model = new_model(len(vocab), config, seed=trainer_config.seed)
    if args.use_feature_gate is not None:  # --no-fcm; otherwise a loaded model keeps its gate
        model.use_feature_gate = args.use_feature_gate
    inputs = {
        "triples": str(args.triples),
        "vocab": str(args.vocab),
        "init_checkpoint": args.init_checkpoint or None,
    }
    final = train(model, triples, vocab, trainer_config, args.out_dir, inputs)
    print(f"checkpoint: {final}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    model = load_model(args.checkpoint)
    vocab = Vocabulary.load(args.vocab)
    _check_vocab_match(model, vocab, str(args.checkpoint))
    rows = _read_tsv_pairs(args.corpus, "corpus")
    weights = model.weigh([vocab.encode(text, model.config.max_passage_len) for _, text in rows])
    # json.dumps writes the int term ids as decimal strings, in their ascending order.
    lines = (json.dumps({"docid": d, "weights": w}) + "\n" for (d, _), w in zip(rows, weights))
    write_file(args.out, lines)
    print(f"encoded {len(rows)} passages -> {args.out}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    vocab = Vocabulary.load(args.vocab)
    weights = 0

    def rows():  # counts the stream's weights a row at a time
        nonlocal weights
        for row in _iter_weight_stream(args.weights):
            weights += len(row[2])
            yield row

    index = InvertedIndex.build(rows(), len(vocab))
    kept = len(index.impacts)
    if not kept:  # an index with no posting answers no query
        raise DataFormatError(f"{args.weights}: no weight rounds to a nonzero impact")
    index.save(args.out)
    saturated = int((index.impacts == findex.LEVELS - 1).sum())
    per_posting = os.path.getsize(args.out) / kept
    print(
        f"index: {index.doc_count} docs, {kept} postings kept, "
        f"{weights - kept} weights dropped at impact 0, "
        f"{saturated} impacts saturated at {findex.LEVELS - 1}, "
        f"{per_posting:.3f} B/posting, scale {index.scale:.6g} -> {args.out}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.k <= 0:
        raise ValueError(f"--k must be positive, got {args.k}")
    if args.tag.split() != [args.tag]:  # the run file's last whitespace-split field
        raise ValueError(f"--tag must be one word without whitespace, got {args.tag!r}")
    try:  # the run file is written in UTF-8
        args.tag.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"--tag must be UTF-8 text, got {args.tag!r}") from exc
    _check_out_dir(args.out)
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
    report = run_gradient_check(args.max_coords)
    for group in report.groups:
        print(
            f"{group.name:40s} max_rel_err={group.max_error:.3e} "
            f"({group.checked} coords)"
        )
    if report.passed:
        print(f"gradcheck passed: worst {report.worst:.3e} <= {TOLERANCE:g}")
        return 0
    offender = max(report.groups, key=lambda g: g.max_error)
    print(
        f"gradcheck FAILED: {offender.name} max_rel_err={offender.max_error:.3e} "
        f"> {TOLERANCE:g}",
        file=sys.stderr,
    )
    return 1


def cmd_synth(args: argparse.Namespace) -> int:
    paths = write_dataset(args.out_dir, _config(SynthConfig, args))
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
    """Train the four flag combinations on one dataset and tabulate MRR@10:
    read every input, train the rows (the first makes `--out-dir`), then write."""
    config = _config(EncoderConfig, args)
    trainer_config = _config(TrainerConfig, args)
    data = Path(args.data_dir)
    corpus_rows = _read_tsv_pairs(data / "corpus.tsv", "corpus")
    vocab = _build_vocab(data / "corpus.tsv", [text for _, text in corpus_rows], 1)
    triples = load_triples(data / "triples.jsonl")
    queries = _read_tsv_pairs(data / "queries.tsv", "queries")
    qrels = load_qrels(data / "qrels.tsv")
    passage_ids = [vocab.encode(text, config.max_passage_len) for _, text in corpus_rows]

    out_root = Path(args.out_dir)
    rows = []
    table = [f"{'config':16s} {'FCM':>4s} {'TKGM':>5s} {'MRR@10':>8s}"]
    for name, use_gate, use_guidance in _ABLATION_GRID:
        run_dir = out_root / name.replace("+", "with-")
        model = new_model(
            len(vocab), config, use_feature_gate=use_gate, seed=trainer_config.seed
        )
        run_config = replace(trainer_config, enable_term_loss=use_guidance)
        train(model, triples, vocab, run_config, run_dir, {"ablation": name})
        weights = model.weigh(passage_ids)
        stream = ((docid, w, w.values()) for (docid, _), w in zip(corpus_rows, weights))
        index = InvertedIndex.build(stream, len(vocab))
        mrr = mrr_at_k(_rank(model, vocab, index, queries, 10), qrels, k=10)
        rows.append({"config": name, "fcm": use_gate, "tkgm": use_guidance, "mrr@10": mrr})
        table.append(
            f"{name:16s} {'yes' if use_gate else 'no':>4s} "
            f"{'yes' if use_guidance else 'no':>5s} {mrr:>8.4f}"
        )

    vocab.save(out_root / "vocab.txt")
    write_file(out_root / "ablation.json", [json.dumps(rows, indent=2) + "\n"])
    write_file(out_root / "ablation.txt", [line + "\n" for line in table])
    print(table[0], "-" * len(table[0]), *table[1:], sep="\n")
    print(f"table: {out_root / 'ablation.txt'}")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_encoder_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(EncoderConfig):
        parser.add_argument(
            f"--{f.name.replace('_', '-')}", type=int, help=f"default {f.default}"
        )


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    """Every flag's dest is a TrainerConfig field; the defaults live there."""
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-queries", type=int)
    parser.add_argument(
        "--negatives", type=int, dest="max_negatives", help="negatives used per query"
    )
    parser.add_argument("--lr", type=float, dest="peak_lr", help="peak learning rate")
    parser.add_argument("--warmup-ratio", type=float)
    parser.add_argument("--weight-decay", type=float)
    parser.add_argument("--clip-norm", type=float, help="0 turns clipping off")
    parser.add_argument("--seed", type=int, help="non-negative")


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
    p.add_argument("--init-checkpoint")
    _add_encoder_flags(p)
    _add_training_flags(p)
    p.add_argument(
        "--no-fcm",
        action="store_false",
        dest="use_feature_gate",
        default=None,
        help="bypass the feature-context gate (weight head reads raw states)",
    )
    p.add_argument(
        "--no-tkgm",
        action="store_false",
        dest="enable_term_loss",
        default=None,
        help="drop the term-level guidance loss",
    )
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
    p.add_argument("--max-coords", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic retrieval dataset")
    p.add_argument("--out-dir", required=True)
    for f in fields(SynthConfig):
        p.add_argument(f"--{f.name}", type=int, help=f"default {f.default}")
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
    except FloatingPointError as exc:  # a forward pass float32 cannot carry
        # `train` lets one out only before its first update: the loaded model is at fault.
        source = getattr(args, "checkpoint", None) or getattr(args, "init_checkpoint", None)
        print(f"error: {source or 'model'}: {exc}; values beyond float32", file=sys.stderr)
        return 4 if source else 1
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
