"""The three workloads: set-up, the timed phase, and the checks.

Each whole stage runs as an in-process `fectek.cli.main([...])` call at
default flags, the way a user runs it; a query runs the same library calls
`fectek search` makes for one query.  Timed regions hold only program calls.
The checks run between them or after the phase and call only the
benchmark's own code, except the final re-save of the loaded index, which
runs after tracing has stopped.

Each CPU of the host this runs on switches between a fast state and one
about 1.45x slower, in stretches of a second to about a minute.  So the
timed phase is not a few long stages one after another: it interleaves short
operations of every kind (train on a slice of the triples, encode a shard of
the corpus, index, load, a pass over the queries, set up again) over the
whole `--seconds` window, each kind taking a fixed share of it and
alternating between the CPUs.  Each timing is taken from its best sample
(the fastest call, or each query's fastest pass), except training, which is
the median train op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fectek import autograd, cli
from fectek import index as findex
from fectek.model import load_model
from fectek.tokenizer import Vocabulary

import data
from oracle import Oracle, Stream, hits_match, read_weights_jsonl, reciprocal_rank
from tracing import LAYERS, Tracer, instrument

K = 10
TRAIN_EPOCHS = 1
NO_SPAN = contextlib.nullcontext()


@dataclass(frozen=True)
class Sizes:
    passages: int = 1000  # `fectek synth` defaults
    terms: int = 300
    queries: int = 100
    serve_queries: int = 1000
    train_slice: int = 24  # triples per train op: 6 steps at the default batch of 4
    encode_shard: int = 250  # passages per encode op
    scale_docs: int = 5000
    scale_vocab: int = 30000
    scale_min_terms: int = 30
    scale_max_terms: int = 80
    scale_query_terms: int = 8
    scale_queries: int = 100  # p90 then has 10 queries beyond it


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(
        passages=60, terms=90, queries=20, serve_queries=60, train_slice=8, encode_shard=20,
        scale_docs=400, scale_vocab=2000,
        scale_min_terms=5, scale_max_terms=20, scale_queries=20,
    ),
}

# Share of the timed window each kind of operation gets, per workload.
# "setup" repeats the workload's set-up, for `setup_s` only.
MIX = {
    "train-desk": {"train": 0.4, "encode": 0.15, "index": 0.05, "load": 0.05, "query": 0.23, "setup": 0.12},
    "index-scale": {"train": 0.12, "encode": 0.1, "index": 0.4, "load": 0.1, "query": 0.12, "setup": 0.16},
}


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Desk:
    """A `fectek synth` dataset, its vocabulary, a model trained on it and
    the corpus encoded by that model; plus the slices the ops work on."""

    root: Path
    qrels: dict[str, str]
    queries: list[tuple[str, str]]
    docids: list[str]
    vocab_size: int
    slices: list[Path]  # triples files of `train_slice` lines
    shards: list[tuple[Path, int, int]]  # corpus files of `encode_shard` rows: (path, first, end)

    @property
    def corpus(self) -> Path:
        return self.root / "corpus.tsv"

    @property
    def vocab(self) -> Path:
        return self.root / "vocab.txt"

    @property
    def triples(self) -> Path:
        return self.root / "triples.jsonl"

    @property
    def model(self) -> Path:
        return self.root / "train" / "model.ftck"

    @property
    def weights(self) -> Path:
        return self.root / "weights.jsonl"


@dataclass
class State:
    """What set-up made, and what the timed phases share: the index under
    test, the oracles and the first checked result of each query."""

    desk: Desk
    queries: list  # (qid, text) or (qid, {term: weight})
    ask: Callable  # (query, index) -> (weights, hits)
    workload: str = ""
    scale: Stream | None = None  # the index-scale weight stream; None: the desk index
    scale_weights: Path | None = None
    scale_vocab: Path | None = None
    desk_oracle: Oracle | None = None
    scale_oracle: Oracle | None = None
    index_path: Path | None = None
    loaded: object = None
    shard_lines: list[bytes] = field(default_factory=list)  # expected encode op outputs
    expected: dict[str, list] = field(default_factory=dict)  # qid -> checked hits
    work: dict[str, tuple[int, int]] = field(default_factory=dict)  # qid -> (touched, scored)

    @property
    def oracle(self) -> Oracle | None:
        return self.scale_oracle if self.scale is not None else self.desk_oracle

    @property
    def docids(self) -> list[str]:
        return self.scale.docids if self.scale is not None else self.desk.docids


@dataclass
class Samples:
    """What one timed phase measured."""

    train: list[float] = field(default_factory=list)  # triples/s per train call
    encode: list[float] = field(default_factory=list)  # passages/s per encode call
    index_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    query_s: dict[str, float] = field(default_factory=dict)  # best pass per query
    setup_s: list[float] = field(default_factory=list)
    wall: float = 0.0  # sum of the timed regions
    work: list[int] = field(default_factory=lambda: [0, 0, 0, 0])  # queries, touched, scored, hits

    def timed(self, seconds: float) -> float:
        self.wall += seconds
        return seconds


class Run:
    """One benchmark process: its directory, sizes, op counts and tracer."""

    def __init__(self, workdir: Path, seed: int, seconds: float, sizes: Sizes, cpus=None):
        self.dir = workdir
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None
        self.reference: dict[str, str] = {}  # artifact name -> first digest
        self.cpus = list(cpus) if cpus else sorted(os.sched_getaffinity(0))

    def pin(self, turn: int) -> None:
        """Run on one CPU, the next of the allowed ones at each turn.

        The encode pool's threads contend for the GIL: spread over two CPUs
        they run 1.8x slower than on one, and which the scheduler picks flips
        between runs.  So the process keeps to one CPU (threads started now
        inherit it).  Each CPU of this host has slow stretches of its own, so
        the samples of every operation alternate between the CPUs.
        """
        os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"check failed ({failed}/{attempted} ops): {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)

    def same_as_first(self, path: Path) -> bool:
        """Whether `path` is byte-identical to the first file of its name
        (the name and the directory it is in)."""
        key = "/".join(path.parts[-2:])
        return self.reference.setdefault(key, _digest(path)) == _digest(path)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else NO_SPAN

    def timed(self):
        return instrument(self.tracer) if self.tracer else NO_SPAN

    def set_op(self, op: str) -> None:
        if self.tracer:
            self.tracer.op = op

    def cli(self, *argv) -> tuple[int, float]:
        """Run one fectek command; returns (exit code, seconds)."""
        argv = [str(a) for a in argv]
        self.set_op(argv[0])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            with self.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            print(f"fectek {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return code, seconds

    def setup_cli(self, *argv) -> None:
        code, _ = self.cli(*argv)
        if code != 0:
            raise RuntimeError(f"set-up command fectek {argv[0]} exited {code}")


# -- set-up ---------------------------------------------------------------------


def _split(path: Path, size: int, out: Path) -> list[tuple[Path, int, int]]:
    """Whole slices of `size` lines of `path`, as files named after `out`."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    parts = []
    for i, first in enumerate(range(0, len(lines) - size + 1, size)):
        part = out.with_name(f"{out.stem}{i}{out.suffix}")
        part.write_text("".join(lines[first : first + size]), encoding="utf-8")
        parts.append((part, first, first + size))
    return parts


def make_desk(run: Run, root: Path) -> Desk:
    """`fectek synth` at defaults, its vocabulary, one epoch of `fectek
    train` (MRR@10 = 1.0 on every seed tried) and `fectek encode` with it."""
    s = run.sizes
    run.setup_cli(
        "synth", "--out-dir", root, "--seed", run.seed, "--passages", s.passages,
        "--terms", s.terms, "--queries", s.queries,
    )
    run.setup_cli("build-vocab", "--corpus", root / "corpus.tsv", "--out", root / "vocab.txt")
    qrels = {}
    for line in (root / "qrels.tsv").read_text(encoding="utf-8").splitlines():
        qid, _, docid, _ = line.split()
        qrels[qid] = docid
    desk = Desk(
        root,
        qrels,
        data.read_tsv(root / "queries.tsv"),
        [docid for docid, _ in data.read_tsv(root / "corpus.tsv")],
        len(Vocabulary.load(root / "vocab.txt")),
        [part for part, _, _ in _split(root / "triples.jsonl", s.train_slice, root / "slice.jsonl")],
        _split(root / "corpus.tsv", s.encode_shard, root / "shard.tsv"),
    )
    run.setup_cli(*train_args(desk.triples, desk, root / "train"))
    run.setup_cli(
        "encode", "--checkpoint", desk.model, "--vocab", desk.vocab, "--corpus", desk.corpus,
        "--out", desk.weights,
    )
    return desk


def train_args(triples: Path, desk: Desk, out: Path) -> list:
    return [
        "train", "--triples", triples, "--vocab", desk.vocab, "--out-dir", out, "--epochs", TRAIN_EPOCHS,
    ]


def text_search(checkpoint: Path, desk: Desk):
    """`ask` for query texts: the library calls `fectek search` makes."""
    model, vocab = load_model(checkpoint), Vocabulary.load(desk.vocab)
    max_len = model.config.max_query_len

    def ask(text, index):
        seq = model.encode_ids(vocab.encode(text, max_len))
        weights = model.term_weights(seq).as_dict()
        return weights, findex.search(index, weights, K)

    return ask


def weights_search(weights, index):
    """`ask` for pre-weighted queries."""
    return weights, findex.search(index, weights, K)


def setup_train_desk(run: Run, root: Path) -> State:
    """The desk set and 1000 distinct query texts, the 100 qrels queries
    among them."""
    desk = make_desk(run, root)
    words = sorted({w for _, text in data.read_tsv(desk.corpus) for w in text.split()})
    rng = np.random.default_rng([run.seed, 1])
    queries = data.serve_queries(rng, desk.queries, words, run.sizes.serve_queries)
    return State(desk, queries, text_search(desk.model, desk))


def setup_index_scale(run: Run, root: Path) -> State:
    """A seeded weight stream far larger than L2, and its 8-term queries.

    The desk set is there too: every workload reports training, encoding
    and MRR, so the timed phase trains and encodes on it.
    """
    s = run.sizes
    desk = make_desk(run, root)
    rng = np.random.default_rng([run.seed, 2])
    stream = data.scale_stream(rng, s.scale_docs, s.scale_vocab, s.scale_min_terms, s.scale_max_terms)
    weights, vocab = root / "scale.jsonl", root / "scale-vocab.txt"
    data.write_weights_jsonl(weights, stream)
    Vocabulary([f"t{i}" for i in range(s.scale_vocab - data.RESERVED_IDS)]).save(vocab)
    queries = data.scale_queries(rng, s.scale_queries, s.scale_vocab, s.scale_query_terms)
    return State(
        desk, [(f"z{i}", q) for i, q in enumerate(queries)], weights_search,
        scale=stream, scale_weights=weights, scale_vocab=vocab,
    )


SETUPS = {"train-desk": setup_train_desk, "index-scale": setup_index_scale}


# -- operations of the timed phase ----------------------------------------------


def train_steps(metrics: Path) -> tuple[int, int]:
    """(steps logged, steps with a non-finite number) in a metrics.jsonl."""
    if not metrics.exists():
        return 0, 0
    rows = [json.loads(line) for line in metrics.read_text(encoding="utf-8").splitlines()[1:]]
    diverged = sum(
        not all(math.isfinite(v) for v in row.values() if isinstance(v, (int, float))) for row in rows
    )
    return len(rows), diverged


def op_train(run: Run, st: State, samples: Samples, turn: int) -> None:
    """`fectek train` of a fresh model on the next slice of the triples.

    Every step is an op and a diverged one fails; the checkpoint must be
    byte-identical to the first one trained on the same slice.
    """
    slice_no = turn % len(st.desk.slices)
    triples, out = st.desk.slices[slice_no], run.dir / f"train{slice_no}"
    code, seconds = run.cli(*train_args(triples, st.desk, out))
    samples.timed(seconds)
    steps, diverged = train_steps(out / "metrics.jsonl")
    failed = max(steps, 1) if code != 0 else diverged
    run.record(max(steps, 1), failed, f"fectek train into {out}")
    if code != 0:
        return
    checkpoint = out / "model.ftck"
    run.check(run.same_as_first(checkpoint), f"{checkpoint} deterministic")
    samples.train.append(run.sizes.train_slice * TRAIN_EPOCHS / seconds)


def op_encode(run: Run, st: State, samples: Samples, turn: int) -> None:
    """`fectek encode` of the next shard of the corpus with the set-up's
    model; the output must equal the shard's rows of the set-up's encoding."""
    desk = st.desk
    shard, first, end = desk.shards[turn % len(desk.shards)]
    out = run.dir / "encoded.jsonl"
    code, seconds = run.cli(
        "encode", "--checkpoint", desk.model, "--vocab", desk.vocab, "--corpus", shard, "--out", out,
    )
    samples.timed(seconds)
    if not st.shard_lines:
        st.shard_lines = desk.weights.read_bytes().splitlines(keepends=True)
    n = end - first
    ok = code == 0 and out.read_bytes() == b"".join(st.shard_lines[first:end])
    run.record(n, 0 if ok else n, f"fectek encode {shard} equals rows {first}-{end} of {desk.weights}")
    if ok:
        samples.encode.append(n / seconds)


def op_index(run: Run, st: State, samples: Samples, turn: int) -> None:
    if st.scale is not None:
        weights, vocab, out = st.scale_weights, st.scale_vocab, run.dir / "scale.ftek"
    else:
        weights, vocab, out = st.desk.weights, st.desk.vocab, run.dir / "index.ftek"
    code, seconds = run.cli("index", "--weights", weights, "--vocab", vocab, "--out", out)
    samples.timed(seconds)
    run.check(code == 0 and run.same_as_first(out), f"fectek index {out}")
    if code == 0:
        samples.index_s.append(seconds)
        st.index_path = out


def op_load(run: Run, st: State, samples: Samples, turn: int) -> None:
    """`InvertedIndex.load`; the loaded header must match the oracle's."""
    run.set_op("load")
    try:
        start = time.perf_counter()
        loaded = findex.InvertedIndex.load(st.index_path)
        seconds = samples.timed(time.perf_counter() - start)
    except Exception:
        traceback.print_exc()
        run.check(False, f"loading {st.index_path} raised")
        return
    oracle = st.oracle
    run.check(loaded.doc_count == oracle.doc_count and loaded.scale == oracle.step, f"{st.index_path} header")
    samples.load_s.append(seconds)
    st.loaded = loaded


def op_query(run: Run, st: State, samples: Samples, turn: int) -> None:
    """One closed-loop pass over the queries, one client.

    Each query's first top-10 is checked against brute force, and every
    later one must equal it; both outside the timing.
    """
    results = []
    with autograd.no_grad():
        for qid, query in st.queries:
            run.set_op(qid)
            try:
                start = time.perf_counter()
                with run.span("query"):
                    weights, hits = st.ask(query, st.loaded)
                seconds = samples.timed(time.perf_counter() - start)
            except Exception:
                traceback.print_exc()
                run.check(False, f"query {qid} raised")
                continue
            samples.query_s[qid] = min(seconds, samples.query_s.get(qid, math.inf))
            results.append((qid, weights, hits))
    oracle, docids = st.oracle, st.docids
    for qid, weights, hits in results:
        got = [(h.ordinal, h.score, h.docid) for h in hits]
        if qid in st.expected:
            run.check(got == st.expected[qid], f"query {qid} top-{K} as before")
        elif hits_match(hits, oracle.top_k(weights, K), docids):
            st.expected[qid] = got
            run.check(True, "")
        else:
            run.check(False, f"query {qid} top-{K}")
        if run.tracer:
            if qid not in st.work:
                st.work[qid] = oracle.work(weights)
            touched, scored = st.work[qid]
            for i, n in enumerate((1, touched, scored, len(hits))):
                samples.work[i] += n


def op_setup(run: Run, st: State, samples: Samples, turn: int) -> None:
    """One more set-up of the workload, timed and thrown away."""
    root = run.dir / "setup-again"
    start = time.perf_counter()
    SETUPS[st.workload](run, root)
    samples.setup_s.append(time.perf_counter() - start)
    shutil.rmtree(root)


OPS = {
    "train": op_train, "encode": op_encode, "index": op_index, "load": op_load, "query": op_query,
    "setup": op_setup,
}


def measure(run: Run, st: State, mix: dict[str, float], seconds: float) -> Samples:
    """Interleave the ops over `seconds`, each kind taking its share.

    The first round runs each op once, an index before its load and a
    load before the queries.  After it, the op furthest behind its share
    runs next, among those expected to end in time.
    """
    samples = Samples()
    order = [name for name in OPS if mix.get(name)]
    spent = dict.fromkeys(order, 0.0)
    runs = dict.fromkeys(order, 0)
    last: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    with run.timed():
        while True:
            if len(last) < len(order):
                name = order[len(last)]
            else:
                now = time.perf_counter()
                fits = [o for o in order if now + last[o] <= deadline]
                if not fits:
                    break
                name = min(fits, key=lambda o: spent[o] / mix[o])
            run.pin(runs[name])
            start = time.perf_counter()
            OPS[name](run, st, samples, runs[name])
            last[name] = time.perf_counter() - start
            spent[name] += last[name]
            runs[name] += 1
    print(
        "phase: " + ", ".join(f"{op} {runs[op]}x {spent[op]:.1f}s" for op in order)
        + "; worst/best: " + ", ".join(
            f"{op} {max(v) / min(v):.2f}" for op, v in (
                ("train", [1 / x for x in samples.train]), ("encode", [1 / x for x in samples.encode]),
                ("index", samples.index_s), ("load", samples.load_s),
            ) if v
        ),
        file=sys.stderr,
    )
    return samples


def check_loaded(run: Run, st: State) -> None:
    """The loaded index equals the one `fectek index` built: saving it
    again reproduces the file byte for byte."""
    if st.loaded is None:
        run.check(False, "no index was loaded")
        return
    resaved = st.index_path.with_suffix(".resaved")
    st.loaded.save(resaved)
    run.check(_digest(resaved) == _digest(st.index_path), f"{st.index_path} loads to the index that was built")
    resaved.unlink()


def mrr_at_10(run: Run, st: State) -> float:
    """MRR@10 of the set-up's model on the desk qrels, via encode -> index
    -> search, outside any timing.  Every top-10 is checked as in the phase."""
    desk, out = st.desk, run.dir / "mrr.ftek"
    code, _ = run.cli("index", "--weights", desk.weights, "--vocab", desk.vocab, "--out", out)
    run.check(code == 0, f"fectek index {out}")
    index = findex.InvertedIndex.load(out)
    ask = text_search(desk.model, desk)
    total = 0.0
    with autograd.no_grad():
        for qid, text in desk.queries:
            weights, hits = ask(text, index)
            run.check(hits_match(hits, st.desk_oracle.top_k(weights, K), desk.docids), f"query {qid} top-{K}")
            total += reciprocal_rank(hits, desk.qrels[qid], K)
    return total / len(desk.queries)


# -- metrics --------------------------------------------------------------------


def timed_metrics(samples: Samples, st: State) -> dict[str, float]:
    """The end-to-end metrics of one timed phase.

    Each timing is its best sample, except training: the median train op
    varies less between runs than the fastest one.
    """
    postings = st.oracle.postings
    query_ms = np.fromiter(samples.query_s.values(), dtype=float) * 1e3
    return {
        "train_examples_per_s": statistics.median(samples.train),
        "encode_passages_per_s": max(samples.encode),
        "query_ms_p50": float(np.percentile(query_ms, 50)),
        "query_ms_p90": float(np.percentile(query_ms, 90)),
        "index_write_postings_per_s": postings / min(samples.index_s),
        "index_load_postings_per_s": postings / min(samples.load_s),
        "index_bytes_per_posting": st.index_path.stat().st_size / postings,
    }


def layer_metrics(tracer: Tracer, st: State, traced: Samples, untraced: Samples) -> dict[str, float]:
    """Per-layer numbers from the traced phase, and what tracing cost."""
    times = tracer.layer_times()
    out: dict[str, float] = {}
    for name in LAYERS:
        inclusive, self_s, calls = times.get(name, (0.0, 0.0, 0))
        out[f"{name}.s"] = inclusive
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    counts = tracer.counts
    out["model.match_score.calls"] = counts["model.match_score.calls"]
    out["encoder.forward.tokens"] = counts["encoder.forward.tokens"]
    steps = out["model.batch_loss.calls"]
    out["autograd.tape_nodes_per_step"] = counts["autograd.tape_nodes"] / steps if steps else 0.0
    queries, touched, scored, hits = traced.work
    out["index.postings_touched_per_query"] = touched / max(queries, 1)
    out["index.candidates_per_query"] = scored / max(queries, 1)
    out["index.useful_ratio"] = hits / scored if scored else 0.0
    oracle = st.oracle
    out["index.saturated_ratio"] = oracle.saturated / max(oracle.nonzero_weights, 1)
    out["index.dropped_ratio"] = oracle.dropped / max(oracle.nonzero_weights, 1)
    out["trace.wall_s"] = traced.wall
    out["trace.unaccounted_s"] = traced.wall - sum(self_s for _, self_s, _ in times.values())
    traced_e2e, untraced_e2e = timed_metrics(traced, st), timed_metrics(untraced, st)
    for name in ("train_examples_per_s", "encode_passages_per_s", "query_ms_p50", "query_ms_p90",
                 "index_write_postings_per_s", "index_load_postings_per_s"):
        out[f"overhead.{name}"] = traced_e2e[name] - untraced_e2e[name]
    return out


def run_workload(name: str, run: Run, trace_path: Path | None) -> dict[str, float]:
    """Set up, measure, check; returns the metrics to print.

    The set-up is repeated inside the window, so `setup_s` is the median
    of several set-ups spread over the run.  With tracing, the window is
    split: the first half runs untraced, the second traced, and the
    overhead is their difference; neither half repeats the set-up.
    """
    start = time.perf_counter()
    st = SETUPS[name](run, run.dir / "setup")
    setup_s = time.perf_counter() - start
    st.workload = name
    desk, n = st.desk, len(st.desk.docids)
    stream, invalid = read_weights_jsonl(desk.weights, desk.vocab_size)
    run.record(n, invalid, f"{desk.weights}: weights finite, non-negative, in vocabulary")
    run.check(stream.docids == desk.docids, f"{desk.weights} keeps corpus order")
    st.desk_oracle = Oracle(stream)
    if st.scale is not None:
        st.scale_oracle = Oracle(st.scale)
    mix = MIX[name]
    if trace_path is not None:
        mix = {op: share for op, share in mix.items() if op != "setup"}
    seconds = run.seconds / 2 if trace_path is not None else run.seconds
    untraced = measure(run, st, mix, seconds)
    if trace_path is not None:
        tracer = run.tracer = Tracer()
        traced = measure(run, st, mix, seconds)
        run.tracer = None
        tracer.write(trace_path, {"workload": name, "seed": run.seed})
        check_loaded(run, st)
        metrics = layer_metrics(tracer, st, traced, untraced)
        metrics["failed_ratio"] = run.failed / max(run.attempted, 1)
        return metrics
    check_loaded(run, st)
    metrics = timed_metrics(untraced, st)
    metrics["mrr_at_10"] = mrr_at_10(run, st)
    metrics["setup_s"] = statistics.median([setup_s, *untraced.setup_s])
    return metrics
