"""Spans around the program's layers, recorded from outside the program.

`instrument` replaces the public functions of each fectek module with thin
wrappers for the duration of a traced run and restores them afterwards; the
program's files are never touched.  Spans live in memory as
`[id, name, parent, op, thread, start, end]` records and are written out once
the run ends.

Self time comes from one sweep over all span boundaries: between two
boundaries the elapsed time is split evenly among the open spans that have
no open child (on any thread).  For single-threaded code this is the usual
"duration minus children"; under the encode thread pool it splits the
interleaved time between the workers, so the self times of all layers add up
to exactly the wall time covered by spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = (
    "cli.train",
    "trainer.train",
    "trainer.train_step",
    "model.batch_loss",
    "model.term_weights",
    "encoder.forward",
    "autograd.backward",
    "trainer.optimizer",
    "checkpoint.save_model",
    "checkpoint.load_model",
    "tokenizer.encode",
    "cli.encode",
    "cli.index",
    "cli.index.parse",
    "index.build",
    "index.save",
    "index.load",
    "index.search",
    "query",
    "trace.counters",
)


class Tracer:
    """In-memory span recorder; `op` tags new spans with a step or query id."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        # A worker thread's outermost span belongs to whatever the main
        # thread is waiting in (the encode command's thread pool).
        owner = stack or self._main_stack
        parent = owner[-1][0] if owner else None
        record = [next(self._ids), name, parent, self.op, threading.get_ident(), time.perf_counter(), None]
        stack.append(record)
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[6] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield
        finally:
            self.end(record)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, enter=None, after=None):
        """`fn` inside a span; `enter(args)` runs first, `after(args, result)`
        runs in a `trace.counters` span so its cost stays visible."""

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            if after is not None:
                with self.span("trace.counters"):
                    after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every `next()` is a span."""

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                record = self.begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.end(record)
                yield item

        return traced

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """(inclusive seconds, self seconds, calls) per span name."""
        events = []
        for record in self.spans:
            events.append((record[5], 1, record[0], record))
            events.append((record[6], 0, -record[0], record))
        # At equal times: ends before starts, children end before parents
        # and parents start before children.
        events.sort(key=lambda e: e[:3])
        open_children: dict[int, int] = {}
        names: dict[int, str] = {}
        leaves: set[int] = set()
        self_s: defaultdict[str, float] = defaultdict(float)
        last = None
        for now, is_start, _, record in events:
            if leaves and now > last:
                share = (now - last) / len(leaves)
                for sid in leaves:
                    self_s[names[sid]] += share
            last = now
            sid, parent = record[0], record[2]
            if is_start:
                names[sid] = record[1]
                open_children[sid] = 0
                leaves.add(sid)
                if parent in open_children:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                leaves.discard(sid)
                del open_children[sid]
                if parent in open_children:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        inclusive: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for record in self.spans:
            inclusive[record[1]] += record[6] - record[5]
            calls[record[1]] += 1
        return {name: (inclusive[name], self_s[name], calls[name]) for name in inclusive}

    def write(self, path, header: dict) -> None:
        origin = min((r[5] for r in self.spans), default=0.0)
        keys = ("id", "name", "parent", "op", "thread", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in self.spans:
                row = dict(zip(keys, record))
                row["start"] -= origin
                row["end"] -= origin
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced layer of fectek for the duration of the block."""
    from fectek import autograd, cli, encoder, index, model, tokenizer, trainer

    steps = itertools.count(1)

    def new_step(args):
        tracer.op = f"step{next(steps)}"

    def count_tokens(args):
        tracer.count("encoder.forward.tokens", len(args[1]))

    def count_tape(args, result):
        tracer.count("autograd.tape_nodes", len(autograd.build_tape(result[0])))

    def count_match_score(fn):
        def counted(*args, **kwargs):
            tracer.count("model.match_score.calls")
            return fn(*args, **kwargs)

        return counted

    def span(name, enter=None, after=None):
        return lambda fn: tracer.wrap(name, fn, enter, after)

    plan = [
        (cli, "train", span("trainer.train")),
        (trainer, "train_step", span("trainer.train_step", enter=new_step)),
        (trainer, "batch_loss", span("model.batch_loss", after=count_tape)),
        (autograd.Tensor, "backward", span("autograd.backward")),
        (trainer, "clip_global_norm", span("trainer.optimizer")),
        (trainer.AdamW, "step", span("trainer.optimizer")),
        (trainer, "save_model", span("checkpoint.save_model")),
        (cli, "load_model", span("checkpoint.load_model")),
        (encoder.ContextEncoder, "forward", span("encoder.forward", enter=count_tokens)),
        (model.FecTekModel, "term_weights", span("model.term_weights")),
        (model, "match_score", count_match_score),
        (tokenizer.Vocabulary, "encode", span("tokenizer.encode")),
        (cli, "_iter_weight_stream", lambda fn: tracer.wrap_generator("cli.index.parse", fn)),
        (index.InvertedIndex, "build", span("index.build")),
        (index.InvertedIndex, "save", span("index.save")),
        (index.InvertedIndex, "load", span("index.load")),
        (index, "search", span("index.search")),
    ]
    originals = []
    try:
        for owner, attr, make in plan:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            originals.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
