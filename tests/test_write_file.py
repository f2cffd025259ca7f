"""Every file the package writes goes through `errors.write_file`: whole or
not at all, and an OSError names the path the user gave."""

import os

import numpy as np
import pytest

from fectek import checkpoint, cli, evaluation, index, synth, tokenizer
from fectek.checkpoint import save_tensors
from fectek.encoder import EncoderConfig
from fectek.errors import write_file
from fectek.evaluation import write_run
from fectek.index import InvertedIndex
from fectek.model import new_model, save_model
from fectek.synth import SynthConfig, write_dataset
from fectek.tokenizer import Vocabulary

TINY = EncoderConfig(
    dim=16, layers=1, heads=2, ffn_multiplier=2, max_query_len=12, max_passage_len=24
)
TINY_FLAGS = ["--dim", "16", "--layers", "1", "--heads", "2", "--ffn-multiplier", "2"]
SMALL_SYNTH = SynthConfig(passages=24, terms=45, queries=8, negatives=3)


class Interrupted(Exception):
    """Raised by a chunk source halfway through a write."""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    write_dataset(data, SMALL_SYNTH)
    corpus = (data / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    vocab = Vocabulary.build(line.split("\t", 1)[1] for line in corpus)
    vocab_path = root / "vocab.txt"
    vocab.save(vocab_path)
    model = new_model(len(vocab), TINY, seed=3)
    ckpt = root / "model.ftck"
    save_model(model, ckpt)
    rows = [("d1", [5, 7], [0.5, 1.0]), ("d2", [7, 9], [2.0, 0.25])]
    return {
        "data": data,
        "vocab": vocab,
        "vocab_path": vocab_path,
        "model": model,
        "checkpoint": ckpt,
        "index": InvertedIndex.build(rows, len(vocab)),
        "run": {"q1": [("d1", 2.5), ("d2", 1.0)], "q2": [("d2", 0.5)]},
    }


def _encode(inputs, out):
    argv = [
        "encode",
        "--checkpoint", str(inputs["checkpoint"]),
        "--vocab", str(inputs["vocab_path"]),
        "--corpus", str(inputs["data"] / "corpus.tsv"),
        "--out", str(out),
    ]
    args = cli.build_parser().parse_args(argv)
    args.func(args)


def _ablation(inputs, out):
    argv = ["ablation", "--data-dir", str(inputs["data"]), "--out-dir", str(out.parent)]
    args = cli.build_parser().parse_args([*argv, *TINY_FLAGS, "--epochs", "1"])
    args.func(args)


# name -> (module whose `write_file` the writer calls, file name, write(inputs, out)).
WRITERS = {
    "checkpoint": (checkpoint, "model.ftck", lambda inp, out: save_model(inp["model"], out)),
    "index": (index, "passages.idx", lambda inp, out: inp["index"].save(out)),
    "encode": (cli, "weights.jsonl", _encode),
    "run": (evaluation, "run.trec", lambda inp, out: write_run(inp["run"], "t", out)),
    "vocab": (tokenizer, "vocab.txt", lambda inp, out: inp["vocab"].save(out)),
    "ablation.json": (cli, "ablation.json", _ablation),
    "ablation.txt": (cli, "ablation.txt", _ablation),
    **{
        f"synth.{name}": (synth, name, lambda inp, out: write_dataset(out.parent, SMALL_SYNTH))
        for name in ("corpus.tsv", "queries.tsv", "qrels.tsv", "triples.jsonl")
    },
}
# Writers whose directory the user names; synth and ablation make theirs.
USER_PATH_WRITERS = ["checkpoint", "index", "encode", "run", "vocab"]


def _interrupt_writes_to(monkeypatch, module, name):
    """Make `module`'s writes to a file called `name` fail after one chunk."""

    def write(path, chunks):
        if os.path.basename(path) != name:
            return write_file(path, chunks)

        def midway():
            yield next(iter(chunks))
            raise Interrupted

        return write_file(path, midway())

    monkeypatch.setattr(module, "write_file", write)


def _temporary_files(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_interrupted_midway_leaves_the_target_as_it_was(
    inputs, tmp_path, monkeypatch, writer, existing
):
    module, name, write = WRITERS[writer]
    out = tmp_path / name
    if existing:
        out.write_bytes(b"old bytes\n")
    _interrupt_writes_to(monkeypatch, module, name)
    with pytest.raises(Interrupted):
        write(inputs, out)
    if existing:
        assert out.read_bytes() == b"old bytes\n"
    else:
        assert not out.exists()
    assert _temporary_files(tmp_path) == []


@pytest.mark.parametrize("writer", USER_PATH_WRITERS)
def test_missing_directory_error_names_the_given_path(inputs, tmp_path, writer):
    _, name, write = WRITERS[writer]
    out = tmp_path / "missing" / name
    with pytest.raises(FileNotFoundError) as caught:
        write(inputs, out)
    assert str(caught.value) == f"[Errno 2] No such file or directory: '{out}'"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_replaces_an_existing_file_whole(inputs, tmp_path, writer):
    _, name, write = WRITERS[writer]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    write(inputs, fresh / name)
    out = tmp_path / name
    out.write_bytes(b"x" * 100_000)  # longer than some outputs: nothing of it may remain
    write(inputs, out)
    assert out.read_bytes() == (fresh / name).read_bytes()
    assert _temporary_files(tmp_path) == []


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
def test_too_long_checkpoint_entry_name_leaves_no_file(tmp_path, existing):
    out = tmp_path / "model.ftck"
    if existing:
        out.write_bytes(b"old bytes")
    entries = {"first": np.ones((4, 4)), "x" * 0x10000: np.zeros(2)}
    with pytest.raises(ValueError, match="entry name too long"):
        save_tensors(out, entries)
    if existing:
        assert out.read_bytes() == b"old bytes"
    else:
        assert not out.exists()
    assert _temporary_files(tmp_path) == []


@pytest.mark.parametrize(
    "layout", ["missing directory", "directory is a file", "target is a directory"]
)
def test_write_file_errors_read_as_open_would(tmp_path, layout):
    if layout == "missing directory":
        path = tmp_path / "missing" / "out.txt"
    elif layout == "directory is a file":
        (tmp_path / "file").write_text("x")
        path = tmp_path / "file" / "out.txt"
    else:
        path = tmp_path / "out.txt"
        path.mkdir()
    with pytest.raises(OSError) as expected:
        open(path, "w")
    for given in (path, str(path)):
        with pytest.raises(OSError) as caught:
            write_file(given, ["text"])
        assert type(caught.value) is type(expected.value)
        assert str(caught.value) == str(expected.value)
        assert caught.value.filename == str(path)
    assert _temporary_files(tmp_path) == []


def test_write_file_joins_text_bytes_and_buffers(tmp_path):
    out = tmp_path / "mixed"
    write_file(out, ["é\n", b"\x00\xff", memoryview(np.arange(2, dtype="<u2"))])
    assert out.read_bytes() == "é\n".encode() + b"\x00\xff" + b"\x00\x00\x01\x00"


def test_interrupt_outside_exception_cleans_up(tmp_path):
    """A KeyboardInterrupt (Ctrl-C) is not an Exception but still leaves
    the old file and no temporary one."""
    out = tmp_path / "out.txt"
    out.write_text("old")

    def chunks():
        yield "new"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_file(out, chunks())
    assert out.read_text() == "old"
    assert _temporary_files(tmp_path) == []
