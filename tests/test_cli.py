"""Command-line surface: the full pipeline, determinism, and exit codes."""

import argparse
import inspect
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import per_text_reference as ref
from fectek.autograd import Tensor
from fectek.checkpoint import ALIGN, MAGIC, VERSION, load_tensors, save_tensors
from fectek.cli import _ABLATION_GRID, build_parser, main
from fectek.encoder import EncoderConfig
from fectek.evaluation import load_run
from fectek.index import InvertedIndex
from fectek.model import FecTekModel, load_model
from fectek.synth import SynthConfig
from fectek.tokenizer import Vocabulary
from fectek.trainer import TrainerConfig

TINY_ENCODER = [
    "--dim", "16",
    "--layers", "1",
    "--heads", "2",
    "--ffn-multiplier", "2",
    "--max-query-len", "12",
    "--max-passage-len", "24",
]

CORPUS_ROWS = [
    ("d1", "red apples grow in the orchard"),
    ("d2", "green pears hang from the tree"),
    ("d3", "the river flows under the old bridge"),
    ("d4", "a steam train crosses the iron bridge"),
    ("d5", "bright stars fill the night sky"),
    ("d6", "the moon rises over the quiet lake"),
    ("d7", "fresh bread bakes in the stone oven"),
    ("d8", "the baker sells warm loaves at dawn"),
    ("d9", "wild horses run across the open plain"),
    ("d10", "a lone wolf howls on the ridge"),
]

QUERY_ROWS = [
    ("q1", "red apples"),
    ("q2", "iron bridge train"),
    ("q3", "bread stone oven"),
]

QRELS_ROWS = [("q1", "d1"), ("q2", "d4"), ("q3", "d7")]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_float32_values(checkpoint):
    """Training runs in float32, and the checkpoint stores every parameter
    as float32; only the config scalars are float64."""
    for name, array in load_tensors(checkpoint).items():
        want = np.float64 if name.startswith("config.") else np.float32
        assert array.dtype == want, (checkpoint, name)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full pipeline run: vocab -> train -> encode -> index -> search."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.tsv"
    corpus.write_text("".join(f"{d}\t{t}\n" for d, t in CORPUS_ROWS))
    queries = root / "queries.tsv"
    queries.write_text("".join(f"{q}\t{t}\n" for q, t in QUERY_ROWS))
    qrels = root / "qrels.tsv"
    qrels.write_text("".join(f"{q}\t0\t{d}\t1\n" for q, d in QRELS_ROWS))
    corpus_map = dict(CORPUS_ROWS)
    triples = root / "triples.jsonl"
    with open(triples, "w") as fh:
        for (qid, qtext), (_, docid) in zip(QUERY_ROWS, QRELS_ROWS):
            negatives = [t for d, t in CORPUS_ROWS if d != docid][:2]
            fh.write(
                json.dumps(
                    {
                        "query": qtext,
                        "positive": corpus_map[docid],
                        "negatives": negatives,
                    }
                )
                + "\n"
            )

    vocab = root / "vocab.txt"
    run_dir = root / "run"
    weights = root / "weights.jsonl"
    index = root / "index.ftek"
    run_file = root / "run.tsv"

    started = time.perf_counter()
    steps = [
        ("build-vocab", "--corpus", str(corpus), "--out", str(vocab)),
        (
            "train",
            "--triples", str(triples),
            "--vocab", str(vocab),
            "--out-dir", str(run_dir),
            *TINY_ENCODER,
            "--epochs", "2",
            "--batch-queries", "2",
            "--seed", "42",
        ),
        (
            "encode",
            "--checkpoint", str(run_dir / "model.ftck"),
            "--vocab", str(vocab),
            "--corpus", str(corpus),
            "--out", str(weights),
        ),
        (
            "index",
            "--weights", str(weights),
            "--vocab", str(vocab),
            "--out", str(index),
        ),
        (
            "search",
            "--index", str(index),
            "--checkpoint", str(run_dir / "model.ftck"),
            "--vocab", str(vocab),
            "--queries", str(queries),
            "--out", str(run_file),
            "--k", "5",
        ),
    ]
    outputs = {}
    for argv in steps:
        code, out, err = run_cli(*argv)
        assert code == 0, f"{argv[0]} failed: {err or out}"
        outputs[argv[0]] = out
    elapsed = time.perf_counter() - started
    return {
        "root": root,
        "corpus": corpus,
        "queries": queries,
        "qrels": qrels,
        "triples": triples,
        "vocab": vocab,
        "run_dir": run_dir,
        "checkpoint": run_dir / "model.ftck",
        "weights": weights,
        "index": index,
        "run_file": run_file,
        "outputs": outputs,
        "elapsed": elapsed,
    }


class TestPipeline:
    def test_smoke_completes_quickly(self, workspace):
        assert workspace["elapsed"] < 10.0

    def test_step_summaries(self, workspace):
        outputs = workspace["outputs"]
        assert "vocabulary:" in outputs["build-vocab"]
        assert "checkpoint:" in outputs["train"]
        assert "encoded 10 passages" in outputs["encode"]
        assert "index: 10 docs" in outputs["index"]
        assert "searched 3 queries (top 5)" in outputs["search"]

    def test_training_artifacts(self, workspace):
        run_dir = workspace["run_dir"]
        assert (run_dir / "model.ftck").exists()
        assert (run_dir / "model.epoch001.ftck").exists()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["feature_gate"] is True
        assert header["config"]["seed"] == 42
        # 3 triples, batch 2 -> 2 steps per epoch, 2 epochs.
        assert len(lines) == 1 + 4

    def test_init_checkpoint_header_records_loaded_shape(self, workspace, tmp_path):
        # An encoder flag cannot reshape a loaded checkpoint: one that differs
        # from the stored value is refused before anything is written, and
        # one equal to it is accepted.
        def continue_training(out, *flags):
            return run_cli(
                "train",
                "--triples", str(workspace["triples"]),
                "--vocab", str(workspace["vocab"]),
                "--out-dir", str(out),
                "--init-checkpoint", str(workspace["checkpoint"]),
                "--epochs", "1",
                *flags,
            )

        refused = tmp_path / "refused"
        code, _, err = continue_training(refused, "--layers", "4", "--dim", "16")
        assert code == 2
        assert "--layers 4" in err and "layers 1" in err
        assert not refused.exists()

        accepted = tmp_path / "accepted"
        code, _, err = continue_training(accepted, "--layers", "1", "--max-passage-len", "24")
        assert code == 0, err
        header = json.loads((accepted / "metrics.jsonl").read_text().splitlines()[0])
        saved = load_model(accepted / "model.ftck").config
        assert (saved.dim, saved.layers, saved.max_passage_len) == (16, 1, 24)
        for field in (
            "dim", "layers", "heads", "ffn_multiplier", "max_query_len", "max_passage_len"
        ):
            assert header["config"][field] == getattr(saved, field), field

    def test_trained_checkpoints_hold_float32_values(self, workspace):
        assert_float32_values(workspace["checkpoint"])
        assert_float32_values(workspace["run_dir"] / "model.epoch001.ftck")

    def test_init_checkpoint_continues_in_float32_byte_identically(
        self, workspace, tmp_path
    ):
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            code, _, err = run_cli(
                "train",
                "--triples", str(workspace["triples"]),
                "--vocab", str(workspace["vocab"]),
                "--out-dir", str(out),
                "--init-checkpoint", str(workspace["checkpoint"]),
                "--epochs", "2",  # one step per epoch; the last runs at rate 0
                "--seed", "5",
            )
            assert code == 0, err
        assert_float32_values(runs[0] / "model.ftck")
        for name in ("model.ftck", "metrics.jsonl"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        assert (runs[0] / "model.ftck").read_bytes() != workspace["checkpoint"].read_bytes()

    def test_init_checkpoint_keeps_stored_gate(self, workspace, tmp_path):
        # Without --no-fcm, a continued model keeps the gate its checkpoint
        # stores; the flag still turns a stored gate off.
        def train(out, *flags):
            code, _, err = run_cli(
                "train",
                "--triples", str(workspace["triples"]),
                "--vocab", str(workspace["vocab"]),
                "--out-dir", str(out),
                "--epochs", "1",
                *flags,
            )
            assert code == 0, err
            model = load_model(out / "model.ftck")
            header = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
            return model, header["config"]

        first, _ = train(tmp_path / "a", *TINY_ENCODER, "--no-fcm")
        assert first.use_feature_gate is False
        init = ("--init-checkpoint", str(tmp_path / "a" / "model.ftck"))
        kept, header = train(tmp_path / "b", *init)
        assert kept.use_feature_gate is False and header["feature_gate"] is False
        gated = ("--init-checkpoint", str(workspace["checkpoint"]))
        changed, header = train(tmp_path / "c", *gated, "--no-fcm")
        assert load_model(workspace["checkpoint"]).use_feature_gate is True
        assert changed.use_feature_gate is False and header["feature_gate"] is False

    def test_weight_stream_shape(self, workspace):
        rows = [
            json.loads(line)
            for line in workspace["weights"].read_text().splitlines()
        ]
        assert [r["docid"] for r in rows] == [d for d, _ in CORPUS_ROWS]
        for row in rows:
            for term, weight in row["weights"].items():
                int(term)
                assert weight >= 0.0

    def test_weight_rows_ascend_by_term_id(self, workspace):
        for line in workspace["weights"].read_text().splitlines():
            terms = [int(term) for term in json.loads(line)["weights"]]
            assert terms == sorted(terms)

    def test_encode_rerun_identical(self, workspace, tmp_path):
        out = tmp_path / "again.jsonl"
        code, _, _ = run_cli(
            "encode",
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--corpus", str(workspace["corpus"]),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == workspace["weights"].read_bytes()

    def test_search_rerun_identical(self, workspace, tmp_path):
        out = tmp_path / "again.tsv"
        code, _, _ = run_cli(
            "search",
            "--index", str(workspace["index"]),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(out),
            "--k", "5",
        )
        assert code == 0
        assert out.read_bytes() == workspace["run_file"].read_bytes()

    def test_index_reports_what_quantization_kept(self, workspace, tmp_path):
        # Scale 2/255: 2.0 is impact 255, 1.0 rounds to 128, and 0.001 (an
        # impact of 0.13) and 0.0 are dropped.
        weights = tmp_path / "weights.jsonl"
        weights.write_text(
            '{"docid": "a", "weights": {"5": 2.0, "6": 0.001, "7": 0.0}}\n'
            '{"docid": "b", "weights": {"5": 1.0}}\n'
        )
        out = tmp_path / "index.ftek"
        code, printed, _ = run_cli(
            "index", "--weights", str(weights), "--vocab", str(workspace["vocab"]),
            "--out", str(out),
        )
        assert code == 0
        per_posting = out.stat().st_size / 2
        assert printed.startswith(
            "index: 2 docs, 2 postings kept, 2 weights dropped at impact 0, "
            f"1 impacts saturated at 255, {per_posting:.3f} B/posting, scale "
        )

    def test_evaluate_prints_metrics(self, workspace):
        code, out, _ = run_cli(
            "evaluate",
            "--run", str(workspace["run_file"]),
            "--qrels", str(workspace["qrels"]),
        )
        assert code == 0
        assert out.startswith("MRR@10=")
        assert "Recall@100=" in out

    def test_tagged_run_reads_back(self, workspace, tmp_path):
        out = tmp_path / "tagged.tsv"
        code, _, _ = run_cli(
            "search",
            "--index", str(workspace["index"]),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(out),
            "--k", "5",
            "--tag", "my-run.v2",
        )
        assert code == 0
        assert load_run(out) == load_run(workspace["run_file"])
        tagged, default = (
            run_cli("evaluate", "--run", str(run), "--qrels", str(workspace["qrels"]))
            for run in (out, workspace["run_file"])
        )
        assert tagged == default and tagged[0] == 0

    def test_empty_passage_encodes_to_empty_weights(self, workspace, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("dx\t...\nd1\tred apples grow\n")
        out = tmp_path / "weights.jsonl"
        code, _, _ = run_cli(
            "encode",
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--corpus", str(corpus),
            "--out", str(out),
        )
        assert code == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first == {"docid": "dx", "weights": {}}


class TestEvaluateOracle:
    def test_hand_built_example(self, tmp_path):
        run = tmp_path / "run.tsv"
        rows = [
            ("q1", [("d1", 9.0), ("d2", 8.0)]),
            ("q2", [("d9", 5.0), ("d8", 4.0), ("d7", 3.0), ("d2", 2.0)]),
            ("q3", [("d5", 1.0)]),
        ]
        with open(run, "w") as fh:
            for qid, hits in rows:
                for rank, (docid, score) in enumerate(hits, start=1):
                    fh.write(f"{qid} Q0 {docid} {rank} {score} t\n")
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\nq3 0 d6 1\n")
        code, out, _ = run_cli(
            "evaluate", "--run", str(run), "--qrels", str(qrels)
        )
        assert code == 0
        assert out.split()[0] == "MRR@10=0.416667"


class TestExitCodes:
    def test_usage_error_is_2(self):
        code, _, _ = run_cli("train")  # missing required flags
        assert code == 2

    def test_unknown_command_is_2(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_bad_choice_is_2(self, workspace, tmp_path):
        # `--aggregation` was removed: repeated terms always collapse by max.
        for argv in (
            ("train", "--triples", str(workspace["triples"]), "--vocab", str(workspace["vocab"])),
            ("ablation", "--data-dir", str(workspace["root"])),
        ):
            code, _, err = run_cli(
                *argv, "--out-dir", str(tmp_path / argv[0]), "--aggregation", "max"
            )
            assert code == 2
            assert "unrecognized arguments: --aggregation max" in err
            assert not (tmp_path / argv[0]).exists()

    def test_stored_sum_aggregation_is_4(self, workspace, tmp_path):
        # Version 2 stores no aggregation: repeated terms always collapse by
        # max, and an entry naming one is not part of the format.
        entries = load_tensors(workspace["checkpoint"])
        entries["config.aggregation"] = np.float64(1.0)  # what version 1 stored for `sum`
        old = tmp_path / "sum.ftck"
        save_tensors(old, entries)
        code, _, err = run_cli(
            "encode",
            "--checkpoint", str(old),
            "--vocab", str(workspace["vocab"]),
            "--corpus", str(workspace["corpus"]),
            "--out", str(tmp_path / "w.jsonl"),
        )
        assert code == 4
        assert "unexpected checkpoint entry 'config.aggregation'" in err
        assert not (tmp_path / "w.jsonl").exists()

    def test_invalid_value_is_2(self, workspace, tmp_path):
        code, _, err = run_cli(
            "train",
            "--triples", str(workspace["triples"]),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(tmp_path),
            "--epochs", "0",
        )
        assert code == 2
        assert "error:" in err

    def test_missing_file_is_3(self, workspace, tmp_path):
        code, _, err = run_cli(
            "train",
            "--triples", str(tmp_path / "nope.jsonl"),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("command", ["encode", "index", "search"])
    def test_missing_out_directory_is_3_before_any_work(
        self, workspace, tmp_path, monkeypatch, command
    ):
        def work(*args, **kwargs):
            raise AssertionError(f"{command} started work before checking --out")

        monkeypatch.setattr(FecTekModel, "weigh", work)  # the forward passes
        monkeypatch.setattr(InvertedIndex, "build", work)
        monkeypatch.setattr(InvertedIndex, "load", work)
        out = tmp_path / "missing" / "out"
        inputs = {
            "encode": ["--checkpoint", workspace["checkpoint"], "--corpus", workspace["corpus"]],
            "index": ["--weights", workspace["weights"]],
            "search": [
                "--index", workspace["index"], "--checkpoint", workspace["checkpoint"],
                "--queries", workspace["queries"],
            ],
        }[command]
        argv = [command, *map(str, inputs), "--vocab", str(workspace["vocab"]), "--out"]
        code, _, err = run_cli(*argv, str(out))
        assert code == 3
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()
        # An --out that is a directory fails the same way, and stays as it was.
        out.mkdir(parents=True)
        code, _, err = run_cli(*argv, str(out))
        assert code == 3
        assert err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("tag", ["my run", "", "a\tb", " fectek", "fectek\n"])
    def test_tag_with_whitespace_is_2_before_any_work(
        self, workspace, tmp_path, monkeypatch, tag
    ):
        def work(*args, **kwargs):
            raise AssertionError("search started work before checking --tag")

        monkeypatch.setattr(InvertedIndex, "load", work)
        out = tmp_path / "run.tsv"
        code, _, err = run_cli(
            "search",
            "--index", str(workspace["index"]),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(out),
            "--tag", tag,
        )
        assert code == 2
        assert err == f"error: --tag must be one word without whitespace, got {tag!r}\n"
        assert not out.exists()

    def test_tag_that_utf8_cannot_hold_is_2_before_any_work(
        self, workspace, tmp_path, monkeypatch
    ):
        # Command-line bytes that are not UTF-8 arrive as lone surrogates.
        def work(*args, **kwargs):
            raise AssertionError("search started work before checking --tag")

        monkeypatch.setattr(InvertedIndex, "load", work)
        out = tmp_path / "run.tsv"
        code, _, err = run_cli(
            "search",
            "--index", str(workspace["index"]),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(out),
            "--tag", "t\udcff",
        )
        assert code == 2
        assert err == "error: --tag must be UTF-8 text, got 't\\udcff'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "search"])
    def test_id_with_whitespace_is_4(self, workspace, tmp_path, command):
        # Either id would end up in a run file, split on its whitespace.
        rows = tmp_path / "rows.tsv"
        rows.write_text("a1\tred apples\na 2\tiron bridge\n")
        out = tmp_path / "out"
        inputs = {
            "encode": ["--corpus", rows],
            "search": ["--index", workspace["index"], "--queries", rows],
        }[command]
        code, _, err = run_cli(
            command, *map(str, inputs), "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]), "--out", str(out),
        )
        what = {"encode": "corpus", "search": "queries"}[command]
        assert code == 4
        assert err == f"error: {rows}:2: id 'a 2' contains whitespace in {what} file\n"
        assert not out.exists()

    def test_out_directory_that_is_a_file_is_3(self, workspace, tmp_path):
        out = tmp_path / "file" / "index.ftek"
        out.parent.write_text("")
        code, _, err = run_cli(
            "index", "--weights", str(workspace["weights"]), "--vocab", str(workspace["vocab"]),
            "--out", str(out),
        )
        assert code == 3
        assert err == f"error: [Errno 20] Not a directory: '{out}'\n"

    def test_corrupt_checkpoint_is_4(self, workspace, tmp_path):
        broken = tmp_path / "broken.ftck"
        broken.write_bytes(workspace["checkpoint"].read_bytes()[:-9])
        code, _, err = run_cli(
            "encode",
            "--checkpoint", str(broken),
            "--vocab", str(workspace["vocab"]),
            "--corpus", str(workspace["corpus"]),
            "--out", str(tmp_path / "w.jsonl"),
        )
        assert code == 4
        assert "error:" in err

    def test_corrupt_index_is_4(self, workspace, tmp_path):
        broken = tmp_path / "broken.ftek"
        broken.write_bytes(b"JUNK" + workspace["index"].read_bytes()[4:])
        code, _, _ = run_cli(
            "search",
            "--index", str(broken),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(tmp_path / "r.tsv"),
        )
        assert code == 4

    def test_version_1_index_is_4(self, workspace, tmp_path):
        blob = bytearray(workspace["index"].read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        old = tmp_path / "v1.ftek"
        old.write_bytes(bytes(blob))
        code, _, err = run_cli(
            "search",
            "--index", str(old),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(tmp_path / "r.tsv"),
        )
        assert code == 4
        assert "unsupported version 1: rebuild with fectek index" in err
        assert not (tmp_path / "r.tsv").exists()

    def test_version_3_index_is_4(self, workspace, tmp_path):
        # The desk index as version 3 wrote it: the same bytes up to the
        # docid table, then a one-byte length before each docid in place of
        # its newline.
        blob = workspace["index"].read_bytes()
        docids = [d.encode("utf-8") for d in InvertedIndex.load(workspace["index"]).docids]
        table = b"".join(docid + b"\n" for docid in docids)
        assert blob.endswith(table) and max(map(len, docids)) < 0x80
        old = tmp_path / "v3.ftek"
        old.write_bytes(
            blob[:4] + (3).to_bytes(4, "little") + blob[8 : -len(table)]
            + bytes(map(len, docids)) + b"".join(docids)
        )
        out = tmp_path / "r.tsv"
        code, _, err = run_cli(
            "search",
            "--index", str(old),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(out),
        )
        assert code == 4
        assert err == f"error: {old}: unsupported version 3: rebuild with fectek index\n"
        assert not out.exists()

    def test_malformed_triples_is_4(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("better not be json\n")
        code, _, _ = run_cli(
            "train",
            "--triples", str(bad),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(tmp_path),
        )
        assert code == 4

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_weight_is_4(self, workspace, tmp_path, weight):
        weights = tmp_path / "weights.jsonl"
        weights.write_text(
            '{"docid": "a", "weights": {"5": 1.0}}\n'
            f'{{"docid": "b", "weights": {{"7": {weight}}}}}\n'
        )
        out = tmp_path / "index.ftek"
        code, _, err = run_cli(
            "index",
            "--weights", str(weights),
            "--vocab", str(workspace["vocab"]),
            "--out", str(out),
        )
        assert code == 4
        assert "docid 'b': weight" in err and "term 7" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, fault",
        [
            pytest.param("q1 Q0 d2 2 nan t", "score 'nan' is not finite", id="nan-score"),
            pytest.param("q1 Q0 d2 2 inf t", "score 'inf' is not finite", id="inf-score"),
            pytest.param("q1 Q0 d2 02 1.0 t", "bad rank or score", id="rank-02"),
            pytest.param(
                "q1 Q0 d1 2 1.0 t", "docid 'd1' appears twice for query 'q1'", id="repeated-docid"
            ),
        ],
    )
    def test_bad_run_row_is_4(self, tmp_path, row, fault):
        run, qrels = tmp_path / "run.tsv", tmp_path / "qrels.tsv"
        run.write_text(f"q1 Q0 d1 1 2.0 t\n{row}\n")
        qrels.write_text("q1 0 d1 1\n")
        code, _, err = run_cli("evaluate", "--run", str(run), "--qrels", str(qrels))
        assert code == 4
        assert f"run.tsv:2: {fault}" in err

    def test_non_canonical_relevance_is_4(self, tmp_path):
        run, qrels = tmp_path / "run.tsv", tmp_path / "qrels.tsv"
        run.write_text("q1 Q0 d1 1 2.0 t\n")
        qrels.write_text("q1 0 d1 1_0\n")
        code, _, err = run_cli("evaluate", "--run", str(run), "--qrels", str(qrels))
        assert code == 4
        assert "qrels.tsv:1: relevance '1_0' is not a canonical integer" in err

    @pytest.mark.parametrize(
        "weights, fault",
        [
            pytest.param('{"7": -1.0}', "weight -1.0 for term 7", id="negative"),
            pytest.param('{"99999": 1.0}', "term id 99999 outside", id="out-of-range"),
        ],
    )
    def test_bad_weight_names_docid(self, workspace, tmp_path, weights, fault):
        data = tmp_path / "weights.jsonl"
        data.write_text(
            '{"docid": "a", "weights": {"5": 1.0}}\n'
            f'{{"docid": "b", "weights": {weights}}}\n'
            '{"docid": "c", "weights": {"6": 1.0}}\n'
        )
        out = tmp_path / "index.ftek"
        code, _, err = run_cli(
            "index", "--weights", str(data), "--vocab", str(workspace["vocab"]), "--out", str(out)
        )
        assert code == 4
        assert f"error: docid 'b': {fault}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "docid", ["", "d 1", "a\tb", "x y"], ids=["empty", "space", "tab", "inner-space"]
    )
    def test_docid_that_is_not_one_word_is_4(self, workspace, tmp_path, docid):
        # A run file splits its rows on whitespace, so `search` could write
        # no row for this docid that `evaluate` reads back.
        data = tmp_path / "weights.jsonl"
        rows = [{"docid": "a", "weights": {"5": 1.0}}, {"docid": docid, "weights": {"6": 1.0}}]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "index.ftek"
        code, _, err = run_cli(
            "index", "--weights", str(data), "--vocab", str(workspace["vocab"]), "--out", str(out)
        )
        assert code == 4
        assert err == f"error: docid {docid!r} is empty or contains whitespace\n"
        assert not out.exists()

    def test_docid_that_utf8_cannot_hold_is_4(self, workspace, tmp_path):
        # json.loads turns the escape "\ud800" into a lone surrogate, which
        # the index's UTF-8 docid table cannot hold.
        data = tmp_path / "weights.jsonl"
        rows = [{"docid": "a", "weights": {"5": 1.0}}, {"docid": "d\ud800", "weights": {}}]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "index.ftek"
        code, _, err = run_cli(
            "index", "--weights", str(data), "--vocab", str(workspace["vocab"]), "--out", str(out)
        )
        assert code == 4
        assert err == "error: docid 'd\\ud800' is not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, row",
        [
            pytest.param(
                "index", '{"docid": "b", "weights": {"7": %s}}' % ("9" * 400),
                id="index-400-digit-weight",
            ),
            pytest.param(
                "index", '{"docid": "b", "weights": {"7": %s}}' % ("9" * 5000),
                id="index-5000-digit-weight",
            ),
            pytest.param(
                "train", '{"query": "a", "positive": "b", "n": %s}' % ("9" * 5000),
                id="train-5000-digit-integer",
            ),
        ],
    )
    def test_huge_json_integer_is_4(self, workspace, tmp_path, command, row):
        data = tmp_path / "data.jsonl"
        first = {
            "index": '{"docid": "a", "weights": {"5": 1.0}}',
            "train": '{"query": "a", "positive": "b", "negatives": []}',
        }[command]
        data.write_text(f"{first}\n{row}\n")
        out = tmp_path / "out"
        flags = {
            "index": ("--weights", str(data), "--out", str(out)),
            "train": ("--triples", str(data), "--out-dir", str(out)),
        }[command]
        code, _, err = run_cli(command, "--vocab", str(workspace["vocab"]), *flags)
        assert code == 4
        assert f"{data}:2:" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["07", " 8", "1_0", "+7", "-0"])
    def test_non_canonical_term_id_is_4(self, workspace, tmp_path, key):
        weights = tmp_path / "weights.jsonl"
        weights.write_text(
            json.dumps({"docid": "a", "weights": {"7": 1.0, key: 2.0}}) + "\n"
        )
        out = tmp_path / "index.ftek"
        code, _, err = run_cli(
            "index",
            "--weights", str(weights),
            "--vocab", str(workspace["vocab"]),
            "--out", str(out),
        )
        assert code == 4
        assert repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("build-vocab", "--corpus"),
            ("index", "--vocab"),
            ("index", "--weights"),
            ("train", "--triples"),
            ("evaluate", "--qrels"),
            ("evaluate", "--run"),
            ("search", "--queries"),
        ],
    )
    def test_non_utf8_input_is_4(self, workspace, tmp_path, command, flag):
        out = tmp_path / "out"
        inputs = {
            "build-vocab": {"--corpus": workspace["corpus"], "--out": out},
            "index": {
                "--weights": workspace["weights"],
                "--vocab": workspace["vocab"],
                "--out": out,
            },
            "train": {
                "--triples": workspace["triples"],
                "--vocab": workspace["vocab"],
                "--out-dir": out,
            },
            "evaluate": {"--run": workspace["run_file"], "--qrels": workspace["qrels"]},
            "search": {
                "--index": workspace["index"],
                "--checkpoint": workspace["checkpoint"],
                "--vocab": workspace["vocab"],
                "--queries": workspace["queries"],
                "--out": out,
            },
        }[command]
        bad = tmp_path / "bad"
        good = inputs[flag].read_bytes()
        bad.write_bytes(good + b"stray \xff byte\n")
        line = good.count(b"\n") + 1
        inputs[flag] = bad
        argv = [part for name, path in inputs.items() for part in (name, str(path))]
        code, _, err = run_cli(command, *argv)
        assert code == 4
        assert f"{bad}:{line}:" in err
        assert "can't decode byte 0xff" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, content, line",
        [
            pytest.param("build-vocab", "d1 no tab\n", 1, id="tsv-no-tab"),
            pytest.param("build-vocab", "\tsome text\n", 1, id="tsv-empty-id"),
            pytest.param("build-vocab", "d1\ta\nd1\tb\n", 2, id="tsv-duplicate-id"),
            pytest.param("build-vocab", "d 1\ta\n", 1, id="tsv-space-in-id"),
            pytest.param("build-vocab", "d1\ta\n d2\tb\n", 2, id="tsv-leading-space-id"),
            pytest.param("build-vocab", "d1\xa0\ta\n", 1, id="tsv-nbsp-in-id"),
            pytest.param("build-vocab", " \ta\n", 1, id="tsv-blank-id"),
            pytest.param("build-vocab", "\n\n\n", None, id="tsv-only-blank-lines"),
            pytest.param("build-vocab", "\nd1 no tab\n", 2, id="tsv-blank-line-first"),
            pytest.param("build-vocab", "d1\t!!! ???\n", None, id="tsv-no-token"),
            pytest.param("index", '["a", {}]\n', 1, id="weights-array-row"),
            pytest.param(
                "index", '{"docid": "a", "weights": {"abc": 1.0}}\n', 1, id="weights-term-abc"
            ),
            pytest.param(
                "index", '{"docid": "a", "weights": {"7": "1.0"}}\n', 1, id="weights-string"
            ),
            pytest.param(
                "index", '{"docid": "a", "weights": {"7": true}}\n', 1, id="weights-bool"
            ),
            pytest.param("index", '\n["a", {}]\n', 2, id="weights-blank-line-first"),
            pytest.param("index", "", None, id="weights-empty"),
            pytest.param("index", "\n\n\n", None, id="weights-only-blank-lines"),
            pytest.param(
                "index", '{"docid": "a", "weights": {}}\n', None, id="weights-no-posting"
            ),
            pytest.param(
                "index",
                '{"docid": "a", "weights": {}}\n{"docid": "b", "weights": {"5": 0.0}}\n',
                None,
                id="weights-only-zero-weights",
            ),
            pytest.param("train", "[1, 2]\n", 1, id="triples-array-row"),
            pytest.param("train", "\n[1, 2]\n", 2, id="triples-blank-line-first"),
        ],
    )
    def test_bad_input_row_is_4(self, workspace, tmp_path, command, content, line):
        data = tmp_path / "data"
        data.write_text(content)
        out = tmp_path / "out"
        flags = {
            "build-vocab": ("--corpus", str(data), "--out", str(out)),
            "index": ("--weights", str(data), "--out", str(out)),
            "train": ("--triples", str(data), "--out-dir", str(out)),
        }[command]
        vocab = () if command == "build-vocab" else ("--vocab", str(workspace["vocab"]))
        code, _, err = run_cli(command, *flags, *vocab)
        assert code == 4
        assert f"error: {data}{'' if line is None else f':{line}'}: " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, line",
        [
            pytest.param("alpha\nalpha\n", 3, id="duplicate"),
            pytest.param("alpha\n[PAD]\n", 3, id="reserved"),
            pytest.param("alpha\x0c\nbeta\n", 2, id="form-feed"),
        ],
    )
    def test_bad_vocabulary_line_is_4(self, workspace, tmp_path, body, line):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(f"#fectek-vocab v1 min_freq=1\n{body}".encode())
        out = tmp_path / "index.ftek"
        code, _, err = run_cli(
            "index", "--weights", str(workspace["weights"]), "--vocab", str(vocab), "--out", str(out)
        )
        assert code == 4
        assert f"error: {vocab}:{line}: " in err
        assert not out.exists()

    def test_min_freq_past_int_digit_limit_is_4(self, workspace, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(f"#fectek-vocab v1 min_freq={'9' * 5000}\nalpha\n")
        out = tmp_path / "run"
        code, _, err = run_cli(
            "train", "--triples", str(workspace["triples"]), "--vocab", str(vocab),
            "--out-dir", str(out),
        )
        assert code == 4
        assert f"error: {vocab}: bad vocabulary header" in err
        assert not out.exists()

    def test_empty_vocabulary_is_4(self, workspace, tmp_path):
        empty = tmp_path / "vocab.txt"
        empty.write_text("")
        out = tmp_path / "index.ftek"
        code, _, err = run_cli(
            "index",
            "--weights", str(workspace["weights"]),
            "--vocab", str(empty),
            "--out", str(out),
        )
        assert code == 4
        assert f"error: {empty}: empty vocabulary file" in err
        assert not out.exists()

    def test_vocabulary_of_reserved_ids_only_is_4_before_training(self, workspace, tmp_path):
        header_only = tmp_path / "vocab.txt"
        header_only.write_text("#fectek-vocab v1 min_freq=1\n")
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            "train",
            "--triples", str(workspace["triples"]),
            "--vocab", str(header_only),
            "--out-dir", str(out_dir),
        )
        assert code == 4
        assert f"error: {header_only}: vocabulary holds no token" in err
        assert not out_dir.exists()

    def test_index_vocabulary_size_mismatch_is_4(self, workspace, tmp_path):
        vocab_size = len(Vocabulary.load(workspace["vocab"]))
        other = tmp_path / "other.ftek"
        InvertedIndex.build(iter([("d1", [5], [1.0])]), vocab_size + 1).save(other)
        out = tmp_path / "run.tsv"
        code, _, err = run_cli(
            "search",
            "--index", str(other),
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(workspace["vocab"]),
            "--queries", str(workspace["queries"]),
            "--out", str(out),
        )
        assert code == 4
        assert f"error: {other}: index vocabulary size {vocab_size + 1}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage",
        [
            "missing", "wrong-shape", "fewer-layers-in-config", "extra-tensor", "unknown-config",
            "missing-config", "non-scalar-config",
        ],
    )
    def test_damaged_checkpoint_parameter_is_4(self, workspace, tmp_path, damage):
        entries = load_tensors(workspace["checkpoint"])
        message = {
            "missing": "missing parameter 'prob_head.weight'",
            "wrong-shape": "parameter 'prob_head.weight' has shape (15,), expected (16,)",
            "fewer-layers-in-config": "unexpected checkpoint entry 'layers.1.attn.query.weight'",
            "extra-tensor": "unexpected checkpoint entry 'junk'",
            "unknown-config": "unexpected checkpoint entry 'config.temperature'",
            "missing-config": "missing checkpoint entry 'config.heads'",
            "non-scalar-config": "entry 'config.heads' should be scalar",
        }[damage]
        if damage == "missing":
            del entries["prob_head.weight"]
        elif damage == "wrong-shape":
            entries["prob_head.weight"] = entries["prob_head.weight"][:-1]
        elif damage == "fewer-layers-in-config":
            # The stored config names one layer; the file also holds a second.
            assert entries["config.layers"] == 1.0
            entries |= {
                name.replace("layers.0.", "layers.1.", 1): value
                for name, value in entries.items()
                if name.startswith("layers.0.")
            }
        elif damage == "extra-tensor":
            entries["junk"] = np.zeros(3)
        elif damage == "missing-config":
            del entries["config.heads"]
        elif damage == "non-scalar-config":
            entries["config.heads"] = np.full(1, entries["config.heads"])
        else:
            entries["config.temperature"] = np.float64(1.0)
        broken = tmp_path / "broken.ftck"
        save_tensors(broken, entries)
        out = tmp_path / "weights.jsonl"
        code, _, err = run_cli(
            "encode",
            "--checkpoint", str(broken),
            "--vocab", str(workspace["vocab"]),
            "--corpus", str(workspace["corpus"]),
            "--out", str(out),
        )
        assert code == 4
        assert f"error: {broken}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("dims", [(0, 2**63), (0,) * 65], ids=["huge-dim", "rank-65"])
    def test_impossible_checkpoint_shape_is_4(self, workspace, tmp_path, dims):
        broken = tmp_path / "broken.ftck"
        broken.write_bytes(
            MAGIC
            + struct.pack("<IIH", VERSION, 1, 1)
            + b"w"
            + struct.pack(f"<BB{len(dims)}Q", 1, len(dims), *dims)
            + bytes(-(17 + 8 * len(dims)) % ALIGN)
        )
        out = tmp_path / "weights.jsonl"
        code, _, err = run_cli(
            "encode",
            "--checkpoint", str(broken),
            "--vocab", str(workspace["vocab"]),
            "--corpus", str(workspace["corpus"]),
            "--out", str(out),
        )
        assert code == 4
        assert f"error: {broken}: entry 'w'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("train", ("--warmup-ratio", "1.5")),
            ("train", ("--warmup-ratio", "-0.1")),
            ("train", ("--lr", "nan")),
            ("train", ("--lr", "-1")),
            ("train", ("--lr", "0")),
            ("train", ("--weight-decay", "inf")),
            ("train", ("--clip-norm", "-1")),
            ("build-vocab", ("--min-freq", "-1")),
            ("search", ("--k", "0")),
            ("train", ("--seed", "-1")),
            ("train", ("--init-checkpoint", "{checkpoint}", "--seed", "-1")),
            ("ablation", ("--seed", "-1")),
            ("train", ("--negatives", "-1")),
            ("evaluate", ("--recall-k", "0")),
        ],
    )
    def test_bad_numeric_flag_is_2_and_writes_nothing(
        self, workspace, tmp_path, command, flags
    ):
        out = tmp_path / "out"
        inputs = {
            "train": (
                "--triples", str(workspace["triples"]),
                "--vocab", str(workspace["vocab"]),
                "--out-dir", str(out),
            ),
            "ablation": ("--data-dir", str(workspace["root"]), "--out-dir", str(out)),
            "build-vocab": ("--corpus", str(workspace["corpus"]), "--out", str(out)),
            "search": (
                "--index", str(workspace["index"]),
                "--checkpoint", str(workspace["checkpoint"]),
                "--vocab", str(workspace["vocab"]),
                "--queries", str(workspace["queries"]),
                "--out", str(out),
            ),
            "evaluate": ("--run", str(workspace["run_file"]), "--qrels", str(workspace["qrels"])),
        }[command]
        flags = [flag.format(**workspace) for flag in flags]
        code, _, err = run_cli(command, *inputs, *flags)
        assert code == 2
        assert "error:" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        # One value just past each end of each encoder bound.
        [
            ("--dim", 0), ("--dim", 4097), ("--layers", 0), ("--layers", 65),
            ("--heads", 0), ("--heads", 257),
            ("--ffn-multiplier", 0), ("--ffn-multiplier", 33),
            ("--max-query-len", 2), ("--max-query-len", 65_537),
            ("--max-passage-len", 2), ("--max-passage-len", 65_537),
        ],
    )
    def test_encoder_flag_out_of_bounds_is_2(self, workspace, tmp_path, flag, value):
        out = tmp_path / "run"
        code, _, err = run_cli(
            "train",
            "--triples", str(workspace["triples"]),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(out),
            *TINY_ENCODER,
            flag, str(value),
        )
        assert code == 2
        assert flag[2:].replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("command", ["encode", "search"])
    def test_non_finite_checkpoint_is_4(self, workspace, tmp_path, command, value):
        entries = load_tensors(workspace["checkpoint"])
        entries["weight_head.bias"].flat[-1] = value
        broken = tmp_path / "broken.ftck"
        save_tensors(broken, entries)
        out = tmp_path / "out"
        inputs = {
            "encode": ("--corpus", str(workspace["corpus"])),
            "search": (
                "--index", str(workspace["index"]),
                "--queries", str(workspace["queries"]),
            ),
        }[command]
        code, _, err = run_cli(
            command,
            "--checkpoint", str(broken),
            "--vocab", str(workspace["vocab"]),
            *inputs,
            "--out", str(out),
        )
        assert code == 4
        assert "weight_head.bias" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [1e300, -1e39])
    @pytest.mark.parametrize("command", ["encode", "search", "train"])
    def test_checkpoint_value_past_float32_is_4(self, workspace, tmp_path, command, value):
        # Only a float64 entry can hold a value float32 cannot, and a
        # parameter entry must be float32: a float64 one exits 4 as it is.
        entries = load_tensors(workspace["checkpoint"])
        entries["layers.0.ffn.expand.weight"] = entries["layers.0.ffn.expand.weight"].astype(float)
        entries["layers.0.ffn.expand.weight"].flat[3] = value
        broken = tmp_path / "broken.ftck"
        save_tensors(broken, entries)
        out = tmp_path / "out"
        args = {
            "encode": ("--corpus", str(workspace["corpus"]), "--out", str(out)),
            "search": (
                "--index", str(workspace["index"]),
                "--queries", str(workspace["queries"]),
                "--out", str(out),
            ),
            "train": (
                "--triples", str(workspace["triples"]),
                "--init-checkpoint", str(broken),
                "--out-dir", str(out),
            ),
        }[command]
        if command != "train":
            args += ("--checkpoint", str(broken))
        code, _, err = run_cli(command, "--vocab", str(workspace["vocab"]), *args)
        assert code == 4, err
        assert "'layers.0.ffn.expand.weight' is float64, not float32" in err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["unknown-dtype", "nonzero-padding", "version-1"])
    def test_checkpoint_format_fault_is_4(self, workspace, tmp_path, fault):
        entries = load_tensors(workspace["checkpoint"])
        first = next(iter(entries))  # a rank-0 config scalar: its padding starts at 16 + name
        blob = bytearray(workspace["checkpoint"].read_bytes())
        if fault == "version-1":
            # Version 1 stored every entry as float64, with no dtype byte or padding.
            blob = MAGIC + struct.pack("<II", 1, len(entries))
            for name, array in entries.items():
                blob += struct.pack("<H", len(name)) + name.encode()
                blob += struct.pack(f"<B{array.ndim}Q", array.ndim, *array.shape)
                blob += array.astype("<f8").tobytes()
            message = "unsupported version 1: retrain with fectek train"
        elif fault == "unknown-dtype":
            blob[14 + len(first)] = 7
            message = f"entry '{first}' has unknown dtype code 7"
        else:
            blob[16 + len(first)] = 1
            message = f"entry '{first}' has nonzero padding"
        broken = tmp_path / "broken.ftck"
        broken.write_bytes(bytes(blob))
        out = tmp_path / "weights.jsonl"
        code, _, err = run_cli(
            "encode",
            "--checkpoint", str(broken),
            "--vocab", str(workspace["vocab"]),
            "--corpus", str(workspace["corpus"]),
            "--out", str(out),
        )
        assert code == 4, err
        assert f"error: {broken}: {message}" in err
        assert not out.exists()

    def test_non_finite_gradient_norm_is_1_and_writes_no_model(
        self, workspace, tmp_path, monkeypatch
    ):
        import fectek.autograd as ag
        import fectek.trainer as trainer

        def inf_gradient_loss(model, triples, *, enable_term=True):
            # Finite loss metrics, and a backward that puts inf into one
            # gradient entry.
            scale = np.zeros(model.params["weight_head.weight"].data.shape)
            scale[0] = np.inf
            loss = ref.reduce_sum(ag.mul(model.params["weight_head.weight"], Tensor(scale)))
            return loss, {"total_loss": 0.0, "text_loss": 0.0, "term_loss": 0.0}

        monkeypatch.setattr(trainer, "batch_loss", inf_gradient_loss)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            "train",
            "--triples", str(workspace["triples"]),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(out_dir),
            *TINY_ENCODER,
            "--epochs", "1",
        )
        assert code == 1
        assert "non-finite gradient norm" in err
        assert not (out_dir / "model.ftck").exists()

    def test_vocab_mismatch_is_4(self, workspace, tmp_path):
        other_corpus = tmp_path / "corpus.tsv"
        other_corpus.write_text("d1\tcompletely different words here\n")
        other_vocab = tmp_path / "vocab.txt"
        code, _, _ = run_cli(
            "build-vocab", "--corpus", str(other_corpus), "--out", str(other_vocab)
        )
        assert code == 0
        code, _, err = run_cli(
            "encode",
            "--checkpoint", str(workspace["checkpoint"]),
            "--vocab", str(other_vocab),
            "--corpus", str(workspace["corpus"]),
            "--out", str(tmp_path / "w.jsonl"),
        )
        assert code == 4
        assert "vocabulary" in err


class TestGradcheckCommand:
    def test_subsampled_run_exits_zero(self):
        code, out, _ = run_cli("gradcheck", "--max-coords", "2")
        assert code == 0
        assert "gradcheck passed" in out
        assert "max_rel_err" in out

    def test_corrupt_hook_exits_one_naming_offender(self, corrupt_gradient):
        corrupt_gradient("feature_gate.excite.weight")
        code, out, err = run_cli("gradcheck", "--max-coords", "2")
        assert code == 1
        assert "gradcheck FAILED: feature_gate.excite.weight" in err

    @pytest.mark.parametrize("flag, value", [("--max-coords", "0"), ("--max-coords", "-3")])
    def test_bad_setting_is_2_and_never_passes(self, flag, value):
        code, out, err = run_cli("gradcheck", "--max-coords", "1", f"{flag}={value}")
        assert code == 2
        assert "passed" not in out
        assert f"error: {flag[2:].replace('-', ' ')}" in err

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "1"), ("--eps", "1e-4"), ("--tolerance", "1")]
    )
    def test_contract_constants_are_not_flags(self, flag, value):
        # The seed, step and tolerance are the contract's, not settings.
        code, out, err = run_cli("gradcheck", "--max-coords", "1", flag, value)
        assert code == 2
        assert "passed" not in out
        assert f"unrecognized arguments: {flag} {value}" in err


class TestSynthCommand:
    def test_writes_dataset(self, tmp_path):
        code, out, _ = run_cli(
            "synth",
            "--out-dir", str(tmp_path),
            "--passages", "30",
            "--terms", "45",
            "--queries", "10",
            "--negatives", "3",
        )
        assert code == 0
        for name in ("corpus.tsv", "queries.tsv", "qrels.tsv", "triples.jsonl"):
            assert (tmp_path / name).exists(), name
        assert len((tmp_path / "corpus.tsv").read_text().splitlines()) == 30

    def test_invalid_config_is_2(self, tmp_path):
        code, _, _ = run_cli(
            "synth",
            "--out-dir", str(tmp_path),
            "--passages", "5",
            "--queries", "10",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--queries", "-1"], "queries"),
            (["--queries", "0"], "queries"),
            (["--negatives", "-2"], "negatives"),
            (["--passages", "0", "--queries", "0", "--negatives", "-1"], "passages"),
            (["--terms", "2", "--queries", "1"], "terms"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_out_of_range_count_is_2_and_writes_nothing(self, tmp_path, flags, field):
        out_dir = tmp_path / "data"
        code, _, err = run_cli("synth", "--out-dir", str(out_dir), *flags)
        assert code == 2
        assert f"error: {field} must be at least" in err
        assert not out_dir.exists()


    def test_more_terms_than_pseudo_words_is_2_and_writes_nothing(self, tmp_path):
        out_dir = tmp_path / "data"
        code, _, err = run_cli("synth", "--out-dir", str(out_dir), "--terms", "7226")
        assert code == 2
        assert "error: terms must be at most 7225" in err
        assert not out_dir.exists()

    def test_entry_points_run_as_programs(self, tmp_path):
        # `python -m fectek` and `python -m fectek.cli` in a fresh interpreter:
        # each passes `main`'s code to `sys.exit`.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run(module, *argv):
            return subprocess.run(
                [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True,
                timeout=120,
            )

        done = run(
            "fectek", "synth", "--out-dir", str(tmp_path), "--passages", "8", "--terms", "12",
            "--queries", "3", "--negatives", "2",
        )
        assert done.returncode == 0, done.stderr
        files = ("corpus.tsv", "queries.tsv", "qrels.tsv", "triples.jsonl")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        for module in ("fectek", "fectek.cli"):
            done = run(module, "frobnicate")
            assert done.returncode == 2
            assert "invalid choice: 'frobnicate'" in done.stderr


class TestAblationCommand:
    def test_grid_runs_and_tabulates(self, tmp_path):
        data_dir = tmp_path / "data"
        code, _, _ = run_cli(
            "synth",
            "--out-dir", str(data_dir),
            "--passages", "24",
            "--terms", "45",
            "--queries", "8",
            "--negatives", "3",
        )
        assert code == 0
        out_dir = tmp_path / "ablation"
        code, out, err = run_cli(
            "ablation",
            "--data-dir", str(data_dir),
            "--out-dir", str(out_dir),
            *TINY_ENCODER,
            "--epochs", "1",
            "--batch-queries", "4",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0].split() == ["config", "FCM", "TKGM", "MRR@10"]
        table_rows = lines[2:6]
        assert [r.split()[0] for r in table_rows] == [
            "baseline",
            "+feature-gate",
            "+term-guidance",
            "full",
        ]
        # ablation.txt holds the printed table without its separator.
        assert (out_dir / "ablation.txt").read_text().splitlines() == [lines[0], *lines[2:6]]
        # README's example table has the printed header, separator and row names.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"fectek ablation .*?```\n\n```\n(.*?)```", readme, flags=re.S)
        example = example.group(1).splitlines()
        assert example[:2] == lines[:2]
        assert [r.split()[0] for r in example[2:]] == [name for name, *_ in _ABLATION_GRID]
        report = json.loads((out_dir / "ablation.json").read_text())
        assert [row["config"] for row in report] == [
            "baseline",
            "+feature-gate",
            "+term-guidance",
            "full",
        ]
        assert [(row["fcm"], row["tkgm"]) for row in report] == [
            (False, False),
            (True, False),
            (False, True),
            (True, True),
        ]
        for row in report:
            assert 0.0 <= row["mrr@10"] <= 1.0
            assert_float32_values(out_dir / row["config"].replace("+", "with-") / "model.ftck")

    @pytest.mark.parametrize("flag", ["--no-fcm", "--no-tkgm"])
    def test_module_switch_is_2(self, tmp_path, flag):
        # The grid switches both modules itself; a switch would be ignored.
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            "ablation", "--data-dir", str(tmp_path), "--out-dir", str(out_dir), flag
        )
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err
        assert not out_dir.exists()

    def test_missing_dataset_file_is_3(self, tmp_path):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            "ablation",
            "--data-dir", str(tmp_path),
            "--out-dir", str(out_dir),
        )
        assert code == 3
        assert str(tmp_path / "corpus.tsv") in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "name, content, code, message",
        [
            ("corpus.tsv", None, 3, "No such file or directory: '{path}'"),
            ("triples.jsonl", None, 3, "No such file or directory: '{path}'"),
            ("queries.tsv", None, 3, "No such file or directory: '{path}'"),
            ("qrels.tsv", None, 3, "No such file or directory: '{path}'"),
            ("corpus.tsv", "d1 has no tab\n", 4, "{path}:1: expected '<id>\\t<text>'"),
            ("triples.jsonl", "{\n", 4, "{path}:1: invalid JSON"),
            ("queries.tsv", "q1 has no tab\n", 4, "{path}:1: expected '<id>\\t<text>'"),
            ("qrels.tsv", "q1 0 d1\n", 4, "{path}:1: expected 'qid 0 docid relevance'"),
            ("corpus.tsv", "d1\t!!! ...\n", 4, "{path}: no token occurs at least 1 times"),
        ],
        ids=[
            "missing-corpus", "missing-triples", "missing-queries", "missing-qrels",
            "bad-corpus", "bad-triples", "bad-queries", "bad-qrels", "corpus-without-words",
        ],
    )
    def test_bad_dataset_leaves_no_out_dir(
        self, workspace, tmp_path, name, content, code, message
    ):
        data = tmp_path / "data"
        data.mkdir()
        for key, file in [
            ("corpus", "corpus.tsv"),
            ("triples", "triples.jsonl"),
            ("queries", "queries.tsv"),
            ("qrels", "qrels.tsv"),
        ]:
            (data / file).write_bytes(workspace[key].read_bytes())
        path = data / name
        if content is None:
            path.unlink()
        else:
            path.write_text(content)
        out_dir = tmp_path / "out"
        got, _, err = run_cli(
            "ablation", "--data-dir", str(data), "--out-dir", str(out_dir), *TINY_ENCODER
        )
        assert got == code
        assert message.format(path=path) in err
        assert not out_dir.exists()


def field_names(*classes):
    return {f.name for cls in classes for f in fields(cls)}


def subcommands():
    parser = build_parser()
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def flag_dests(command):
    return {a.dest for a in subcommands()[command]._actions} - {"help"}


# Every setting flag of `train`, each at a value that is not its default.
NON_DEFAULT_SETTINGS = {
    "dim": (["--dim", "8"], 8),
    "layers": (["--layers", "3"], 3),
    "heads": (["--heads", "4"], 4),
    "ffn_multiplier": (["--ffn-multiplier", "3"], 3),
    "max_query_len": (["--max-query-len", "10"], 10),
    "max_passage_len": (["--max-passage-len", "20"], 20),
    "epochs": (["--epochs", "1"], 1),
    "batch_queries": (["--batch-queries", "2"], 2),
    "max_negatives": (["--negatives", "1"], 1),
    "peak_lr": (["--lr", "0.002"], 0.002),
    "warmup_ratio": (["--warmup-ratio", "0.2"], 0.2),
    "weight_decay": (["--weight-decay", "0.02"], 0.02),
    "clip_norm": (["--clip-norm", "0.5"], 0.5),
    "seed": (["--seed", "7"], 7),
    "enable_term_loss": (["--no-tkgm"], False),
    "use_feature_gate": (["--no-fcm"], False),
}
# The two settings whose header key is not their field name.
HEADER_KEYS = {"enable_term_loss": "term_guidance", "use_feature_gate": "feature_gate"}


class TestFlagsMatchConfigs:
    """Each setting is a config field named by one flag's dest, so no flag can
    be parsed and then ignored."""

    def test_each_command_has_exactly_the_flags_of_its_configs(self):
        settings = field_names(EncoderConfig, TrainerConfig)
        assert flag_dests("train") == settings | {
            "use_feature_gate",
            "triples", "vocab", "out_dir", "init_checkpoint",
        }
        assert flag_dests("ablation") == (settings - {"enable_term_loss"}) | {
            "data_dir", "out_dir",
        }
        assert flag_dests("synth") == field_names(SynthConfig) | {"out_dir"}
        assert flag_dests("gradcheck") == {"max_coords"}

    def test_no_flag_is_hidden(self):
        # A flag left out of --help is a test hook users cannot see.
        for command, parser in subcommands().items():
            for action in parser._actions:
                assert action.help != argparse.SUPPRESS, (command, action.dest)

    def test_every_setting_flag_reaches_the_header(self, workspace, tmp_path):
        assert set(NON_DEFAULT_SETTINGS) == flag_dests("train") - {
            "triples", "vocab", "out_dir", "init_checkpoint",
        }
        defaults = {
            f.name: f.default for cls in (EncoderConfig, TrainerConfig) for f in fields(cls)
        }
        defaults["use_feature_gate"] = (
            inspect.signature(FecTekModel).parameters["use_feature_gate"].default
        )
        argv = []
        for name, (flags, value) in NON_DEFAULT_SETTINGS.items():
            assert value != defaults[name], name
            argv.extend(flags)
        out = tmp_path / "run"
        code, _, err = run_cli(
            "train",
            "--triples", str(workspace["triples"]),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(out),
            *argv,
        )
        assert code == 0, err
        header = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])["config"]
        for name, (_, value) in NON_DEFAULT_SETTINGS.items():
            assert header[HEADER_KEYS.get(name, name)] == value, name
        model = load_model(out / "model.ftck")
        assert model.use_feature_gate is False
        for f in fields(EncoderConfig):
            assert getattr(model.config, f.name) == NON_DEFAULT_SETTINGS[f.name][1], f.name


def run_cli_quietly(*argv):
    """`run_cli`, failing on any warning the command emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(*argv)
    assert not caught, [str(w.message) for w in caught]
    return result


def overflow_checkpoint(source, path, entry):
    """Write `source` with `entry` scaled so its largest magnitude is the
    float32 maximum: it loads, but a forward pass cannot carry it."""
    entries = load_tensors(source)
    array = entries[entry]
    array /= np.abs(array).max()
    array *= np.finfo(np.float32).max
    save_tensors(path, entries)


class TestFloat32Overflow:
    """A checkpoint whose values float32 cannot carry through a forward pass
    stops the command: encode, search and train --init-checkpoint exit 4.

    The gate's sigmoid saturates instead of overflowing, so a gate entry
    overflows only in its own products, which the pooled state of a short
    text drives past the range; `encode` weighs the queries for that reason.
    """

    @pytest.mark.parametrize(
        "entry",
        [
            "embeddings.token",
            "layers.0.attn.value.weight",
            "layers.0.ffn.expand.weight",
            "layers.0.norm1.gain",
            "feature_gate.squeeze.weight",
            "weight_head.weight",
        ],
        ids=["embeddings", "attention", "ffn", "norms", "gate", "heads"],
    )
    @pytest.mark.parametrize("command", ["encode", "search", "train"])
    def test_overflowing_entry_is_4_and_writes_nothing(self, workspace, tmp_path, command, entry):
        broken = tmp_path / "broken.ftck"
        overflow_checkpoint(workspace["checkpoint"], broken, entry)
        out = tmp_path / "out"
        args = {
            "encode": ("--checkpoint", str(broken), "--corpus", str(workspace["queries"])),
            "search": (
                "--checkpoint", str(broken),
                "--index", str(workspace["index"]),
                "--queries", str(workspace["queries"]),
            ),
            "train": ("--init-checkpoint", str(broken), "--triples", str(workspace["triples"])),
        }[command]
        out_flag = "--out-dir" if command == "train" else "--out"
        code, _, err = run_cli_quietly(
            command, "--vocab", str(workspace["vocab"]), *args, out_flag, str(out)
        )
        assert code == 4, err
        assert f"error: {broken}: overflow encountered" in err
        assert "beyond float32" in err
        if command == "train":  # the run directory holds its log's header, no model
            assert not list(out.glob("*.ftck"))
        else:
            assert not out.exists()

    def test_run_that_diverges_later_is_1(self, workspace, tmp_path):
        # The first update at this rate moves every parameter by about 1e30,
        # so the second step's forward pass overflows.
        out = tmp_path / "run"
        code, _, err = run_cli_quietly(
            "train",
            "--triples", str(workspace["triples"]),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(out),
            *TINY_ENCODER,
            "--epochs", "1",
            "--batch-queries", "2",
            "--warmup-ratio", "0",
            "--lr", "1e30",
        )
        assert code == 1, err
        assert "error: overflow encountered" in err
        assert "in the forward pass of a training step" in err
        assert not list(out.glob("*.ftck"))

    def test_scaled_values_encode_finite_weights_or_exit_4(self, workspace, tmp_path):
        # One random parameter value scaled by 10^k, 1 <= k <= 38, and held
        # within float32's range as a checkpoint must hold it.
        rng = np.random.default_rng(15)
        names = [n for n in load_tensors(workspace["checkpoint"]) if not n.startswith("config.")]
        largest = float(np.finfo(np.float32).max)
        codes = []
        for case in range(48):
            entries = load_tensors(workspace["checkpoint"])
            values = entries[names[rng.integers(len(names))]].reshape(-1)
            i = rng.integers(values.size)
            scaled = float(values[i]) * 10.0 ** int(rng.integers(1, 39))
            values[i] = min(max(scaled, -largest), largest)
            broken, out = tmp_path / f"scaled{case}.ftck", tmp_path / f"weights{case}.jsonl"
            save_tensors(broken, entries)
            code, _, err = run_cli_quietly(
                "encode",
                "--checkpoint", str(broken),
                "--vocab", str(workspace["vocab"]),
                "--corpus", str(workspace["corpus"]),
                "--out", str(out),
            )
            codes.append(code)
            if code == 0:
                rows = [json.loads(line) for line in out.read_text().splitlines()]
                assert len(rows) == len(CORPUS_ROWS)
                assert all(math.isfinite(w) for row in rows for w in row["weights"].values())
            else:
                assert code == 4, err
                assert f"error: {broken}: overflow encountered" in err
                assert not out.exists()
        assert 0 in codes and 4 in codes, codes
