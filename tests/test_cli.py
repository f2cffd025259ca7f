"""Command-line surface: the full pipeline, determinism, and exit codes."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fectek.cli import main

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

    def test_evaluate_prints_metrics(self, workspace):
        code, out, _ = run_cli(
            "evaluate",
            "--run", str(workspace["run_file"]),
            "--qrels", str(workspace["qrels"]),
        )
        assert code == 0
        assert out.startswith("MRR@10=")
        assert "Recall@100=" in out

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

    def test_bad_choice_is_2(self, workspace):
        code, _, _ = run_cli(
            "train",
            "--triples", str(workspace["triples"]),
            "--vocab", str(workspace["vocab"]),
            "--out-dir", str(workspace["root"] / "x"),
            "--aggregation", "median",
        )
        assert code == 2

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
        assert "term 7" in err
        assert not out.exists()

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

    def test_corrupt_hook_exits_one_naming_offender(self):
        code, out, err = run_cli(
            "gradcheck",
            "--max-coords", "2",
            "--corrupt-group", "feature_gate.excite.weight",
        )
        assert code == 1
        assert "gradcheck FAILED: feature_gate.excite.weight" in err

    def test_unknown_group_is_usage_error(self):
        code, _, _ = run_cli(
            "gradcheck", "--max-coords", "1", "--corrupt-group", "bogus"
        )
        assert code == 2


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
        assert (out_dir / "ablation.txt").exists()
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

    def test_missing_dataset_file_is_3(self, tmp_path):
        code, _, err = run_cli(
            "ablation",
            "--data-dir", str(tmp_path),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 3
        assert "missing dataset file" in err
