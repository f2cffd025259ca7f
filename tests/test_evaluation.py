"""Run/qrels parsing and ranking metrics against hand-computed values."""

import pytest

from fectek.errors import DataFormatError
from fectek.evaluation import load_qrels, load_run, mrr_at_k, recall_at_k, write_run


@pytest.fixture
def hand_case():
    """Three queries: hit at rank 1, hit at rank 4, and a complete miss."""
    run = {
        "q1": [("d1", 9.0), ("d2", 8.0)],
        "q2": [("d9", 5.0), ("d8", 4.0), ("d7", 3.0), ("d2", 2.0)],
        "q3": [("d5", 1.0)],
    }
    qrels = {"q1": {"d1"}, "q2": {"d2"}, "q3": {"d6"}}
    return run, qrels


class TestMRR:
    def test_hand_computed_value(self, hand_case):
        run, qrels = hand_case
        assert mrr_at_k(run, qrels, k=10) == pytest.approx((1.0 + 0.25 + 0.0) / 3)

    def test_cutoff_hides_deep_hits(self, hand_case):
        run, qrels = hand_case
        assert mrr_at_k(run, qrels, k=3) == pytest.approx(1.0 / 3)

    def test_query_missing_from_run_scores_zero(self):
        qrels = {"q1": {"d1"}, "q2": {"d2"}}
        run = {"q1": [("d1", 1.0)]}
        assert mrr_at_k(run, qrels) == pytest.approx(0.5)

    def test_only_first_relevant_counts(self):
        run = {"q1": [("d2", 3.0), ("d1", 2.0), ("d3", 1.0)]}
        qrels = {"q1": {"d1", "d3"}}
        assert mrr_at_k(run, qrels) == pytest.approx(0.5)

    def test_perfect_run(self):
        run = {"q1": [("d1", 1.0)], "q2": [("d2", 1.0)]}
        qrels = {"q1": {"d1"}, "q2": {"d2"}}
        assert mrr_at_k(run, qrels) == 1.0

    def test_empty_qrels_rejected(self):
        with pytest.raises(DataFormatError):
            mrr_at_k({}, {})

    def test_nonpositive_k_rejected(self, hand_case):
        run, qrels = hand_case
        with pytest.raises(ValueError):
            mrr_at_k(run, qrels, k=0)


class TestRecall:
    def test_hand_computed_value(self, hand_case):
        run, qrels = hand_case
        assert recall_at_k(run, qrels, k=100) == pytest.approx(2.0 / 3)

    def test_partial_recall_within_query(self):
        run = {"q1": [("d1", 2.0), ("d9", 1.0)]}
        qrels = {"q1": {"d1", "d2"}}
        assert recall_at_k(run, qrels, k=10) == pytest.approx(0.5)

    def test_cutoff_applies(self):
        run = {"q1": [("d9", 2.0), ("d1", 1.0)]}
        qrels = {"q1": {"d1"}}
        assert recall_at_k(run, qrels, k=1) == 0.0
        assert recall_at_k(run, qrels, k=2) == 1.0


class TestQrelsFile:
    def test_parses_and_keeps_positive_rows(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\nq2 0 d3 2\n\n")
        qrels = load_qrels(path)
        assert qrels == {"q1": {"d1"}, "q2": {"d3"}}

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1 0 d1 1\nq2 d3 1\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_qrels(path)

    def test_non_utf8_byte_names_line_across_newline_styles(self, tmp_path):
        # "\r\n", "\r" and "\n" each end one line, as when the file is iterated.
        path = tmp_path / "qrels.tsv"
        path.write_bytes(b"q1 0 d1 1\r\nq2 0 d2 1\rq3 0 d3 1\nq4 0 d\xe94 1\n")
        with pytest.raises(DataFormatError, match=r"qrels.tsv:4: .*can't decode byte 0xe9"):
            load_qrels(path)

    def test_non_integer_relevance_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1 0 d1 yes\n")
        with pytest.raises(DataFormatError, match="relevance"):
            load_qrels(path)

    def test_all_negative_rows_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1 0 d1 0\n")
        with pytest.raises(DataFormatError, match="no positive"):
            load_qrels(path)


class TestRunFile:
    def test_round_trip_preserves_metrics(self, tmp_path, hand_case):
        run, qrels = hand_case
        path = tmp_path / "run.tsv"
        write_run(run, "testtag", path)
        reloaded = load_run(path)
        assert mrr_at_k(reloaded, qrels) == mrr_at_k(run, qrels)
        assert recall_at_k(reloaded, qrels) == recall_at_k(run, qrels)
        assert reloaded == {
            qid: [(d, float(s)) for d, s in hits] for qid, hits in run.items()
        }

    def test_row_format(self, tmp_path):
        path = tmp_path / "run.tsv"
        write_run({"q1": [("d1", 1.5)]}, "mytag", path)
        assert path.read_text() == "q1 Q0 d1 1 1.5 mytag\n"

    def test_scores_survive_repr_round_trip_exactly(self, tmp_path):
        scores = [0.1 + 0.2, 1e-17, 123456.789012345]
        run = {"q1": [(f"d{i}", s) for i, s in enumerate(scores)]}
        path = tmp_path / "run.tsv"
        write_run(run, "t", path)
        reloaded = load_run(path)
        assert [s for _, s in reloaded["q1"]] == scores

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1 Q0 d1 1 1.0\n")
        with pytest.raises(DataFormatError, match="expected"):
            load_run(path)

    def test_bad_rank_rejected(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1 Q0 d1 first 1.0 tag\n")
        with pytest.raises(DataFormatError, match="bad rank or score"):
            load_run(path)

    def test_non_contiguous_ranks_rejected(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1 Q0 d1 1 2.0 tag\nq1 Q0 d2 3 1.0 tag\n")
        with pytest.raises(DataFormatError, match="not 1..k"):
            load_run(path)

    def test_out_of_order_rows_are_resorted(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1 Q0 d2 2 1.0 tag\nq1 Q0 d1 1 2.0 tag\n")
        run = load_run(path)
        assert [d for d, _ in run["q1"]] == ["d1", "d2"]
