"""End-to-end acceptance checks, each at its stated tolerance.

Every test prints one `ACCEPTANCE <name>: PASS/FAIL (...)` summary line
before asserting, so `pytest tests/test_acceptance.py -v -s` doubles as the
acceptance report.  The synthetic retrieval pipeline (data generation,
training, encoding, indexing, search) runs once and is shared by the
end-to-end quality check and the index-exactness check.  It trains, encodes
and searches in float32, as the commands do; the last test, which is not an
acceptance check, compares that with float64 inference of the same weights.
"""

import math
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import fectek.autograd as ag
from fectek.autograd import Tensor
from fectek.cli import main
from fectek.encoder import EncoderConfig
from fectek.errors import FecTekError
from fectek.evaluation import mrr_at_k
from fectek.gradcheck import EPS, SEED, TOLERANCE, run_gradient_check
from fectek.index import (
    InvertedIndex,
    SearchHit,
    quantization_step,
    quantize_value,
    quantize_weights,
    search,
)
from fectek.model import (
    EncodedTriple,
    FecTekModel,
    batch_loss,
    load_model,
    new_model,
    save_model,
)
from fectek.synth import SynthConfig, generate
from fectek.tokenizer import Vocabulary
from fectek.trainer import TrainerConfig, TrainingTriple, train

# The training curve on the synthetic corpus reaches MRR@10 = 1.0 after the
# first epoch; three epochs leave margin while staying far inside the wall
# budget (the full 10-epoch run measures ~22 s on one CPU core).
PIPELINE_EPOCHS = 3
MRR_FLOOR = 0.9
EPOCH_BUDGET = 10
WALL_BUDGET_SECONDS = 600.0


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# -- shared synthetic pipeline -------------------------------------------------


@dataclass
class Pipeline:
    mrr: float
    epochs: int
    wall_seconds: float
    index: InvertedIndex
    query_weights: dict[str, dict[int, float]]
    hits: dict[str, list[SearchHit]]
    float64_index: InvertedIndex
    float64_hits: dict[str, list[SearchHit]]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Pipeline:
    started = time.perf_counter()
    data = generate(SynthConfig(passages=1000, terms=300, queries=100))
    vocab = Vocabulary.build([text for _, text in data.corpus])
    triples = [
        TrainingTriple(t["query"], t["positive"], t["negatives"])
        for t in data.triples
    ]
    config = EncoderConfig()
    model = new_model(len(vocab), config, seed=42)  # feature gate on
    trainer_config = TrainerConfig(
        epochs=PIPELINE_EPOCHS, batch_queries=4, seed=42
    )  # term-guidance loss on
    final = train(model, triples, vocab, trainer_config, tmp_path_factory.mktemp("synth-run"))

    def serve(model):
        passages = model.weigh([vocab.encode(t, config.max_passage_len) for _, t in data.corpus])
        stream = ((docid, w, w.values()) for (docid, _), w in zip(data.corpus, passages))
        index = InvertedIndex.build(stream, len(vocab))
        queries = model.weigh([vocab.encode(t, config.max_query_len) for _, t in data.queries])
        query_weights = {qid: weights for (qid, _), weights in zip(data.queries, queries)}
        hits = {qid: search(index, weights, 10) for qid, weights in query_weights.items()}
        return index, query_weights, hits

    # The model trains and infers in float32; the reference pass weighs a
    # loaded copy of the same weights upcast to float64.
    model64 = load_model(final)
    for p in model64.params.values():
        assert p.data.dtype == np.float32
        p.data = p.data.astype(np.float64)
    index64, _, hits64 = serve(model64)
    index, query_weights, hits = serve(model)

    run = {qid: [(h.docid, h.value) for h in hs] for qid, hs in hits.items()}
    qrels = {qid: {docid} for qid, docid in data.qrels}
    mrr = mrr_at_k(run, qrels, k=10)
    wall = time.perf_counter() - started
    return Pipeline(mrr, PIPELINE_EPOCHS, wall, index, query_weights, hits, index64, hits64)


# -- 1. gradient oracle ---------------------------------------------------------


def test_gradient_oracle_every_parameter():
    assert EPS == 1e-3
    assert TOLERANCE == 1e-4
    assert SEED == 42
    started = time.perf_counter()
    result = run_gradient_check()
    elapsed = time.perf_counter() - started
    live = all(group.checked > 0 for group in result.groups)
    ok = result.passed and live and elapsed < 60.0
    report(
        "gradient-oracle",
        ok,
        f"{len(result.groups)} parameter groups, worst rel err "
        f"{result.worst:.3e} vs 1e-4, {elapsed:.1f}s of 60s",
    )
    failing = [g.name for g in result.groups if g.max_error > TOLERANCE]
    assert result.passed, f"groups over tolerance: {failing}"
    assert live, "some parameter group was never probed"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# -- 2. loss identity at a zeroed weight head ------------------------------------


def test_text_loss_is_log16_with_zeroed_weight_head():
    words = [
        "amber", "birch", "cedar", "delta", "ember",
        "fjord", "grove", "heath", "inlet", "juniper",
    ]
    vocab = Vocabulary.build([" ".join(words)])
    config = EncoderConfig(
        dim=16, layers=1, heads=2, ffn_multiplier=2,
        max_query_len=8, max_passage_len=12,
    )
    model = new_model(len(vocab), config, seed=7)
    # A zeroed weight head maps every term weight through log1p(relu(0)) = 0,
    # so all 16 candidate scores are exactly 0 and the softmax is uniform.
    model.params["weight_head.weight"].data[:] = 0.0
    model.params["weight_head.bias"].data = np.zeros_like(model.params["weight_head.bias"].data)

    rng = np.random.default_rng(5)

    def text_ids(size: int, limit: int):
        return vocab.encode(" ".join(rng.choice(words, size=size, replace=False)), limit)

    triple = EncodedTriple(
        text_ids(4, config.max_query_len),
        text_ids(6, config.max_passage_len),
        [text_ids(6, config.max_passage_len) for _ in range(15)],
    )
    _, metrics = batch_loss(model, [triple], enable_term=False)
    loss = metrics["text_loss"]

    expected = math.log(16.0)
    ok = abs(loss - expected) <= 1e-6 and abs(loss - 2.7725887) <= 1e-6
    report(
        "uniform-loss-at-init",
        ok,
        f"1+15 candidates, loss {loss:.9f} vs ln 16 = {expected:.7f} +/- 1e-6",
    )
    assert abs(loss - expected) <= 1e-6
    assert abs(loss - 2.7725887) <= 1e-6


# -- 3. synthetic end to end ------------------------------------------------------


def test_synthetic_end_to_end_quality(pipeline):
    ok = (
        pipeline.mrr >= MRR_FLOOR
        and pipeline.epochs <= EPOCH_BUDGET
        and pipeline.wall_seconds <= WALL_BUDGET_SECONDS
    )
    report(
        "synthetic-end-to-end",
        ok,
        f"MRR@10 {pipeline.mrr:.4f} vs floor {MRR_FLOOR}, "
        f"{pipeline.epochs} epochs of {EPOCH_BUDGET}, "
        f"{pipeline.wall_seconds:.0f}s of {WALL_BUDGET_SECONDS:.0f}s",
    )
    assert pipeline.mrr >= MRR_FLOOR
    assert pipeline.epochs <= EPOCH_BUDGET
    assert pipeline.wall_seconds <= WALL_BUDGET_SECONDS


# -- 4. index exactness ------------------------------------------------------------


def dense_top10(index: InvertedIndex, query_weights: dict[int, float]):
    """Reference ranking: dense integer accumulation, same quantization."""
    if not query_weights:
        return []
    qstep = quantization_step(max(query_weights.values()))
    qimp = quantize_weights(query_weights, qstep)
    scores = np.zeros(index.doc_count, dtype=np.int64)
    for term, qi in qimp.items():
        if 0 <= term < index.vocab_size:
            span = slice(index.offsets[term], index.offsets[term + 1])
            scores[index.ordinals[span]] += qi * index.impacts[span]
    ranked = sorted(
        (o for o in range(index.doc_count) if scores[o] > 0),
        key=lambda o: (-scores[o], o),
    )
    return [(index.docids[o], int(scores[o])) for o in ranked[:10]]


def test_index_matches_dense_oracle_exactly(pipeline):
    mismatched = []
    for qid, weights in pipeline.query_weights.items():
        expected = dense_top10(pipeline.index, weights)
        got = [(h.docid, h.score) for h in pipeline.hits[qid]]
        if got != expected:  # ordered compare covers ids, ranks, and scores
            mismatched.append(qid)
    ok = not mismatched
    report(
        "index-exactness",
        ok,
        f"{len(pipeline.query_weights) - len(mismatched)}/"
        f"{len(pipeline.query_weights)} queries identical to the dense "
        f"oracle (ids, ranks, integer scores), zero tolerance",
    )
    assert not mismatched, f"queries diverging from the dense oracle: {mismatched}"


# -- 5. quantization -----------------------------------------------------------------


def test_quantization_bound_and_ranking_agreement():
    rng = np.random.default_rng(987)
    weights = rng.uniform(0.0, 12.7, size=10_000)
    max_w = float(weights.max())
    step = quantization_step(max_w)
    worst = max(
        abs(quantize_value(float(w), step) * step - float(w))
        for w in weights
    )
    bound = (max_w / 255.0) / 2.0 + 1e-12

    # One query against 1000 random documents quantized with a single global
    # scale, exactly as the index stores them.  Walking the documents in
    # quantized-float order must list the integer scores in descending
    # order: the two rankings agree except within exact integer ties.
    terms = 40
    query = {
        int(t): float(rng.uniform(0.5, 3.0))
        for t in rng.choice(terms, size=8, replace=False)
    }
    docs = []
    for _ in range(1000):
        chosen = rng.choice(terms, size=6, replace=False)
        docs.append({int(t): float(rng.uniform(0.0, 9.0)) for t in chosen})
    doc_step = quantization_step(max(max(d.values()) for d in docs))
    query_step = quantization_step(max(query.values()))
    query_impacts = quantize_weights(query, query_step)

    int_scores = []
    float_scores = []
    for doc in docs:
        doc_impacts = quantize_weights(doc, doc_step)
        int_scores.append(
            sum(qi * doc_impacts.get(t, 0) for t, qi in query_impacts.items())
        )
        float_scores.append(
            sum(
                (qi * query_step) * (doc_impacts.get(t, 0) * doc_step)
                for t, qi in query_impacts.items()
            )
        )
    by_float = sorted(range(len(docs)), key=lambda i: (-float_scores[i], i))
    ints_in_float_order = [int_scores[i] for i in by_float]
    rankings_agree = ints_in_float_order == sorted(int_scores, reverse=True)

    ok = worst <= bound and rankings_agree
    report(
        "quantization",
        ok,
        f"max dequantization error {worst:.3e} vs bound {bound:.3e} over 10k "
        f"weights; integer vs quantized-float ranking agree on 1000 pairs: "
        f"{rankings_agree}",
    )
    assert worst <= bound
    assert rankings_agree


# -- 6. guidance loss identities -------------------------------------------------------


def test_guidance_loss_identity_and_monotonicity():
    rng = np.random.default_rng(31)
    labels = (rng.random(24) < 0.5).astype(np.float64)
    mask = np.ones(24, dtype=bool)
    mask[[0, 5, 23]] = False

    at_half = ag.binary_cross_entropy(
        Tensor(np.full(24, 0.5)), labels, mask
    ).item()
    identity_ok = abs(at_half - math.log(2.0)) <= 1e-9

    losses = []
    for t in np.linspace(0.0, 0.96, 13):
        probs = 0.5 + t * (labels - 0.5)
        losses.append(ag.binary_cross_entropy(Tensor(probs), labels, mask).item())
    monotone_ok = all(b < a for a, b in zip(losses, losses[1:]))

    ok = identity_ok and monotone_ok
    report(
        "guidance-loss",
        ok,
        f"loss at p=0.5 is {at_half:.12f} vs ln 2 +/- 1e-9 per masked "
        f"position; strictly decreasing along 13 steps toward the labels: "
        f"{monotone_ok}",
    )
    assert identity_ok
    assert monotone_ok


# -- 7. persistence and fault injection ---------------------------------------------


def build_small_model() -> tuple[FecTekModel, Vocabulary, EncoderConfig]:
    words = "quartz onyx jade opal beryl topaz agate flint slate coral".split()
    vocab = Vocabulary.build([" ".join(words)])
    config = EncoderConfig(
        dim=16, layers=1, heads=2, ffn_multiplier=2,
        max_query_len=8, max_passage_len=12,
    )
    return new_model(len(vocab), config, seed=11), vocab, config


def build_small_index() -> InvertedIndex:
    rng = np.random.default_rng(64)
    rows = []
    for d in range(30):
        chosen = rng.choice(20, size=6, replace=False)
        weights = [float(rng.uniform(0.1, 5.0)) for _ in chosen]
        rows.append((f"doc{d:03d}", chosen.tolist(), weights))
    return InvertedIndex.build(rows, 20)


def survives_corruption(blob: bytes, load, path: Path) -> tuple[int, list[str]]:
    """Attempt loads of corrupted variants; only FecTekError (or a clean
    parse, for benign payload flips) is acceptable.  Returns (attempts,
    descriptions of any other exception)."""
    crashes: list[str] = []
    attempts = 0

    flip_stride = max(1, len(blob) // 400)
    for offset in range(0, len(blob), flip_stride):
        mutated = bytearray(blob)
        mutated[offset] ^= 0xFF
        path.write_bytes(bytes(mutated))
        attempts += 1
        try:
            load(path)
        except FecTekError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point is to catch all
            crashes.append(f"flip@{offset}: {type(exc).__name__}: {exc}")

    cut_stride = max(1, len(blob) // 50)
    for cut in range(0, len(blob), cut_stride):
        path.write_bytes(blob[:cut])
        attempts += 1
        try:
            load(path)
            crashes.append(f"truncate@{cut}: parsed a proper prefix")
        except FecTekError:
            pass
        except Exception as exc:  # noqa: BLE001
            crashes.append(f"truncate@{cut}: {type(exc).__name__}: {exc}")

    return attempts, crashes


def test_persistence_round_trips_and_corruption(tmp_path):
    # Checkpoint: save -> load -> save reproduces identical bytes, and the
    # reloaded model produces bit-identical term weights.
    model, vocab, config = build_small_model()
    first = tmp_path / "model-a.ftck"
    second = tmp_path / "model-b.ftck"
    save_model(model, first)
    reloaded = load_model(first)
    save_model(reloaded, second)
    checkpoint_ok = first.read_bytes() == second.read_bytes()

    probe_ids = vocab.encode("jade opal quartz", config.max_passage_len)
    with ag.no_grad():
        original_weights = model.term_weights(model.encode_ids(probe_ids)).as_dict()
        reloaded_weights = reloaded.term_weights(
            reloaded.encode_ids(probe_ids)
        ).as_dict()
    checkpoint_ok = checkpoint_ok and original_weights == reloaded_weights

    # Index: identical bytes after a round trip, identical search results.
    index = build_small_index()
    index_first = tmp_path / "index-a.idx"
    index_second = tmp_path / "index-b.idx"
    index.save(index_first)
    index_reloaded = InvertedIndex.load(index_first)
    index_reloaded.save(index_second)
    index_ok = index_first.read_bytes() == index_second.read_bytes()
    probe_query = {2: 1.5, 7: 0.8, 11: 2.0}
    index_ok = index_ok and search(index, probe_query, 5) == search(
        index_reloaded, probe_query, 5
    )

    # Fault injection: byte flips and truncations must surface as structured
    # errors from the package's own hierarchy, never as a raw crash.
    ckpt_attempts, ckpt_crashes = survives_corruption(
        first.read_bytes(), load_model, tmp_path / "model-hurt.ftck"
    )
    idx_attempts, idx_crashes = survives_corruption(
        index_first.read_bytes(), InvertedIndex.load, tmp_path / "index-hurt.idx"
    )

    ok = checkpoint_ok and index_ok and not ckpt_crashes and not idx_crashes
    report(
        "persistence",
        ok,
        f"checkpoint and index round-trips bit-exact: "
        f"{checkpoint_ok and index_ok}; corruption sweeps "
        f"({ckpt_attempts}+{idx_attempts} variants) raised only structured "
        f"errors: {not ckpt_crashes and not idx_crashes}",
    )
    assert checkpoint_ok, "checkpoint round trip is not bit-exact"
    assert index_ok, "index round trip is not bit-exact"
    assert not ckpt_crashes, ckpt_crashes[:5]
    assert not idx_crashes, idx_crashes[:5]


# -- 8. ablation harness -----------------------------------------------------------


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


def test_ablation_grid_completes_and_tabulates(tmp_path):
    data_dir = tmp_path / "data"
    code, _, err = run_cli(
        "synth",
        "--out-dir", str(data_dir),
        "--passages", "24",
        "--terms", "45",
        "--queries", "8",
        "--negatives", "3",
    )
    assert code == 0, err

    out_dir = tmp_path / "grid"
    code, out, err = run_cli(
        "ablation",
        "--data-dir", str(data_dir),
        "--out-dir", str(out_dir),
        "--dim", "16",
        "--layers", "1",
        "--heads", "2",
        "--ffn-multiplier", "2",
        "--max-query-len", "12",
        "--max-passage-len", "24",
        "--epochs", "1",
        "--batch-queries", "4",
    )
    completed = code == 0
    lines = out.splitlines()
    table_ok = (
        completed
        and lines[0].split() == ["config", "FCM", "TKGM", "MRR@10"]
        and [row.split()[0] for row in lines[2:6]]
        == ["baseline", "+feature-gate", "+term-guidance", "full"]
        and (out_dir / "ablation.txt").exists()
        and (out_dir / "ablation.json").exists()
    )
    ok = completed and table_ok
    report(
        "ablation-grid",
        ok,
        f"4-configuration grid exit code {code}, table emitted with rows "
        f"baseline/+feature-gate/+term-guidance/full: {table_ok}",
    )
    assert completed, err
    assert table_ok


# -- float32 inference against float64 inference of the same weights -----------------

# Impacts of the float32 pipeline that differ from the float64 ones, measured.
FLOAT32_MOVED_IMPACTS = 0


def impacts(index: InvertedIndex) -> dict[tuple[int, int], int]:
    """(ordinal, term) -> impact of every posting."""
    terms = np.repeat(np.arange(index.vocab_size), np.diff(index.offsets))
    return dict(zip(zip(index.ordinals.tolist(), terms.tolist()), index.impacts.tolist()))


def test_float32_inference_moves_impacts_by_at_most_one(pipeline):
    weights = [w for row in pipeline.query_weights.values() for w in row.values()]
    assert all(float(np.float32(w)) == w for w in weights)  # float32 arithmetic
    float32, float64 = impacts(pipeline.index), impacts(pipeline.float64_index)
    assert float32.keys() == float64.keys()
    moves = Counter(float32[key] - float64[key] for key in float64)
    assert set(moves) <= {-1, 0, 1}, moves
    assert len(float64) - moves[0] == FLOAT32_MOVED_IMPACTS
    for qid, hits in pipeline.hits.items():
        assert [h.docid for h in hits] == [h.docid for h in pipeline.float64_hits[qid]], qid
