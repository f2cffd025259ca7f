"""Learned sparse retrieval: contextual term weights over an inverted index.

A single encoder tower produces per-term impact weights for queries and
passages; ranking is an exact sparse dot product served from an 8-bit
quantized inverted index.  Training combines a contrastive text-level loss
with term-level occurrence guidance.
"""

from .autograd import Tensor, no_grad
from .encoder import ContextEncoder, EncodedBatch, EncoderConfig
from .evaluation import mrr_at_k, recall_at_k
from .index import InvertedIndex, SearchHit, search
from .model import (
    FecTekModel,
    TermWeights,
    indicator_labels,
    load_model,
    match_score,
    save_model,
)
from .tokenizer import Vocabulary, tokenize
from .trainer import AdamW, TrainerConfig, TrainingTriple, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "ContextEncoder",
    "EncodedBatch",
    "EncoderConfig",
    "FecTekModel",
    "InvertedIndex",
    "SearchHit",
    "Tensor",
    "TermWeights",
    "TrainerConfig",
    "TrainingTriple",
    "Vocabulary",
    "indicator_labels",
    "load_model",
    "match_score",
    "mrr_at_k",
    "no_grad",
    "recall_at_k",
    "save_model",
    "search",
    "tokenize",
    "train",
]
