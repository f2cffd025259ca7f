"""Whitespace/punctuation tokenizer and the id vocabulary built on top of it.

Tokens are lowercased alphanumeric runs; punctuation acts purely as a
separator and never survives into the token stream ("state-of-the-art"
tokenizes to ["state", "of", "the", "art"]).  Ids 0..3 are reserved for the
special tokens, so the first corpus token always gets id 4.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

from .errors import DataFormatError, open_text

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"

RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)
SPECIAL_IDS = frozenset((PAD_ID, UNK_ID, CLS_ID, SEP_ID))

# Alphanumeric runs, underscore excluded (it separates like punctuation).
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

_HEADER_RE = re.compile(r"^#fectek-vocab v1 min_freq=(\d+)$")


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and return its alphanumeric runs, in order."""
    return _WORD_RE.findall(text.lower())


class Vocabulary:
    """Immutable token-to-id mapping with four reserved leading ids."""

    def __init__(self, tokens: list[str], min_freq: int = 1):
        for t in tokens:
            if t in RESERVED_TOKENS:
                raise DataFormatError(f"reserved token {t!r} cannot enter the vocabulary")
        self.min_freq = int(min_freq)
        self._id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self._token_to_id: dict[str, int] = {
            t: i for i, t in enumerate(self._id_to_token)
        }
        if len(self._token_to_id) != len(self._id_to_token):
            raise DataFormatError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def lookup(self, token: str) -> int:
        """Id for `token`, or UNK_ID when out of vocabulary."""
        return self._token_to_id.get(token, UNK_ID)

    @classmethod
    def build(cls, texts: Iterable[str], min_freq: int = 1) -> "Vocabulary":
        """Count tokens over `texts` and keep those seen at least `min_freq`
        times, ordered by descending frequency then alphabetically."""
        if min_freq < 0:
            raise ValueError(f"min_freq cannot be negative, got {min_freq}")
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(tokenize(text))
        kept = [t for t, c in counts.items() if c >= min_freq]
        kept.sort(key=lambda t: (-counts[t], t))
        return cls(kept, min_freq=min_freq)

    def encode(self, text: str, max_len: int) -> list[int]:
        """[CLS] + token ids + [SEP], truncated so the result fits `max_len`."""
        if max_len < 3:
            raise ValueError(f"max_len must be at least 3, got {max_len}")
        ids = [self.lookup(t) for t in tokenize(text)]
        return [CLS_ID] + ids[: max_len - 2] + [SEP_ID]

    def save(self, path: str | Path) -> None:
        lines = [f"#fectek-vocab v1 min_freq={self.min_freq}"]
        lines.extend(self._id_to_token[len(RESERVED_TOKENS) :])
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        with open_text(path) as fh:
            raw = fh.read().splitlines()
        if not raw:
            raise DataFormatError(f"{path}: empty vocabulary file")
        m = _HEADER_RE.match(raw[0])
        if m is None:
            raise DataFormatError(f"{path}: bad vocabulary header {raw[0]!r}")
        tokens = []
        for lineno, line in enumerate(raw[1:], start=2):
            if not line:
                raise DataFormatError(f"{path}:{lineno}: blank vocabulary line")
            tokens.append(line)
        return cls(tokens, min_freq=int(m.group(1)))


def vocabulary_coverage(vocab: Vocabulary, texts: Iterable[str]) -> float:
    """Fraction of token occurrences in `texts` that are in-vocabulary."""
    total = 0
    kept = 0
    for text in texts:
        for token in tokenize(text):
            total += 1
            if token in vocab:
                kept += 1
    return kept / total if total else 0.0
