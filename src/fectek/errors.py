"""Exception types shared across the package, and the text-file opener."""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO


class FecTekError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(FecTekError, ValueError):
    """Tensor shapes incompatible with the requested operation."""


class DataFormatError(FecTekError):
    """Malformed input data: corpus, triples, qrels, or weight streams."""


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """`open(path, encoding="utf-8")` whose decoding errors name the file and line.

    Valid files are read exactly as `open` reads them; only after a failure
    are the raw bytes decoded again to find the first bad byte.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # Universal newlines: "\r\n", "\r" and "\n" each end a line.
                before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                line = before.count(b"\n") + 1
                raise DataFormatError(f"{path}:{line}: {exc}") from exc
            raise


class CorruptFileError(FecTekError):
    """A binary artifact (checkpoint, index) failed structural validation."""


class TrainingDivergedError(FecTekError):
    """Training produced a non-finite loss."""
