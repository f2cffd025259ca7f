"""Exception types shared across the package, and its file readers and writer."""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable, Iterator
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
    """`open(path, encoding="utf-8-sig")`, whose decoding errors name the file and line.

    A leading byte-order mark is skipped; the rest is read exactly as `open`
    reads it.  Only after a failure are the raw bytes decoded again to find
    the first bad byte.
    """
    with open(path, encoding="utf-8-sig") as fh:
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


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of `path`."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line := line.strip():
                yield lineno, line


def json_rows(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, decoded value) for each non-blank line of a JSONL file."""
    for lineno, line in numbered_lines(path):
        try:
            row = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
            raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        yield lineno, row


def write_file(path: str | Path, chunks: Iterable[str | bytes | memoryview]) -> None:
    """Write `chunks` (str as UTF-8, or bytes-like) to a temporary sibling
    `.<name>.<pid>.tmp`, then `os.replace` it onto `path`; on any exception
    delete it and re-raise, an OSError naming `path` as `open(path)` would.
    No fsync: an existing `path` survives a failing or killed command, not a power loss."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # never made, or its directory is missing
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


class CorruptFileError(FecTekError):
    """A binary artifact (checkpoint, index) failed structural validation."""


class TrainingDivergedError(FecTekError):
    """Training produced a non-finite loss."""
