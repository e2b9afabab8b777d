"""Shared file-format helpers: float rendering, metadata headers, CSV reading.

Every file the pipeline writes starts with a metadata comment block holding
the tool version and the options of the command that wrote it as a single
JSON object, so any output can be traced back to the invocation that
produced it.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

VERSION = "0.1.0"

VERSION_KEY = "ripsbars-version"
CONFIG_KEY = "ripsbars-config"
BARCODE_META_KEY = "barcode-meta"


class ParseError(ValueError):
    """Malformed input file; carries path and line number context."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message


def fmt(x: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    return format(float(x), ".17g")


def fmt_array(values: np.ndarray, spec: str = ".17g") -> np.ndarray:
    """``format(x, spec)`` of every entry of the float64 array ``values``, as
    an object array of the same shape.  Each distinct value is formatted once,
    told apart by bit pattern, so -0.0 keeps its sign."""
    values = np.asarray(values, dtype=np.float64)
    bits, index = np.unique(values.ravel().view(np.int64), return_inverse=True)
    text = np.array([format(x, spec) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[index].reshape(values.shape)


def metadata_lines(config: Optional[Dict[str, Any]], comment: str = "#") -> List[str]:
    """Build the metadata comment block placed at the top of output files."""
    lines = [f"{comment} {VERSION_KEY} {VERSION}"]
    if config is not None:
        blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
        lines.append(f"{comment} {CONFIG_KEY} {blob}")
    return lines


def parse_metadata(path: str, lines: List[str]) -> Dict[str, Any]:
    """Parse the leading ``#`` comment block of a file read from ``path``.

    Returns the keys present among ``version`` (str), ``config`` (the run
    configuration object), ``metric`` (str), ``labels`` (tuple of str) and
    ``barcode-meta`` (object), plus ``lines``: the line number of each of
    them, for error messages.  The block ends at the first line that is
    neither blank nor a comment; blank lines inside it are skipped, as
    :func:`data_lines` skips them.  Malformed JSON raises :class:`ParseError`
    at its own line; unknown comment lines are ignored.
    """
    meta: Dict[str, Any] = {}
    at: Dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        if not text.startswith("#"):
            break
        key, _, value = text.lstrip("#").strip().partition(" ")
        name = {VERSION_KEY: "version", CONFIG_KEY: "config"}.get(key, key)
        if name in ("version", "metric"):
            meta[name] = value.strip()
        elif name == "labels":
            meta[name] = tuple(value.split(","))
        elif name in ("config", BARCODE_META_KEY):
            try:
                blob = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ParseError(path, lineno, f"bad {key} JSON: {exc}") from None
            if not isinstance(blob, dict):
                raise ParseError(path, lineno, f"{key} must be a JSON object")
            meta[name] = blob
        else:
            continue
        at[name] = lineno
    meta["lines"] = at
    return meta


def read_lines(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def data_lines(lines: List[str]) -> Iterator[Tuple[int, str]]:
    """Yield (1-based line number, text) for non-comment, non-blank lines."""
    for i, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        yield i, text


def parse_float(path: str, line: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, line, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line, f"non-finite value: {token!r}")
    return value


def write_text(path: str, lines: Iterable[str]) -> None:
    """Write ``lines``, each followed by a newline.  They are written one by
    one, not joined first, so a large output is held twice at most: as the
    caller's text and as the encoded bytes of its longest line.  ``lines``
    may be an iterator that makes each line as it is read."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
