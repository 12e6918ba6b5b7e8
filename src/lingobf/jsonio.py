"""The one JSON codec for every JSON file lingobf reads or writes.

Artifacts are UTF-8 with ``ensure_ascii=False`` and sorted keys.  A JSON
document is indented by 2 and ends in LF; a JSON-lines file holds one
compact object per LF-terminated line.  Readers refuse the wrong JSON type
and raise ``ValueError`` naming the file and, for JSON lines, the line.

Every artifact is written through :func:`atomic_writer`, so it appears
whole or not at all, and JSON-lines files are streamed one record at a
time in both directions: no writer or reader holds a whole file as text.
A reader ends a line at LF, CRLF or a lone CR, and nowhere else.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

_T = TypeVar("_T")


def dumps(payload) -> str:
    """``payload`` as one compact JSON-lines record, without its LF."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def encode_lines(payloads: Iterable) -> str:
    return "".join(dumps(payload) + "\n" for payload in payloads)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` once the block succeeds.

    The handle writes a temporary file beside ``path``, opened as a plain
    write opens a file, so the new file gets the same permissions.  On
    success ``os.replace`` moves it over ``path``; on any exception it is
    deleted and ``path`` keeps its old bytes, or stays absent.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    with atomic_writer(path) as fh:
        fh.write(text)


def write_lines(path: str | Path, payloads: Iterable) -> int:
    """Write each payload as one JSON-lines record as it arrives; returns the count."""
    count = 0
    with atomic_writer(path) as fh:
        for payload in payloads:
            fh.write(dumps(payload) + "\n")
            count += 1
    return count


def decode_json(where: str | Path, text: str, decode: Callable[..., _T], kind: type = dict) -> _T:
    """``decode`` of the JSON ``kind`` (``dict`` or ``list``) in ``text``.

    Invalid JSON, another JSON type, or a missing or mistyped field that
    ``decode`` meets raises ``ValueError`` naming ``where``.
    """
    try:
        data = json.loads(text)
        if not isinstance(data, kind):
            expected = "an object" if kind is dict else "a list"
            raise ValueError(f"record is a JSON {type(data).__name__}, not {expected}")
        return decode(data)
    except KeyError as exc:
        raise ValueError(f"{where}: record lacks field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_json(path: str | Path, decode: Callable[..., _T], kind: type = dict) -> _T:
    return decode_json(path, Path(path).read_text(encoding="utf-8"), decode, kind)


def read_lines(path: Path, decode: Callable[[dict], _T], *, torn_tail: bool = False) -> list[_T]:
    """``decode_json`` of every non-blank line of the JSON-lines file ``path``.

    The file is read a line at a time with universal newlines: a line ends
    at LF, CRLF or a lone CR, never where ``str.splitlines`` would also
    split, since ``dumps`` leaves U+2028, U+0085 and the like raw inside
    strings.  With ``torn_tail`` the text after the last line end, the torn
    tail of an interrupted append, is skipped, even when it was cut inside
    a character.  An error names the file and the 1-based line.
    """
    records = []
    lineno = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.removesuffix("\n")
                if torn_tail and text == line:
                    break
                if text.strip():
                    records.append(decode_json(f"{path}: line {lineno}", text, decode))
    except UnicodeDecodeError as exc:
        # Strict decoding fails before the line that holds the bad bytes is
        # read.  An incomplete character at the end of the file is the last
        # line cut short, line lineno + 1; other bad bytes lie at or after it.
        if exc.reason != "unexpected end of data":
            raise ValueError(f"{path}: line {lineno + 1} or later: {exc}") from None
        if not torn_tail:
            raise ValueError(f"{path}: line {lineno + 1}: {exc}") from None
    return records
