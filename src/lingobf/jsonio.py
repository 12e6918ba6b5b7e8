"""The one JSON codec for every JSON file lingobf reads or writes.

Artifacts are UTF-8 with ``ensure_ascii=False`` and sorted keys.  A JSON
document is indented by 2 and ends in LF; a JSON-lines file holds one
compact object per LF-terminated line.  Readers refuse the wrong JSON type
and raise ``ValueError`` naming the file and, for JSON lines, the line.

Every artifact is written through :func:`atomic_writer`, so it appears
whole or not at all, and JSON-lines files are streamed one record at a
time in both directions: no writer or reader holds a whole file as text.
A reader ends a line at LF, CRLF or a lone CR, and nowhere else.

Both fast paths keep the stdlib's bytes and errors.  An indented document
comes from :func:`_indented`, byte for byte what ``json.dumps(...,
indent=2)`` gives, since the stdlib runs any ``indent`` in pure Python.  A
line or document is decoded by one call of the stdlib's scanner; text that
is not one value plus trailing whitespace (leading whitespace, a BOM,
extra data, a syntax error) is decoded again by ``json.loads``, whose
value or error is the one returned.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

_T = TypeVar("_T")

_scan_once = json.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match
_encode_str = json.encoder.encode_basestring


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


def _indented(value, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it ``indent`` deep into a document.

    Spells out exact ``str`` and ``int`` values, lists, tuples and dicts
    with ``str`` keys; anything else (floats, bools, None, other keys,
    subclasses) is ``json.dumps``'s text with each of its line breaks
    indented, since a JSON text has a raw LF only between its lines.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_indented(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        items = [_encode_str(key) + ": " + _indented(value[key], inner) for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    text = json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + indent)


def _write_indented(write, value, indent: str, depth: int) -> None:
    """``_indented(value, indent)`` through ``write``, the top ``depth`` levels an item at a time.

    So no text of a whole document, nor of one of its top-level items (a
    manifest's 800 maps, say), is ever held in memory.
    """
    kind = type(value)
    if depth and value and (kind is list or kind is tuple):
        open_, close, items = "[", "]", [("", item) for item in value]
    elif depth and value and kind is dict and all(type(key) is str for key in value):
        open_, close = "{", "}"
        items = [(_encode_str(key) + ": ", value[key]) for key in sorted(value)]
    else:
        write(_indented(value, indent))
        return
    inner = indent + "  "
    head = open_ + "\n" + inner
    for prefix, item in items:
        write(head + prefix)
        _write_indented(write, item, inner, depth - 1)
        head = ",\n" + inner
    write("\n" + indent + close)


def write_json(path: str | Path, payload) -> None:
    """``payload`` as an indented document, written a second-level item at a time."""
    with atomic_writer(path) as fh:
        _write_indented(fh.write, payload, "", 2)
        fh.write("\n")


def write_lines(path: str | Path, payloads: Iterable) -> int:
    """Write each payload as one JSON-lines record as it arrives; returns the count."""
    count = 0
    with atomic_writer(path) as fh:
        for payload in payloads:
            fh.write(dumps(payload) + "\n")
            count += 1
    return count


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               dict: "an object", type(None): "null"}


def check_types(record: dict, kinds: tuple[type, ...], *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``names`` in ``record`` of none of ``kinds``.

    Types match exactly, but an integer is also a number (``float``); a
    boolean is neither.  A field that ``record`` lacks is left to the
    decoder, which names it as missing.
    """
    for name in names:
        value = record.get(name)
        if name not in record or type(value) in kinds or type(value) is int and float in kinds:
            continue
        expected = " or ".join(_TYPE_NAMES[kind] for kind in kinds)
        raise ValueError(f"{name} is {dumps(value)}, not {expected}")


# What a decode may raise; _named turns each into a ValueError naming the text's source.
_DECODE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def _decode(text: str, decode: Callable[..., _T], kind: type) -> _T:
    try:
        data, end = _scan_once(text, 0)
        # What json.loads allows after the value: a document's final LF, say.
        exact = end == len(text) or _skip_space(text, end).end() == len(text)
    except (StopIteration, ValueError):
        exact = False
    if not exact:
        data = json.loads(text)
    if not isinstance(data, kind):
        expected = "an object" if kind is dict else "a list"
        raise ValueError(f"record is a JSON {type(data).__name__}, not {expected}")
    return decode(data)


def _named(where: str | Path, exc: Exception) -> ValueError:
    if isinstance(exc, KeyError):
        return ValueError(f"{where}: record lacks field {exc}")
    return ValueError(f"{where}: {exc}")


def decode_json(where: str | Path, text: str, decode: Callable[..., _T], kind: type = dict) -> _T:
    """``decode`` of the JSON ``kind`` (``dict`` or ``list``) in ``text``.

    Invalid JSON, another JSON type, or a missing or mistyped field that
    ``decode`` meets raises ``ValueError`` naming ``where``.
    """
    try:
        return _decode(text, decode, kind)
    except _DECODE_ERRORS as exc:
        raise _named(where, exc) from None


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
                    try:
                        records.append(_decode(text, decode, dict))
                    except _DECODE_ERRORS as exc:
                        raise _named(f"{path}: line {lineno}", exc) from None
    except UnicodeDecodeError as exc:
        # Strict decoding fails before the line that holds the bad bytes is
        # read.  An incomplete character at the end of the file is the last
        # line cut short, line lineno + 1; other bad bytes lie at or after it.
        if exc.reason != "unexpected end of data":
            raise ValueError(f"{path}: line {lineno + 1} or later: {exc}") from None
        if not torn_tail:
            raise ValueError(f"{path}: line {lineno + 1}: {exc}") from None
    return records
