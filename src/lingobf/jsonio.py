"""The one JSON codec for every JSON file lingobf reads or writes.

Artifacts are UTF-8 with ``ensure_ascii=False`` and sorted keys.  A JSON
document is indented by 2 and ends in LF; a JSON-lines file holds one
compact object per LF-terminated line.  Readers refuse the wrong JSON type
and raise ``ValueError`` naming the file and, for JSON lines, the line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")


def dumps(payload) -> str:
    """``payload`` as one compact JSON-lines record, without its LF."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def encode_lines(payloads: Iterable) -> str:
    return "".join(dumps(payload) + "\n" for payload in payloads)


def write_json(path: str | Path, payload) -> None:
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


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

    The text is split on LF only, never with ``str.splitlines``: ``dumps``
    leaves U+2028 and the like raw inside strings.  With ``torn_tail`` the
    text after the last LF, the torn tail of an interrupted append, is
    skipped.  An error names the file and the 1-based line.
    """
    lines = path.read_text(encoding="utf-8").split("\n")
    if torn_tail:
        lines.pop()
    return [
        decode_json(f"{path}: line {lineno}", line, decode)
        for lineno, line in enumerate(lines, 1)
        if line.strip()
    ]
