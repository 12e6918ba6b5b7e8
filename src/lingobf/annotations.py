"""The three-marker annotation grammar and its lossless document model.

Problem text is annotated with triples of reserved characters:

* ``$$$...$$$``  a language/place-name tag; the replacement text
  ("Language X") is stored inside the tag and emitted on render;
* ``&&&...&&&``  removed cultural context; renders as a single space;
* ``@@@...@@@``  a Problemese span; the only text obfuscation touches.

Parsing scans left to right: the first unconsumed triple of a kind opens
a span, the next identical triple closes it.  A different marker kind
inside an open span, or an opener with no closer, is a parse error
carrying the byte offset.  Spans never nest.

Segments store their *source* text verbatim, so serialization is exact
concatenation and round trips byte-for-byte.  Corpora whose plain text
legitimately contains a marker triple must escape it as ``\\$$$`` /
``\\&&&`` / ``\\@@@``; the backslash survives in the stored segment text
and is dropped only on render.  Normalization is an ingest concern
(loaders NFC-normalize file content before parsing), not a parser one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

MARKERS = ("$$$", "&&&", "@@@")
_ESCAPE = "\\"


class MarkerError(ValueError):
    """Unbalanced or nested annotation markers."""

    def __init__(self, message: str, *, char_offset: int, text: str):
        self.char_offset = char_offset
        self.byte_offset = len(text[:char_offset].encode("utf-8"))
        super().__init__(f"{message} at offset {self.byte_offset}")


def _check_no_bare_marker(text: str) -> None:
    if not any(marker in text for marker in MARKERS):
        return
    i = 0
    while i < len(text):
        if text[i] == _ESCAPE and text[i + 1 : i + 4] in MARKERS:
            i += 4
        elif text[i : i + 3] in MARKERS:
            raise ValueError(f"segment text contains an unescaped marker: {text[i:i+3]}")
        else:
            i += 1


@dataclass(frozen=True)
class _Segment:
    text: str  # source form, escapes kept verbatim

    def __post_init__(self):
        _check_no_bare_marker(self.text)


class PlainText(_Segment):
    pass


class NameTag(_Segment):
    """Replacement already applied; the tag stores e.g. "Language X"."""


class RemovedContext(_Segment):
    """Dropped metadata; the source text is kept only for round trips."""


class ProblemeseSpan(_Segment):
    pass


Segment = Union[PlainText, NameTag, RemovedContext, ProblemeseSpan]

_OPENERS = {"$$$": NameTag, "&&&": RemovedContext, "@@@": ProblemeseSpan}


@dataclass(frozen=True)
class AnnotatedDocument:
    segments: tuple[Segment, ...]

    @property
    def problemese_spans(self) -> tuple[ProblemeseSpan, ...]:
        return tuple(s for s in self.segments if isinstance(s, ProblemeseSpan))


def unescape(text: str) -> str:
    """Drop the backslash of every escaped marker triple."""
    if _ESCAPE not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        if text[i] == _ESCAPE and text[i + 1 : i + 4] in MARKERS:
            out.append(text[i + 1 : i + 4])
            i += 4
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def escape_markers(text: str) -> str:
    """Escape every bare marker triple so the text survives a parse."""
    out = []
    i = 0
    while i < len(text):
        if text[i] == _ESCAPE and text[i + 1 : i + 4] in MARKERS:
            out.append(text[i : i + 4])
            i += 4
        elif text[i : i + 3] in MARKERS:
            out.append(_ESCAPE + text[i : i + 3])
            i += 3
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def parse(text: str) -> AnnotatedDocument:
    segments: list[Segment] = []
    buf: list[str] = []
    open_marker: str | None = None
    open_pos = 0
    i = 0

    def flush_plain() -> None:
        if buf:
            segments.append(PlainText("".join(buf)))
            buf.clear()

    while i < len(text):
        if text[i] == _ESCAPE and text[i + 1 : i + 4] in MARKERS:
            buf.append(text[i : i + 4])
            i += 4
            continue
        head = text[i : i + 3]
        if head in MARKERS:
            if open_marker is None:
                flush_plain()
                open_marker, open_pos = head, i
            elif head == open_marker:
                segments.append(_OPENERS[open_marker]("".join(buf)))
                buf.clear()
                open_marker = None
            else:
                raise MarkerError(
                    f"nested marker {head} inside {open_marker} span",
                    char_offset=i,
                    text=text,
                )
            i += 3
        else:
            buf.append(text[i])
            i += 1

    if open_marker is not None:
        raise MarkerError(f"unbalanced marker {open_marker}", char_offset=open_pos, text=text)
    flush_plain()
    return AnnotatedDocument(segments=tuple(segments))


_CLOSERS = {NameTag: "$$$", RemovedContext: "&&&", ProblemeseSpan: "@@@"}


def serialize(doc: AnnotatedDocument) -> str:
    """Exact inverse of parse: markers re-wrapped around verbatim source text."""
    out = []
    for seg in doc.segments:
        marker = _CLOSERS.get(type(seg), "")
        out.append(f"{marker}{seg.text}{marker}")
    return "".join(out)


def render(doc: AnnotatedDocument) -> str:
    """Plain text with markers stripped.

    Name tags emit their replacement text, removed context collapses to a
    single space, and escaped marker triples lose their backslash.
    Obfuscated rendering is ``obfuscate.CompiledTexts``.
    """
    return "".join(
        " " if isinstance(seg, RemovedContext) else unescape(seg.text) for seg in doc.segments
    )
