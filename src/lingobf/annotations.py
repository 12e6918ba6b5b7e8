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

Segments store their *source* text verbatim, so parsing is lossless: the
segments' texts, each wrapped in its kind's marker, concatenate to the
source byte-for-byte.  Corpora whose plain text legitimately contains a
marker triple must escape it as ``\\$$$`` / ``\\&&&`` / ``\\@@@``; the
backslash survives in the stored segment text and is dropped only on
render.  A backslash directly before a triple always escapes it
(``_TOKEN`` is the one statement of that rule).  Normalization is an
ingest concern (loaders NFC-normalize file content before parsing), not a
parser one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

MARKERS = ("$$$", "&&&", "@@@")
_ESCAPE = "\\"
_MARKER = "|".join(re.escape(marker) for marker in MARKERS)
# The grammar's one lexical rule: a backslash directly before a triple
# escapes it (group 1); any other triple is a bare marker (group 2).  At
# each position the escaped form is tried first.
_TOKEN = re.compile(rf"{re.escape(_ESCAPE)}({_MARKER})|({_MARKER})")


class MarkerError(ValueError):
    """Unbalanced or nested annotation markers."""

    def __init__(self, message: str, *, char_offset: int, text: str):
        self.char_offset = char_offset
        self.byte_offset = len(text[:char_offset].encode("utf-8"))
        super().__init__(f"{message} at offset {self.byte_offset}")


@dataclass(frozen=True)
class _Segment:
    text: str  # source form, escapes kept verbatim

    def __post_init__(self):
        for m in _TOKEN.finditer(self.text):
            if m[2]:
                raise ValueError(f"segment text contains an unescaped marker: {m[2]}")


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
    return _TOKEN.sub(lambda m: m[1] or m[2], text)


def parse(text: str) -> AnnotatedDocument:
    segments: list[Segment] = []
    open_marker: str | None = None
    open_pos = start = 0
    for m in _TOKEN.finditer(text):
        marker = m[2]
        if marker is None:
            continue  # escaped: stays in the segment text verbatim
        if open_marker is None:
            if m.start() > start:
                segments.append(PlainText(text[start : m.start()]))
            open_marker, open_pos = marker, m.start()
        elif marker == open_marker:
            segments.append(_OPENERS[open_marker](text[start : m.start()]))
            open_marker = None
        else:
            raise MarkerError(
                f"nested marker {marker} inside {open_marker} span",
                char_offset=m.start(),
                text=text,
            )
        start = m.end()

    if open_marker is not None:
        raise MarkerError(f"unbalanced marker {open_marker}", char_offset=open_pos, text=text)
    if start < len(text):
        segments.append(PlainText(text[start:]))
    return AnnotatedDocument(segments=tuple(segments))


def render(doc: AnnotatedDocument) -> str:
    """Plain text with markers stripped.

    Name tags emit their replacement text, removed context collapses to a
    single space, and escaped marker triples lose their backslash.
    Obfuscated rendering is ``obfuscate.CompiledTexts``.
    """
    return "".join(
        " " if isinstance(seg, RemovedContext) else unescape(seg.text) for seg in doc.segments
    )
