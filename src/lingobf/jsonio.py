"""The one JSON codec for every JSON file lingobf reads or writes.

Artifacts are UTF-8 with ``ensure_ascii=False`` and sorted keys.  A JSON
document is indented by 2 and ends in LF; a JSON-lines file holds one
compact object per LF-terminated line.  Readers refuse the wrong JSON type
and raise ``ValueError`` naming the file and, for JSON lines, the line.

Every artifact is written through :func:`atomic_writer`, so it appears
whole or not at all, and JSON-lines files are streamed one record at a
time in both directions: no writer or reader holds a whole file as text.
A reader ends a line at LF, CRLF or a lone CR, and nowhere else.

A record is a dataclass, and :func:`codec` derives its ``from_dict`` and
``to_dict`` from its field annotations, so its layout is stated once, by
its class.  A record with a missing or mistyped leaf is refused by the
leaf's JSON path: ``FILE: line N: subquestions[2].text is 7, not a string``.

Both fast paths keep the stdlib's bytes and errors.  An indented document
comes from :func:`_indented`, byte for byte what ``json.dumps(...,
indent=2)`` gives, since the stdlib runs any ``indent`` in pure Python.  A
line or document is decoded by one call of the stdlib's scanner; text that
is not one value plus trailing whitespace (leading whitespace, a BOM,
extra data, a syntax error) is decoded again by ``json.loads``, whose
value or error is the one returned.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
import typing
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import MISSING
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, TextIO, TypeVar

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


class Member(NamedTuple):
    """A field's JSON member ``key``, and a ``json_type`` that ``decode`` and ``encode`` map."""

    key: str | None = None
    json_type: Any = None
    decode: Callable | None = None
    encode: Callable | None = None


_SCALARS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}
# The Python types of a JSON value of each kind: an integer is also a number.
_EXACT = {str: [str], int: [int], float: [float, int], bool: [bool], tuple: [list], dict: [dict]}
_Slot = namedtuple("_Slot", "name key node default decode encode")


def _node(tp, nullable: bool = False) -> tuple:
    """``tp`` as (kind, argument, nullable); kind is a scalar, tuple, dict, a ``_Plan`` or Union.

    A Union's argument is its two nodes, of two JSON kinds, ordered scalar,
    list, object: an encoder tells a value of the first by its Python type.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if len(args) == 2 and type(None) in args:
            return _node(args[args[0] is type(None)], True)
        either = sorted(
            (_node(arg) for arg in args if arg is not type(None)),
            key=lambda node: (node[0] not in _SCALARS, node[0] is not tuple),
        )
        kinds = [set(_EXACT.get(node[0], [dict])) for node in either]
        if len(kinds) == len(args) == 2 and not kinds[0] & kinds[1]:
            return (typing.Union, tuple(either), nullable)
        raise TypeError(f"no JSON layout for {tp!r}: not two JSON kinds, nor one and None")
    if tp in _SCALARS or tp is dict:
        return (tp, None, nullable)
    if origin is tuple and args[1:] == (...,) or origin is dict and args[0] is str:
        return (origin, _node(args[-2 if origin is tuple else 1]), nullable)
    if dataclasses.is_dataclass(tp) or typing.is_typeddict(tp):
        return (tp.__dict__.get("_json_plan") or _Plan(tp, {}, False), None, nullable)
    raise TypeError(f"no JSON layout for {tp!r}")


class _Plan:
    """A record type's JSON members: a dataclass's fields (a TypedDict's keys) and constants."""

    def __init__(self, cls: type, overrides: dict, closed: bool):
        hints, self.constants = typing.get_type_hints(cls), dict(overrides)
        self.cls = cls if dataclasses.is_dataclass(cls) else None  # a TypedDict stays a dict
        fields = {f.name: f for f in dataclasses.fields(cls)} if self.cls else {}
        self.closed, self.slots = closed, []
        for name in fields or hints:
            member, f = self.constants.pop(name, Member()), fields.get(name, dataclasses.field())
            default = f.default_factory if f.default is MISSING else lambda v=f.default: v
            self.slots.append(_Slot(
                name, member.key or name, _node(member.json_type or hints[name]),
                None if default is MISSING else default, member.decode, member.encode,
            ))
        if any(isinstance(value, Member) for value in self.constants.values()):
            raise TypeError(f"{cls.__name__} has no field among {sorted(self.constants)}")
        self.keys = {slot.key for slot in self.slots} | self.constants.keys()


class _Code:
    """The source of one function, and the values its names stand for.

    A decoder fetches a record's members, then checks its leaves in field
    order.  A leaf's path is the body of an f-string in the ``raise`` that
    refuses it, so no path is built for a record that is taken.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.env: dict[str, Any] = {"MISSING": MISSING, "dumps": dumps}

    def name(self, value=None) -> str:
        name = f"v{len(self.env)}"
        self.env[name] = value
        return name

    def add(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def decode(self, node: tuple, src: str, depth: int, path: str) -> str:
        """Lines that check ``src``, the JSON value at ``path``; return its decoding."""
        kind, arg, nullable = node
        if nullable:
            self.add(depth, f"if {src} is not None:")
            depth += 1
        kinds = [k for k, _, _ in arg] if kind is typing.Union else [kind]
        test = " and ".join(
            f"type({src}) is not {t.__name__}" for k in kinds for t in _EXACT.get(k, [dict])
        )
        expected = " or ".join(
            _SCALARS.get(k) or ("a list" if k is tuple else "an object") for k in kinds
        )
        shown = f"{path or 'record'} is {{dumps({src})}}, not {expected}{' or null' * nullable}"
        self.add(depth, f"if {test}: raise ValueError(f'{shown}')")
        if kind is typing.Union:
            value = self.name()
            first = " or ".join(f"type({src}) is {t.__name__}" for t in _EXACT[kinds[0]])
            for head, each in ((f"if {first}:", arg[0]), ("else:", arg[1])):
                self.add(depth, head)
                start = len(self.lines)
                self.add(depth + 1, f"{value} = {self.decode(each, src, depth + 1, path)}")
                del self.lines[start]  # its type check: the test above has passed
        elif isinstance(kind, _Plan):
            value = self.record(kind, src, depth, f"{path}." if path else "")
        elif arg is None:
            value = src
        else:
            key, item, out, start = self.name(), self.name(), self.name(), len(self.lines)
            seq = kind is tuple
            items, at = (f"enumerate({src})", key) if seq else (f"{src}.items()", f"dumps({key})")
            self.add(depth, f"for {key}, {item} in {items}:")
            each = self.decode(arg, item, depth + 1, f"{path}[{{{at}}}]")
            self.add(depth + 1, f"{out}.append({each})" if seq else f"{out}[{key}] = {each}")
            if each == item:  # each item is its own decoding: keep the JSON value
                del self.lines[start if len(self.lines) == start + 2 else -1 :]
                value = f"tuple({src})" if seq else src
            else:
                self.lines.insert(start, "    " * depth + f"{out} = {'[]' if seq else '{}'}")
                value = f"tuple({out})" if seq else out
        return f"(None if {src} is None else {value})" if nullable and value != src else value

    def record(self, plan: _Plan, src: str, depth: int, prefix: str) -> str:
        """Lines that fetch, then check, the members of the object ``src``; return its record."""
        values, error = [self.name() for _ in plan.slots], self.name()
        if prefix:
            self.add(depth, "try:")
        for value, slot in zip(values, plan.slots):
            fetch = f"{src}.get({slot.key!r}, MISSING)" if slot.default else f"{src}[{slot.key!r}]"
            self.add(depth + bool(prefix), f"{value} = {fetch}")
        if prefix:
            self.add(depth, f"except KeyError as {error}:")
            self.add(depth + 1, f"raise KeyError(f'{prefix}{{{error}.args[0]}}') from None")
        args = []
        for value, slot in zip(values, plan.slots):
            out, inner = self.name(), depth + bool(slot.default)
            if slot.default:
                self.add(depth, f"if {value} is MISSING: {out} = {self.name(slot.default)}()")
                self.add(depth, "else:")
            each = self.decode(slot.node, value, inner, prefix + slot.key)
            if slot.decode:
                each = f"{self.name(slot.decode)}({each})"
            if slot.default or each != value:
                self.add(inner, f"{out} = {each}")
            args.append(out if slot.default or each != value else value)
        if plan.closed:
            key = self.name()
            self.add(depth, f"for {key} in {src}:")
            self.add(depth + 1, f"if {key} not in {self.name(plan.keys)}:")
            self.add(depth + 2, f"raise ValueError(f'record has unknown field {{{key}!r}}')")
        return f"{self.name(plan.cls)}({', '.join(args)})" if plan.cls else src

    def encode(self, node: tuple, src: str) -> str:
        """An expression of the JSON value of ``src``, a value of ``node``."""
        kind, arg, nullable = node
        if isinstance(kind, _Plan) and kind.cls:
            items = [f"{key!r}: {self.name(value)}" for key, value in kind.constants.items()]
            for slot in kind.slots:
                field = f"{src}.{slot.name}"
                value = f"{self.name(slot.encode)}({field})" if slot.encode else None
                items.append(f"{slot.key!r}: {value or self.encode(slot.node, field)}")
            value = "{" + ", ".join(items) + "}"
        elif kind is typing.Union:
            first, second = (self.encode(each, src) for each in arg)
            kinds = _EXACT[arg[0][0]] + [tuple] * (arg[0][0] is tuple)  # a decoded list is a tuple
            test = " or ".join(f"type({src}) is {t.__name__}" for t in kinds)
            value = f"({first} if {test} else {second})"
        elif arg is None:
            return src
        else:
            key, item = self.name(), self.name()
            each = self.encode(arg, item)
            if each == item:
                value = f"list({src})" if kind is tuple else src
            elif kind is tuple:
                value = f"[{each} for {item} in {src}]"
            else:
                value = f"{{{key}: {each} for {key}, {item} in {src}.items()}}"
        return f"(None if {src} is None else {value})" if nullable and value != src else value

    def compile(self, head: str, result: str) -> Callable:
        exec("\n".join([head, *self.lines, f"    return {result}"]), self.env)  # noqa: S102
        return self.env[head[4 : head.index("(")]]


def codec(cls: type[_T], *, closed: bool = False, **overrides) -> type[_T]:
    """Give the dataclass ``cls`` a ``from_dict`` and a ``to_dict`` built from its annotations.

    Each field is a JSON member of its name and annotation: ``str``, ``int``,
    ``bool``, ``float`` (an int too), ``X | None``, ``X | Y`` of two JSON
    kinds (``str | tuple[str, ...]``, say), ``tuple[T, ...]``, ``dict``,
    ``dict[str, T]``, or a TypedDict or dataclass (whose own codec, if any,
    comes first); it may be absent if it has a default.
    A keyword gives a field's :class:`Member`, or else a constant member
    that ``from_dict`` ignores, as it does any other unless ``closed``.
    ``from_dict`` raises ``KeyError`` with the JSON path of a record's first
    missing member, else ``ValueError`` with that of the first mistyped leaf.
    """
    cls._json_plan = _Plan(cls, overrides, closed)  # for the records that hold a ``cls``
    node, decoder, encoder = (cls._json_plan, None, False), _Code(), _Code()
    decoded, encoded = decoder.decode(node, "d", 1, ""), encoder.encode(node, "o")
    cls.from_dict = staticmethod(decoder.compile("def from_dict(d):", decoded))
    cls.to_dict = encoder.compile("def to_dict(o):", encoded)
    return cls


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
