from __future__ import annotations

import dataclasses
import itertools
import json
import re
import tempfile
import tracemalloc
import typing
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingobf import jsonio
from lingobf.corpus import DatasetRecord
from lingobf.metrics import ProblemScores, ScoreTensor, score_run
from lingobf.prompts import PromptInstance, build_prompts, write_prompts
from lingobf.rulesets import FreeTable, Ruleset, Table
from lingobf.runner import EndpointConfig, ResponseRecord

from .test_metrics import all_correct_responses


def _dataset_records(dataset):
    first, *rest = dataset
    key = first.expected_keys[0]
    with_alternate = dataclasses.replace(first, alternates={key: ("x", "y z")})
    return [first, *rest, with_alternate]


def _responses(dataset):
    unparsed = ResponseRecord("x:p0:q0", "bad_parsing", "prose", None, 2, 1.5, "t")
    return [*all_correct_responses(dataset).values(), unparsed]


@pytest.mark.parametrize(
    "cls, examples",
    [
        (DatasetRecord, _dataset_records),
        (PromptInstance, lambda dataset: build_prompts(dataset, guidance="Think.")),
        (ResponseRecord, _responses),
        (ScoreTensor, lambda dataset: [score_run(all_correct_responses(dataset), dataset)[0]]),
    ],
    ids=["DatasetRecord", "PromptInstance", "ResponseRecord", "ScoreTensor"],
)
def test_encoding_then_decoding_gives_an_equal_object(dataset, cls, examples):
    for obj in examples(dataset):
        assert jsonio.decode_json("x", jsonio.dumps(obj.to_dict()), cls.from_dict) == obj


def test_a_json_document_is_sorted_indented_and_ends_in_lf(tmp_path):
    jsonio.write_json(tmp_path / "d.json", {"b": "é", "a": [1]})
    text = (tmp_path / "d.json").read_text(encoding="utf-8")
    assert text == '{\n  "a": [\n    1\n  ],\n  "b": "é"\n}\n'


@pytest.mark.parametrize(
    "text, kind, detail",
    [
        ("[]", dict, "record is a JSON list, not an object"),
        ("5", dict, "record is a JSON int, not an object"),
        ("{}", list, "record is a JSON dict, not a list"),
        ('{"a": 1}', dict, "record lacks field 'b'"),
    ],
    ids=["list", "int", "dict", "missing-field"],
)
def test_read_json_names_the_file(tmp_path, text, kind, detail):
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        jsonio.read_json(path, lambda d: d["b"], kind)
    assert str(exc.value) == f"{path}: {detail}"


def test_read_lines_keeps_or_skips_a_last_line_without_lf(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(jsonio.encode_lines([{"a": " "}, {}]) + '\n{"a": 2}', encoding="utf-8")
    assert jsonio.read_lines(path, dict) == [{"a": " "}, {}, {"a": 2}]
    assert jsonio.read_lines(path, dict, torn_tail=True) == [{"a": " "}, {}]
    path.write_text('{}\n{"a": 2', encoding="utf-8")
    with pytest.raises(ValueError, match=r"r\.jsonl: line 2: Expecting"):
        jsonio.read_lines(path, dict)


# Characters a line splitter could mistake for a line end, or that a naive
# encoder could drop.
_TEXT = st.text(
    st.sampled_from("a é\u2028\u2029\u0085\r\n\x00") | st.characters(codec="utf-8"), max_size=12
)


@given(st.lists(st.dictionaries(_TEXT, _TEXT | st.lists(_TEXT, max_size=3), max_size=3)))
def test_written_lines_read_back_equal(payloads):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.jsonl"
        assert jsonio.write_lines(path, iter(payloads)) == len(payloads)
        assert jsonio.read_lines(path, dict) == payloads


def test_a_torn_tail_at_every_byte_is_skipped_or_named(tmp_path):
    payloads = [{"a": "é\u2028"}, {"b": "\u0085ə\r"}, {"c": "ẞ"}]
    path = tmp_path / "r.jsonl"
    jsonio.write_lines(path, payloads)
    data = path.read_bytes()
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        whole = sum(end <= cut for end in ends)
        assert jsonio.read_lines(path, dict, torn_tail=True) == payloads[:whole], cut
        if cut == 0 or cut in ends:
            assert jsonio.read_lines(path, dict) == payloads[:whole]
        elif cut + 1 in ends:  # a whole record that lacks only its LF
            assert jsonio.read_lines(path, dict) == payloads[: whole + 1]
        else:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {whole + 1}: "):
                jsonio.read_lines(path, dict)


def test_a_line_ends_at_lf_crlf_or_a_lone_cr(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\r\n{"b": "\xc3\xa9"}\r{"c": 3}\n{"d": 4}\r')
    expected = [{"a": 1}, {"b": "é"}, {"c": 3}, {"d": 4}]
    assert jsonio.read_lines(path, dict) == expected
    assert jsonio.read_lines(path, dict, torn_tail=True) == expected
    path.write_bytes(b'{"a": 1}\r\n{oops}\r\n')
    with pytest.raises(ValueError, match=r"r\.jsonl: line 2: "):
        jsonio.read_lines(path, dict)


def test_a_failed_write_leaves_no_temporary_file_and_the_old_bytes(tmp_path):
    def payloads():
        yield {"a": 1}
        yield {"b": 2}
        raise RuntimeError("payload source failed")

    path = tmp_path / "r.jsonl"
    with pytest.raises(RuntimeError):
        jsonio.write_lines(path, payloads())
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        jsonio.write_lines(path, payloads())
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old\n"


def test_an_artifact_gets_the_permissions_of_a_plain_write(tmp_path):
    jsonio.write_lines(tmp_path / "r.jsonl", [{}])
    (tmp_path / "plain").write_text("", encoding="utf-8")
    assert (tmp_path / "r.jsonl").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_write_prompts_holds_one_prompt_at_a_time(tmp_path):
    # 2,000 prompts of ~2 kB each, about 4 MB of JSON lines in all.
    prompts = (
        PromptInstance(f"x:p0:q{i}", "x:p0", "x", 0, i, "s", "ə" * 1000 + str(i), ("1",))
        for i in range(2000)
    )
    tracemalloc.start()
    try:
        assert write_prompts(prompts, tmp_path / "p.jsonl") == 2000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000



# Every kind of value the indented writer spells out itself or hands to
# json.dumps: strings with control characters, U+2028 and non-ASCII; ints
# past 64 bits; NaN and the infinities; bools and None; empty containers;
# tuples; and, at any depth, dicts keyed by ints, floats, bools or None.
_DOC_TEXT = st.text(
    st.sampled_from('a\u00e9\u2028\u2029\u0085\x00\x1f\x7f"\\\n\t') | st.characters(codec="utf-8"),
    max_size=8,
)
_DOC_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _DOC_TEXT
)
_DOC_KEYS = (_DOC_TEXT, st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())


def _doc_containers(children):
    dicts = st.one_of([st.dictionaries(keys, children, max_size=4) for keys in _DOC_KEYS])
    return dicts | st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)


_DOCS = st.recursive(_DOC_SCALARS, _doc_containers, max_leaves=30)


@given(_DOCS | st.dictionaries(_DOC_TEXT, _DOCS, max_size=4))
def test_an_indented_document_has_the_bytes_of_json_dumps(payload):
    expected = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.json"
        jsonio.write_json(path, payload)
        assert path.read_bytes() == expected.encode("utf-8")


def _outcome(decode, where, text):
    """The value ``decode`` returns for ``text``, or its error as a diagnostic names it."""
    try:
        return decode(text)
    except ValueError as exc:
        return str(exc) if where is None else f"{where}: {exc}"


@pytest.mark.parametrize(
    "text",
    [
        ' {"a": 1}',
        '{"a": 1} ',
        '\t{"a": 1}\t ',
        '\ufeff{"a": 1}',
        "{} {}",
        "{}x",
        "{}\x0c",
        "{}\u2028",
        '{"a": }',
        '{"a": 1',
    ],
    ids=[
        "space-before", "space-after", "tabs", "bom", "two-values", "extra-data",
        "form-feed-after", "u2028-after", "bad-value", "unclosed",
    ],
)
def test_a_line_or_document_decodes_as_json_loads_does(tmp_path, text):
    path = tmp_path / "r.jsonl"
    path.write_text(f"{{}}\n{text}\n", encoding="utf-8")
    expected = _outcome(json.loads, f"{path}: line 2", text)
    assert _outcome(lambda _: jsonio.read_lines(path, dict)[1], None, text) == expected
    # A document may end in JSON whitespace, such as its final LF.
    for tail in ("", "\n", " \r\n\t"):
        expected = _outcome(json.loads, "d.json", text + tail)
        got = _outcome(lambda t: jsonio.decode_json("d.json", t, dict), None, text + tail)
        assert got == expected


# ---------------------------------------------------------------------------
# Typed records: every record type's JSON layout, stated here independently of
# jsonio.codec, and the to_dict each type had before the codec derived it.

_ID = st.text(max_size=6)
_INT = st.integers(-(2**70), 2**70)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _dataset_records(draw):
    keys = draw(st.lists(_ID, min_size=1, max_size=3, unique=True))
    return DatasetRecord(
        *draw(st.tuples(_ID, _INT, _INT, _ID, _INT, _ID, _ID, _ID)),
        subquestions=tuple((key, draw(_ID)) for key in keys),
        answers={key: draw(_ID) for key in keys},
        alternates=draw(st.dictionaries(
            st.sampled_from(keys), st.lists(_ID, min_size=1, max_size=2).map(tuple)
        )),
    )


_PROMPTS = st.builds(
    PromptInstance, _ID, _ID, _ID, _INT, _INT, _ID, _ID,
    st.lists(_ID, max_size=3).map(tuple), st.booleans(), st.none() | _ID,
)
_RESPONSES = st.builds(
    ResponseRecord, _ID, st.sampled_from(["ok", "empty", "bad_parsing", "transport_error"]),
    _ID, st.none() | st.dictionaries(_ID, _ID, max_size=3), _INT, _FLOAT | _INT, _ID,
)


@st.composite
def _score_tensors(draw):
    problems = []
    for problem_id in draw(st.lists(_ID, min_size=1, max_size=3, unique=True)):
        shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        variants = draw(st.integers(1, 3))
        cell = st.sampled_from((0, 1))
        scores = tuple(tuple(tuple(draw(cell) for _ in range(n)) for n in shape) for _ in range(variants))
        answer_types = tuple(tuple(draw(_ID) for _ in range(n)) for n in shape)
        problems.append(ProblemScores(
            problem_id, draw(_ID), draw(st.integers(1, 2**40)), scores, answer_types
        ))
    return ScoreTensor(tuple(problems), draw(st.booleans()))


_JSON = st.recursive(
    st.none() | st.booleans() | _INT | _FLOAT | _ID,
    lambda children: st.lists(children, max_size=2) | st.dictionaries(_ID, children, max_size=2),
    max_leaves=5,
)
_ENDPOINTS = st.builds(
    EndpointConfig,
    name=_ID,
    url=st.sampled_from(["http://x", "https://h:8080/v1/chat?q=1"]),
    model=_ID,
    api_key_env=st.none() | _ID,
    headers=st.dictionaries(_ID, _JSON, max_size=2),
    body=st.none() | st.dictionaries(_ID, _JSON, max_size=2),
    response_path=_ID,
    temperature=st.none() | _FLOAT,
    max_output_tokens=st.none() | _INT,
    timeout_s=st.floats(0, 1e6) | st.integers(0, 10**6),
    max_retries=st.integers(0, 5),
    retry_base_s=st.floats(0, 100),
)

# NFC graphemes, each made unique by a numbered suffix.
_GRAPHEME = st.text(alphabet="aeéŋʰ'", min_size=1, max_size=2)


@st.composite
def _rulesets(draw):
    number = itertools.count()

    def graphemes(n):
        return tuple(f"{draw(_GRAPHEME)}{next(number)}" for _ in range(n))

    def some(make):
        return tuple(make() for _ in range(draw(st.integers(0, 2))))

    def table():
        height = draw(st.integers(1, 3))
        return Table(tuple(graphemes(height) for _ in range(draw(st.integers(2, 3)))))

    def free_table():
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))  # a cell size per row
        return FreeTable(tuple(tuple(map(graphemes, sizes)) for _ in range(draw(st.integers(2, 3)))))

    return Ruleset(
        fixed=graphemes(draw(st.integers(0, 2))),
        sets=some(lambda: graphemes(draw(st.integers(2, 3)))),
        tables=some(table),
        free_tables=some(free_table),
    )


def _prompt_dict(p):
    return {
        "prompt_id": p.prompt_id, "variant_id": p.variant_id, "problem_id": p.problem_id,
        "p": p.p, "question_index": p.question_index, "system": p.system_message,
        "user": p.user_message, "expected_keys": list(p.expected_keys),
        "no_context": p.no_context, "guidance": p.guidance,
    }


def _dataset_dict(r):
    return {
        "schema_version": 1, "problem_id": r.problem_id, "p": r.p,
        "question_index": r.question_index, "difficulty": r.difficulty, "speakers": r.speakers,
        "preamble": r.preamble, "context": r.context, "body": r.body,
        "subquestions": [{"key": k, "text": t} for k, t in r.subquestions],
        "answers": r.answers,
        "alternates": {k: list(v) for k, v in r.alternates.items() if v},
    }


def _ruleset_dict(r):
    return {
        "schema_version": 1, "fixed": list(r.fixed), "sets": [list(s) for s in r.sets],
        "tables": [{"columns": [list(col) for col in t.columns]} for t in r.tables],
        "free_tables": [
            {"columns": [[c[0] if len(c) == 1 else list(c) for c in col] for col in t.columns]}
            for t in r.free_tables
        ],
    }


def _tensor_dict(t):
    return {
        "schema_version": 1,
        "case_sensitive": t.case_sensitive,
        "problems": [
            {
                "problem_id": p.problem_id, "difficulty": p.difficulty, "speakers": p.speakers,
                "scores": [[list(q) for q in perm] for perm in p.scores],
                "answer_types": [list(q) for q in p.answer_types],
            }
            for p in t.problems
        ],
    }


# A JSON layout: a Python type per leaf (float admits int), (T,) for a list of T,
# {str: T} for an object of T, an object of named members, dict for any object,
# T | None, and [T, (T,)] for a T or a list of T.
_N = type(None)
_PROMPT_LAYOUT = {
    "prompt_id": str, "variant_id": str, "problem_id": str, "p": int, "question_index": int,
    "system": str, "user": str, "expected_keys": (str,), "no_context": bool, "guidance": str | None,
}
_DATASET_LAYOUT = {
    "problem_id": str, "p": int, "question_index": int, "difficulty": str, "speakers": int,
    "preamble": str, "context": str, "body": str,
    "subquestions": ({"key": str, "text": str},), "answers": {str: str}, "alternates": {str: (str,)},
}
_RESPONSE_LAYOUT = {
    "prompt_id": str, "status": str, "raw_text": str, "parsed": ({str: str}, _N),
    "attempts": int, "latency_ms": float, "timestamp": str,
}
_TENSOR_LAYOUT = {
    "case_sensitive": bool,
    "problems": ({
        "problem_id": str, "difficulty": str, "speakers": int, "scores": (((int,),),),
        "answer_types": ((str,),),
    },),
}
_RULESET_LAYOUT = {
    "fixed": (str,), "sets": ((str,),), "tables": ({"columns": ((str,),)},),
    "free_tables": ({"columns": (([str, (str,)],),)},),  # a cell of one grapheme is a string
}
_ENDPOINT_LAYOUT = {
    "name": str, "url": str, "model": str, "api_key_env": str | None, "headers": dict,
    "body": (dict, _N), "response_path": str, "temperature": float | None,
    "max_output_tokens": int | None, "timeout_s": float, "max_retries": int, "retry_base_s": float,
}

RECORDS = pytest.mark.parametrize(
    "cls, records, layout, old_to_dict",
    [
        (DatasetRecord, _dataset_records(), _DATASET_LAYOUT, _dataset_dict),
        (PromptInstance, _PROMPTS, _PROMPT_LAYOUT, _prompt_dict),
        (ResponseRecord, _RESPONSES, _RESPONSE_LAYOUT, dataclasses.asdict),
        (ScoreTensor, _score_tensors(), _TENSOR_LAYOUT, _tensor_dict),
        (EndpointConfig, _ENDPOINTS, _ENDPOINT_LAYOUT, dataclasses.asdict),
        (Ruleset, _rulesets(), _RULESET_LAYOUT, _ruleset_dict),
    ],
    ids=[
        "DatasetRecord", "PromptInstance", "ResponseRecord", "ScoreTensor", "EndpointConfig",
        "Ruleset",
    ],
)


def _leaves(value, layout, path="", keys=()):
    """(path, keys to it, Python types the layout admits there) of every typed leaf."""
    nullable = isinstance(layout, tuple) and layout[-1] is _N
    if nullable:
        layout = layout[0]
        if value is None:
            return
    if isinstance(layout, dict) and set(layout) == {str}:
        for key, item in value.items():
            yield from _leaves(item, layout[str], f"{path}[{jsonio.dumps(key)}]", (*keys, key))
    elif isinstance(layout, dict):
        for key, item in layout.items():
            yield from _leaves(value[key], item, f"{path}.{key}" if path else key, (*keys, key))
    elif isinstance(layout, tuple):
        for index, item in enumerate(value):
            yield from _leaves(item, layout[0], f"{path}[{index}]", (*keys, index))
    elif isinstance(layout, list):  # the value is a leaf, and so is each item of a list
        yield path, keys, {layout[0], list}
        if isinstance(value, list):
            yield from _leaves(value, layout[1], path, keys)
    elif layout is not dict:  # the contents of an untyped object are not leaves
        types = set(typing.get_args(layout)) or {layout}
        yield path, keys, types | ({int} if float in types else set()) | ({_N} if nullable else set())


def _replaced(value, keys, new):
    """``value`` with the leaf that ``keys`` lead to replaced by ``new``."""
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[keys[0]] = _replaced(value[keys[0]], keys[1:], new) if keys[1:] else new
    return copy


@RECORDS
@given(data=st.data())
def test_a_leaf_of_another_json_type_is_refused_by_its_path(cls, records, layout, old_to_dict, data):
    encoded = json.loads(jsonio.dumps(data.draw(records).to_dict()))
    leaves = list(_leaves(encoded, layout))
    if not leaves:
        return
    path, keys, types = data.draw(st.sampled_from(leaves))
    new = data.draw(st.sampled_from([v for v in (7, 1.5, "7", True, None, [], {}) if type(v) not in types]))
    with pytest.raises(ValueError) as exc:
        cls.from_dict(_replaced(encoded, keys, new))
    assert str(exc.value).startswith(f"{path} is {jsonio.dumps(new)}, not ")


@RECORDS
@given(data=st.data())
def test_a_record_round_trips_in_the_bytes_it_had(cls, records, layout, old_to_dict, data):
    record = data.draw(records)
    text = jsonio.dumps(record.to_dict())
    assert text == jsonio.dumps(old_to_dict(record))
    assert cls.from_dict(json.loads(text)) == record
