from __future__ import annotations

import dataclasses

import pytest

from lingobf import jsonio
from lingobf.corpus import DatasetRecord
from lingobf.metrics import ScoreTensor, score_run
from lingobf.prompts import PromptInstance, build_prompts
from lingobf.runner import ResponseRecord

from .test_metrics import all_correct_responses


def _dataset_records(dataset):
    first = dataset.records[0]
    key = first.expected_keys[0]
    with_alternate = dataclasses.replace(first, alternates={key: ("x", "y z")})
    return [*dataset.records, with_alternate]


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
