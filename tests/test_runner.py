from __future__ import annotations

import base64
import contextlib
import dataclasses
import http.client
import io
import json
import math
import os
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingobf import runner
from lingobf.mockserver import MockModelServer
from lingobf.prompts import PromptInstance, build_prompts, write_prompts
from lingobf.runner import (
    STATUS_BAD_PARSING,
    STATUS_EMPTY,
    STATUS_OK,
    STATUS_TRANSPORT_ERROR,
    _LADDER,
    EndpointConfig,
    ResponseRecord,
    _key_pairs,
    build_request,
    error_summary_table,
    extract_text,
    parse_response,
    read_records,
    run,
    summarize_errors,
)
from lingobf.transport import HTTPTransport, read_reply

REPO = Path(__file__).resolve().parents[1]


def make_prompt(i: int, keys=("1",)) -> PromptInstance:
    return PromptInstance(
        prompt_id=f"x:p0:q{i}",
        variant_id="x:p0",
        problem_id="x",
        p=0,
        question_index=i,
        system_message="You are a helpful assistant.",
        user_message=f"question {i}",
        expected_keys=tuple(keys),
    )


ENDPOINT = EndpointConfig(name="mock", url="http://unused", retry_base_s=0.0, max_retries=2)


# ---------------------------------------------------------------------------
# parse_response ladder


def test_direct_json():
    parsed, status = parse_response('{"1": "ovsuz"}', ["1"])
    assert (parsed, status) == ({"1": "ovsuz"}, STATUS_OK)


def test_fenced_json():
    parsed, status = parse_response('```json\n{"1": "x"}\n```', ["1"])
    assert (parsed, status) == ({"1": "x"}, STATUS_OK)


def test_bare_fence_json():
    parsed, status = parse_response('```\n{"1": "x"}\n```', ["1"])
    assert parsed == {"1": "x"}


def test_embedded_object():
    parsed, status = parse_response('Sure! Here you go: {"1": "x", "2": "y"} hope it helps', ["1", "2"])
    assert (parsed, status) == ({"1": "x", "2": "y"}, STATUS_OK)


def test_key_regex_fallback():
    raw = 'the answers are "1": "abc" and also "2": "d\\"e"'
    assert _key_pairs(raw, ["1", "2"]) == {"1": "abc", "2": 'd"e'}
    assert parse_response(raw, ["1", "2"]) == ({"1": "abc", "2": 'd"e'}, STATUS_OK)


def test_key_pairs_skips_invalid_string_values():
    # "\q" is not a JSON escape, so rungs 1-3 refuse the reply and rung 4 skips the key.
    assert parse_response('answer "1": "\\q" end', ["1"]) == (None, STATUS_BAD_PARSING)
    raw = 'answer "1": "\\q", "2": "ok"'
    assert parse_response(raw, ["1", "2"]) == ({"2": "ok"}, STATUS_OK)


def test_prose_is_bad_parsing():
    parsed, status = parse_response("The answer is probably...", ["1"])
    assert (parsed, status) == (None, STATUS_BAD_PARSING)


def test_blank_is_empty():
    assert parse_response("", ["1"]) == (None, STATUS_EMPTY)
    assert parse_response("  \n\t", ["1"]) == (None, STATUS_EMPTY)


def test_non_object_json_is_not_ok():
    parsed, status = parse_response("[1, 2, 3]", ["1"])
    assert status == STATUS_BAD_PARSING


def test_numeric_values_coerced_to_strings():
    parsed, _ = parse_response('{"1": 42, "2": true}', ["1", "2"])
    assert parsed == {"1": "42", "2": "true"}


def test_missing_keys_still_ok():
    parsed, status = parse_response('{"1": "x"}', ["1", "2"])
    assert status == STATUS_OK
    assert "2" not in parsed


@pytest.mark.parametrize(
    "raw,first_step",
    [
        ('{"1": "a"}', 1),
        ('```json\n{"1": "a"}\n```', 2),
        ('noise {"1": "a"} noise', 3),
        ('answer "1": "a" end', 4),
    ],
)
def test_ladder_monotonicity(raw, first_step):
    """The first rung that parses a text gives the full ladder's result on its
    own, and every later rung parses it identically or not at all."""
    rungs = [rung(raw, ["1"]) for rung in _LADDER]
    assert rungs[: first_step - 1] == [None] * (first_step - 1)
    assert rungs[first_step - 1] == {"1": "a"}
    assert all(got in (None, {"1": "a"}) for got in rungs[first_step:])
    assert parse_response(raw, ["1"]) == ({"1": "a"}, STATUS_OK)


@given(st.text(max_size=200))
@example('answer "1": "\\q" end')
@example("[" * 100_000)  # deeper than the JSON decoder's recursion limit
@example('noise {"1": ' + "[" * 100_000)
@example('{"1": ' + "1" * 5000 + "}")  # past the integer digit limit
def test_parse_response_never_raises(raw):
    parsed, status = parse_response(raw, ["1", "2"])
    assert status in {STATUS_OK, STATUS_EMPTY, STATUS_BAD_PARSING}
    assert (parsed is None) == (status != STATUS_OK)


# ---------------------------------------------------------------------------
# Request building


def test_default_body_fills_slots():
    endpoint = EndpointConfig(name="e", url="http://x", model="m1")
    headers, body = build_request(endpoint, make_prompt(0))
    assert body["model"] == "m1"
    assert body["temperature"] == 0.0
    assert body["messages"][0] == {"role": "system", "content": "You are a helpful assistant."}
    assert body["messages"][1]["content"] == "question 0"


def test_custom_body_and_headers(monkeypatch):
    monkeypatch.setenv("MOCK_KEY", "sekrit")
    endpoint = EndpointConfig(
        name="e",
        url="http://x",
        api_key_env="MOCK_KEY",
        headers={"Authorization": "Bearer {api_key}"},
        body={"input": "{user}", "sys": "{system}"},
    )
    headers, body = build_request(endpoint, make_prompt(1))
    assert headers["Authorization"] == "Bearer sekrit"
    assert body == {"input": "question 1", "sys": "You are a helpful assistant."}


def test_endpoint_config_names_the_file_and_an_unknown_key(tmp_path):
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps({"name": "e", "url": "http://x", "temprature": 0.5}))
    with pytest.raises(ValueError, match=r"endpoint\.json: record has unknown field 'temprature'"):
        EndpointConfig.from_file(path)


def test_a_valid_endpoint_config_loads_unchanged(tmp_path):
    fields = {
        "name": "e", "url": "http://x", "model": "m", "api_key_env": None,
        "headers": {"X": "y"}, "body": {"input": "{user}"}, "response_path": "text",
        "temperature": None, "max_output_tokens": 64, "timeout_s": 5, "max_retries": 0,
        "retry_base_s": 0.25,
    }
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps(fields))
    assert EndpointConfig.from_file(path) == EndpointConfig(**fields)


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("max_retries", "3", 'max_retries is "3", not an integer'),
        ("max_retries", 2.0, "max_retries is 2.0, not an integer"),
        ("max_retries", True, "max_retries is true, not an integer"),
        ("timeout_s", False, "timeout_s is false, not a number"),
        ("temperature", "0", 'temperature is "0", not a number or null'),
        ("max_output_tokens", 1.5, "max_output_tokens is 1.5, not an integer or null"),
        ("name", 7, "name is 7, not a string"),
        ("api_key_env", 1, "api_key_env is 1, not a string or null"),
        ("headers", [], "headers is [], not an object"),
        ("body", "x", 'body is "x", not an object or null'),
        ("max_retries", -1, "max_retries is -1, which is negative"),
        ("timeout_s", -0.5, "timeout_s is -0.5, which is negative"),
        ("retry_base_s", -1, "retry_base_s is -1, which is negative"),
    ],
)
def test_a_mistyped_or_negative_endpoint_field_names_the_file(tmp_path, field, value, detail):
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps({"name": "e", "url": "http://x", field: value}))
    with pytest.raises(ValueError) as exc:
        EndpointConfig.from_file(path)
    assert str(exc.value) == f"{path}: {detail}"


NOT_AN_HTTP_URL = "not an http:// or https:// URL with a host"
NOT_A_TARGET = "whose path or query has a space, a control character or a non-ASCII character"


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("url", "ftp://x/v1", f'url is "ftp://x/v1", {NOT_AN_HTTP_URL}'),
        ("url", "https://:443/v1", f'url is "https://:443/v1", {NOT_AN_HTTP_URL}'),
        ("url", "x/v1", f'url is "x/v1", {NOT_AN_HTTP_URL}'),
        ("url", "http://x/a b", f'url is "http://x/a b", {NOT_A_TARGET}'),
        ("url", "http://x/v1?q=é", f'url is "http://x/v1?q=é", {NOT_A_TARGET}'),
        ("timeout_s", math.nan, "timeout_s is NaN, not a finite number"),
        ("timeout_s", -math.inf, "timeout_s is -Infinity, not a finite number"),
        ("retry_base_s", math.inf, "retry_base_s is Infinity, not a finite number"),
        ("temperature", math.nan, "temperature is NaN, not a finite number"),
    ],
)
def test_an_endpoint_run_cannot_use_is_refused_naming_the_file(tmp_path, field, value, detail):
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps({"name": "e", "url": "http://x", field: value}))
    with pytest.raises(ValueError) as exc:
        EndpointConfig.from_file(path)
    assert str(exc.value) == f"{path}: {detail}"
    with pytest.raises(ValueError, match=re.escape(detail)):
        EndpointConfig(**{"name": "e", "url": "http://x", field: value})


@pytest.mark.parametrize(
    "retry_base_s, max_retries, refused",
    [
        (1e300, 1, True),
        # time.sleep refuses waits a little under TIMEOUT_MAX, so half of it is the most.
        (threading.TIMEOUT_MAX, 1, True),
        (threading.TIMEOUT_MAX / 2, 1, False),
        (threading.TIMEOUT_MAX / 2, 2, True),
        (threading.TIMEOUT_MAX / 4, 2, False),
        (threading.TIMEOUT_MAX, 2, True),
        (9223372036, 1, True),
        (0, 1025, False),  # 0.0 * 2**1024 overflows
        (1e300, 0, False),  # never waits
    ],
)
def test_a_retry_wait_past_timeout_max_is_refused_naming_the_file(
    tmp_path, retry_base_s, max_retries, refused
):
    fields = {
        "name": "e", "url": "http://x", "retry_base_s": retry_base_s, "max_retries": max_retries
    }
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps(fields))
    if not refused:
        assert EndpointConfig.from_file(path) == EndpointConfig(**fields)
        return
    with pytest.raises(ValueError) as exc:
        EndpointConfig.from_file(path)
    assert str(exc.value) == (
        f"{path}: retry_base_s is {json.dumps(retry_base_s)}: with max_retries {max_retries}, "
        "the longest wait between attempts, retry_base_s * 2**(max_retries - 1) s, is over "
        f"half of threading.TIMEOUT_MAX ({threading.TIMEOUT_MAX / 2:.0f} s)"
    )


def test_missing_credential_is_an_error(monkeypatch):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    endpoint = EndpointConfig(name="e", url="http://x", api_key_env="NOPE_KEY")
    with pytest.raises(RuntimeError):
        build_request(endpoint, make_prompt(0))


def test_slots_in_user_text_are_not_reexpanded():
    endpoint = EndpointConfig(name="e", url="http://x", model="m")
    prompt = make_prompt(0)
    prompt = PromptInstance(
        **{**prompt.__dict__, "user_message": "literal {model} stays"}
    )
    _, body = build_request(endpoint, prompt)
    assert body["messages"][1]["content"] == "literal {model} stays"


def test_extract_text_walks_path():
    envelope = json.dumps({"choices": [{"message": {"content": "hi"}}]})
    assert extract_text(envelope, "choices.0.message.content") == "hi"
    with pytest.raises((KeyError, IndexError, TypeError)):
        extract_text(envelope, "choices.1.message.content")


# ---------------------------------------------------------------------------
# Run loop (mock transports; one real HTTP test via MockModelServer)


def ok_transport(headers, body, timeout):
    user = body["messages"][1]["content"]
    reply = json.dumps({"1": f"echo:{user}"})
    return 200, json.dumps({"choices": [{"message": {"content": reply}}]})


def test_run_all_ok(tmp_path):
    prompts = [make_prompt(i) for i in range(5)]
    summary = run(prompts, ENDPOINT, tmp_path / "run", parallelism=3, transport=ok_transport)
    assert summary["ok"] == 5 and summary["transport_error"] == 0
    records = read_records(tmp_path / "run")
    assert len(records) == 5
    assert all(r.status == STATUS_OK for r in records.values())


def test_run_empty_prompts_rejected(tmp_path):
    with pytest.raises(ValueError):
        run([], ENDPOINT, tmp_path / "run", transport=ok_transport)


def test_empty_reply_recorded(tmp_path):
    def transport(headers, body, timeout):
        return 200, json.dumps({"choices": [{"message": {"content": ""}}]})

    run([make_prompt(0)], ENDPOINT, tmp_path / "run", transport=transport)
    record = read_records(tmp_path / "run")["x:p0:q0"]
    assert record.status == STATUS_EMPTY


def test_a_too_deeply_nested_reply_is_bad_parsing_not_a_crash(tmp_path):
    def transport(headers, body, timeout):
        return 200, json.dumps({"choices": [{"message": {"content": "[" * 100_000}}]})

    summary = run([make_prompt(0)], ENDPOINT, tmp_path / "run", transport=transport)
    assert (summary["ran"], summary["bad_parsing"]) == (1, 1)
    lines = (tmp_path / "run" / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["status"] for line in lines] == [STATUS_BAD_PARSING]


def test_transport_failure_retries_then_records(tmp_path, monkeypatch):
    calls = []
    waits = []

    def flaky(headers, body, timeout):
        calls.append(1)
        raise ConnectionError("boom")

    monkeypatch.setattr(runner.time, "sleep", waits.append)
    endpoint = dataclasses.replace(ENDPOINT, retry_base_s=0.25)
    summary = run([make_prompt(0)], endpoint, tmp_path / "run", transport=flaky)
    assert summary["transport_error"] == 1
    record = read_records(tmp_path / "run")["x:p0:q0"]
    assert record.status == STATUS_TRANSPORT_ERROR
    assert record.attempts == 3  # initial + max_retries
    assert len(calls) == 3
    assert waits == [0.25, 0.5]


def test_http_error_counts_as_transport(tmp_path):
    def teapot(headers, body, timeout):
        return 418, "short and stout"

    run([make_prompt(0)], ENDPOINT, tmp_path / "run", transport=teapot)
    assert read_records(tmp_path / "run")["x:p0:q0"].status == STATUS_TRANSPORT_ERROR


@pytest.mark.parametrize("code", [400, 401, 404])
def test_client_error_is_not_retried(tmp_path, code):
    calls = []

    def refusing(headers, body, timeout):
        calls.append(1)
        return code, "no such thing"

    summary = run([make_prompt(0)], ENDPOINT, tmp_path / "run", transport=refusing)
    assert summary["transport_error"] == 1
    record = read_records(tmp_path / "run")["x:p0:q0"]
    assert (record.status, record.attempts) == (STATUS_TRANSPORT_ERROR, 1)
    assert record.raw_text == f"HTTP {code}: no such thing"
    assert len(calls) == 1


@pytest.mark.parametrize("code", [408, 429, 500])
def test_timeout_rate_limit_and_server_errors_are_retried(tmp_path, code):
    calls = []

    def busy_once(headers, body, timeout):
        calls.append(1)
        if len(calls) == 1:
            return code, "try again"
        return ok_transport(headers, body, timeout)

    summary = run([make_prompt(0)], ENDPOINT, tmp_path / "run", transport=busy_once)
    assert summary["ok"] == 1
    assert read_records(tmp_path / "run")["x:p0:q0"].attempts == 2


def test_missing_credential_leaves_the_run_directory_untouched(tmp_path, monkeypatch):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    endpoint = EndpointConfig(name="mock", url="http://unused", api_key_env="NOPE_KEY")
    run_dir = tmp_path / "run"
    run([make_prompt(0)], ENDPOINT, run_dir, transport=ok_transport)
    before = {path.name: path.read_bytes() for path in run_dir.iterdir()}

    def unreachable(headers, body, timeout):
        raise AssertionError("no request may be sent without the credential")

    prompts = [make_prompt(i) for i in range(3)]
    with pytest.raises(RuntimeError, match="NOPE_KEY"):
        run(prompts, endpoint, run_dir, transport=unreachable)
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before
    with pytest.raises(RuntimeError, match="NOPE_KEY"):
        run(prompts, endpoint, tmp_path / "fresh", transport=unreachable)
    assert not (tmp_path / "fresh").exists()


def test_recovery_after_transient_failures(tmp_path):
    attempts = {"n": 0}

    def eventually(headers, body, timeout):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise ConnectionError("not yet")
        return ok_transport(headers, body, timeout)

    summary = run([make_prompt(0)], ENDPOINT, tmp_path / "run", transport=eventually)
    assert summary["ok"] == 1
    assert read_records(tmp_path / "run")["x:p0:q0"].attempts == 3


def test_resume_skips_final_records_and_completes(tmp_path):
    prompts = [make_prompt(i) for i in range(8)]
    baseline = tmp_path / "baseline"
    run(prompts, ENDPOINT, baseline, transport=ok_transport)
    complete = read_records(baseline)

    # Simulate a crash: keep the first 3 records plus a torn partial line.
    interrupted = tmp_path / "interrupted"
    interrupted.mkdir()
    lines = (baseline / "records.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    (interrupted / "records.jsonl").write_text(
        "\n".join(lines) + '\n{"prompt_id": "x:p0:q3", "status": "ok", "raw',
        encoding="utf-8",
    )

    seen = []

    def tracking(headers, body, timeout):
        seen.append(body["messages"][1]["content"])
        return ok_transport(headers, body, timeout)

    summary = run(prompts, ENDPOINT, interrupted, transport=tracking)
    assert summary["skipped"] == 3
    assert len(seen) == 5  # the torn record was re-run
    resumed = read_records(interrupted)
    assert set(resumed) == set(complete)
    assert {p: r.raw_text for p, r in resumed.items()} == {
        p: r.raw_text for p, r in complete.items()
    }


@pytest.mark.parametrize("line", ["[]", "3", '"x"', "null"])
def test_read_records_rejects_non_object_line(tmp_path, line):
    run([make_prompt(0), make_prompt(1)], ENDPOINT, tmp_path / "run", transport=ok_transport)
    path = tmp_path / "run" / "records.jsonl"
    first, second = path.read_text(encoding="utf-8").splitlines()
    # A complete non-object line is bad data, not a torn write; a torn
    # last line after it is still skipped.
    path.write_text(f"{first}\n{line}\n{second}\n{{\"prompt_id\": \"x", encoding="utf-8")
    with pytest.raises(ValueError, match=r"records\.jsonl: line 2: .*not an object"):
        read_records(tmp_path / "run")


def test_read_records_rejects_bad_lines_mid_file(tmp_path):
    run([make_prompt(0), make_prompt(1)], ENDPOINT, tmp_path / "run", transport=ok_transport)
    path = tmp_path / "run" / "records.jsonl"
    first, second = path.read_text(encoding="utf-8").splitlines()
    incomplete = '{"prompt_id": "p9"}'
    path.write_text(f"{first}\n{{garbage\n{incomplete}\n{second}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"records\.jsonl: line 2: "):
        read_records(tmp_path / "run")
    path.write_text(f"{first}\n{incomplete}\n{second}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"records\.jsonl: line 2: record lacks field 'status'"):
        read_records(tmp_path / "run")


@pytest.mark.parametrize(
    "parsed, detail",
    [
        (["a"], 'parsed is ["a"], not an object or null'),
        ("a", 'parsed is "a", not an object or null'),
        ({"1": 5}, 'parsed["1"] is 5, not a string'),
        ({"1": "a", "2": None}, 'parsed["2"] is null, not a string'),
        ({"1": ["a"]}, 'parsed["1"] is ["a"], not a string'),
    ],
    ids=["list", "string", "int-value", "null-value", "list-value"],
)
def test_read_records_refuses_a_parsed_that_is_not_null_or_an_object_of_strings(
    tmp_path, parsed, detail
):
    run([make_prompt(0), make_prompt(1)], ENDPOINT, tmp_path / "run", transport=ok_transport)
    path = tmp_path / "run" / "records.jsonl"
    first, second = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(second)
    path.write_text(f"{first}\n{json.dumps({**record, 'parsed': parsed})}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_records(tmp_path / "run")
    assert str(exc.value) == f"{path}: line 2: {detail}"
    for kept in (None, {}, {"1": "a", "2": ""}):
        path.write_text(f"{first}\n{json.dumps({**record, 'parsed': kept})}\n", encoding="utf-8")
        assert read_records(tmp_path / "run")[record["prompt_id"]].parsed == kept


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("prompt_id", 5, "prompt_id is 5, not a string"),
        ("status", "weird", 'status is "weird", not one of "ok", "empty", "bad_parsing", '
         '"transport_error"'),
        ("raw_text", None, "raw_text is null, not a string"),
        ("attempts", "1", 'attempts is "1", not an integer'),
        ("latency_ms", "x", 'latency_ms is "x", not a number'),
        ("timestamp", 3, "timestamp is 3, not a string"),
    ],
)
def test_read_records_refuses_a_mistyped_field_by_file_line_and_field(
    tmp_path, field, value, detail
):
    run([make_prompt(0), make_prompt(1)], ENDPOINT, tmp_path / "run", transport=ok_transport)
    path = tmp_path / "run" / "records.jsonl"
    first, second = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), field: value})}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_records(tmp_path / "run")
    assert str(exc.value) == f"{path}: line 2: {detail}"


def test_bad_records_line_fails_before_the_run_directory_is_written(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    manifest = json.dumps({"endpoint": "old", "prompts": 7, "schema_version": 1})
    (run_dir / "manifest.json").write_text(manifest, encoding="utf-8")
    (run_dir / "records.jsonl").write_text("{garbage\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in run_dir.iterdir()}

    def unreachable(headers, body, timeout):
        raise AssertionError("no request may be sent for a run with bad records")

    with pytest.raises(ValueError, match=r"records\.jsonl: line 1: "):
        run([make_prompt(0)], ENDPOINT, run_dir, transport=unreachable)
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before


def test_read_records_skips_torn_last_line(tmp_path):
    run([make_prompt(0)], ENDPOINT, tmp_path / "run", transport=ok_transport)
    path = tmp_path / "run" / "records.jsonl"
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"prompt_id": "x:p0:q1", "status": "ok", "raw')
    assert set(read_records(tmp_path / "run")) == {"x:p0:q0"}


def test_exactly_once_with_fault_injection(tmp_path):
    """Crash-like failures never produce duplicate final records."""
    prompts = [make_prompt(i) for i in range(6)]
    fail_on = {"question 2", "question 4"}

    def faulty(headers, body, timeout):
        user = body["messages"][1]["content"]
        if user in fail_on:
            raise ConnectionError("injected")
        return ok_transport(headers, body, timeout)

    run(prompts, ENDPOINT, tmp_path / "r", parallelism=2, transport=faulty)
    first = read_records(tmp_path / "r")
    assert len(first) == 6  # transport errors are final records too

    # Re-running with a healthy transport changes nothing: all final.
    run(prompts, ENDPOINT, tmp_path / "r", parallelism=2, transport=ok_transport)
    lines = (tmp_path / "r" / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    ids = [json.loads(line)["prompt_id"] for line in lines]
    assert len(set(ids)) == 6


def test_a_parallel_run_appends_whole_records_through_one_handle(tmp_path, dataset, monkeypatch):
    prompts = list(build_prompts(dataset))
    opened = []
    path_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        opened.append((self.name, mode))
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    run(prompts, ENDPOINT, tmp_path / "run", parallelism=4, transport=ok_transport)
    assert opened.count(("records.jsonl", "a")) == 1
    lines = (tmp_path / "run" / "records.jsonl").read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    records = [ResponseRecord.from_dict(json.loads(line)) for line in lines]
    assert sorted(r.prompt_id for r in records) == sorted(p.prompt_id for p in prompts)
    assert all(r.status == STATUS_OK for r in records)


def test_parallelism_is_bounded(tmp_path):
    in_flight = {"now": 0, "max": 0}
    gate = threading.Lock()

    def slow(headers, body, timeout):
        with gate:
            in_flight["now"] += 1
            in_flight["max"] = max(in_flight["max"], in_flight["now"])
        import time as _t

        _t.sleep(0.02)
        with gate:
            in_flight["now"] -= 1
        return ok_transport(headers, body, timeout)

    run([make_prompt(i) for i in range(12)], ENDPOINT, tmp_path / "r", parallelism=3, transport=slow)
    assert in_flight["max"] <= 3


def test_run_against_real_http_mock(tmp_path):
    def reply(system, user):
        return json.dumps({"1": "pong"})

    with MockModelServer(reply) as server:
        endpoint = EndpointConfig(name="http-mock", url=server.url, retry_base_s=0.0)
        summary = run([make_prompt(0)], endpoint, tmp_path / "run")
    assert summary["ok"] == 1
    assert read_records(tmp_path / "run")["x:p0:q0"].parsed == {"1": "pong"}


def test_http_transport_sends_non_ascii_intact(tmp_path):
    user = "Translate: ŋʔɛ̃ ʃʒ tʼa ǂxʼ — «ʕə»"
    seen = []

    def echo(system, user_message):
        seen.append(user_message)
        return json.dumps({"1": user_message}, ensure_ascii=False)

    prompt = PromptInstance(**{**make_prompt(0).__dict__, "user_message": user})
    with MockModelServer(echo) as server:
        endpoint = EndpointConfig(name="http-mock", url=server.url, retry_base_s=0.0)
        summary = run([prompt], endpoint, tmp_path / "run")
    assert summary["ok"] == 1
    assert seen == [user]
    assert read_records(tmp_path / "run")["x:p0:q0"].parsed == {"1": user}


def test_http_transport_sends_json_bytes_with_a_json_content_type():
    with MockModelServer(lambda system, user: "") as server:
        with HTTPTransport(server.url) as transport:
            for headers in ({}, {"content-type": "text/plain"}):
                transport(headers, {"a": "é"}, 5.0)
    assert [h["Content-Type"] for _, h, _ in server.requests] == ["application/json", "text/plain"]
    assert server.requests[0][2] == b'{"a": "\\u00e9"}'


@pytest.mark.parametrize("code", [500, 429])
def test_http_transport_returns_an_error_status(code):
    with MockModelServer(lambda system, user: (code, "planted fault")) as server:
        with HTTPTransport(server.url) as transport:
            got = transport({}, {"messages": []}, 5.0)
    assert got == (code, "planted fault")


def test_a_body_that_is_not_json_takes_no_connection():
    with MockModelServer(lambda system, user: "") as server:
        with HTTPTransport(server.url) as transport:
            with pytest.raises(ValueError):
                transport({}, {"temperature": float("nan")}, 5.0)
            assert (server.connections, server.requests) == (0, [])
            # Nor does it take the idle connection out of the pool.
            transport({}, {"messages": []}, 5.0)
            with pytest.raises(ValueError):
                transport({}, {"temperature": float("nan")}, 5.0)
            transport({}, {"messages": []}, 5.0)
    assert (server.connections, len(server.requests)) == (1, 2)


def test_a_connection_is_reused_by_whichever_thread_sends_next():
    with MockModelServer(lambda system, user: "") as server:
        with HTTPTransport(server.url) as transport:
            for _ in range(3):
                sender = threading.Thread(target=transport, args=({}, {"messages": []}, 5.0))
                sender.start()
                sender.join()
    assert (len(server.requests), server.connections) == (3, 1)


def pong(system, user):
    return json.dumps({"1": "pong"})


def test_a_parallel_run_opens_at_most_one_connection_per_worker(tmp_path):
    with MockModelServer(pong) as server:
        endpoint = EndpointConfig(name="http-mock", url=server.url, retry_base_s=0.0)
        prompts = [make_prompt(i) for i in range(12)]
        summary = run(prompts, endpoint, tmp_path / "run", parallelism=3)
    assert (summary["ok"], len(server.requests)) == (12, 12)
    assert 1 <= server.connections <= 3


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_run_closes_every_connection_it_opened(tmp_path, monkeypatch, fails):
    made = []

    class Kept(HTTPTransport):
        def __init__(self, url):
            super().__init__(url)
            made.append(self)  # kept alive, so no garbage collection closes a connection

    monkeypatch.setattr(runner, "HTTPTransport", Kept)
    if fails:
        def broken(raw, expected_keys):
            raise RuntimeError("planted parser fault")

        monkeypatch.setattr(runner, "parse_response", broken)
    # Eight workers, switching threads as often as the interpreter allows:
    # a connection lost from the transport's record stays open.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with MockModelServer(pong) as server:
            endpoint = EndpointConfig(name="http-mock", url=server.url, retry_base_s=0.0)
            prompts = [make_prompt(i) for i in range(24)]
            with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
                run(prompts, endpoint, tmp_path / "run", parallelism=8)
            deadline = time.monotonic() + 5
            while server.hung_up < server.connections and time.monotonic() < deadline:
                time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
    assert len(made) == 1 and server.connections >= 1
    assert server.hung_up == server.connections


@pytest.mark.skipif(sys.platform != "linux", reason="TCP_QUICKACK is Linux's")
def test_replies_on_a_reused_connection_are_not_held_by_delayed_acks(tmp_path):
    # MockModelServer sends the headers and the body as two writes with
    # Nagle's algorithm on: without an immediate ACK of the headers, each
    # reply on a reused connection waits for the client's delayed ACK.
    with MockModelServer(pong) as server:
        endpoint = EndpointConfig(name="http-mock", url=server.url, retry_base_s=0.0)
        run([make_prompt(i) for i in range(20)], endpoint, tmp_path / "run", parallelism=1)
    assert server.connections == 1
    latencies = [r.latency_ms for r in read_records(tmp_path / "run").values()]
    assert statistics.median(latencies) < 20


def read_request(conn) -> bytes | None:
    """The next request's bytes on ``conn``, or None when the client hung up."""
    request = b""
    while b"\r\n\r\n" not in request:
        data = conn.recv(65536)
        if not data:
            return None
        request += data
    head, _, body = request.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?i)content-length: *(\d+)", head)[1])
    while len(body) < length:
        body += conn.recv(65536)
    return request


ENVELOPE = json.dumps({"choices": [{"message": {"content": pong("", "")}}]}).encode()


def reply_bytes(head: bytes = b"HTTP/1.1 200 OK", body: bytes = ENVELOPE) -> bytes:
    return head + b"\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


@contextlib.contextmanager
def raw_server(replies):
    """An HTTP server on a raw socket that sends ``replies`` in turn, one per request.

    Each reply is ``(data, hang_up)``: ``data`` goes out as it is, and the
    connection is closed after it when ``hang_up``.  Connections are
    served one at a time; yields the URL and the list of accepted ones.
    """
    accepted = []

    def serve(listener):
        pending = list(replies)
        while pending:
            conn, _ = listener.accept()
            accepted.append(conn)
            with conn:
                while pending and read_request(conn) is not None:
                    data, hang_up = pending.pop(0)
                    conn.sendall(data)
                    if hang_up:
                        break

    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=serve, args=(listener,), daemon=True)
        server.start()
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/v1", accepted
        server.join(timeout=5)
    assert not server.is_alive()


def test_a_connection_the_server_dropped_while_idle_costs_no_attempt(tmp_path):
    reply = reply_bytes()
    hung_up = threading.Event()
    hung_up.set()

    def serve(listener):
        # One request per connection, then close it without "Connection: close".
        for _ in range(3):
            conn, _ = listener.accept()
            with conn:
                read_request(conn)
                conn.sendall(reply)
            hung_up.set()

    def after_the_server_hangs_up(headers, body, timeout):
        hung_up.wait(5)
        hung_up.clear()
        return transport(headers, body, timeout)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=serve, args=(listener,), daemon=True)
        server.start()
        port = listener.getsockname()[1]
        endpoint = EndpointConfig(
            name="drops", url=f"http://127.0.0.1:{port}/v1", retry_base_s=0.0, max_retries=2
        )
        prompts = [make_prompt(i) for i in range(3)]
        with HTTPTransport(endpoint.url) as transport:
            run(prompts, endpoint, tmp_path / "run", parallelism=1,
                transport=after_the_server_hangs_up)
        server.join(timeout=5)
    assert not server.is_alive()
    records = read_records(tmp_path / "run").values()
    assert [(r.status, r.attempts) for r in records] == [(STATUS_OK, 1)] * 3


def test_a_reply_cut_short_closes_its_connection_and_ends_as_a_transport_error(tmp_path):
    cut = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + ENVELOPE[:10]
    with raw_server([(cut, True)] * 2) as (url, accepted):
        endpoint = EndpointConfig(name="cut", url=url, retry_base_s=0.0, max_retries=1)
        with HTTPTransport(url) as transport:
            summary = run([make_prompt(0)], endpoint, tmp_path / "run", transport=transport)
            assert transport._idle == []
    assert (summary["transport_error"], len(accepted)) == (1, 2)
    record = read_records(tmp_path / "run")["x:p0:q0"]
    assert record.attempts == 2
    assert record.raw_text == "the reply body was cut short: 10 of 100 bytes"


@pytest.mark.parametrize(
    "head, error",
    [
        (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536, "a reply line is longer than 65536 bytes"),
        (b"HTTP/1.1 200 OK" + b"\r\nX-Many: 1" * 101, "the reply has more than 100 header lines"),
    ],
    ids=["long-line", "101-headers"],
)
def test_a_reply_past_http_client_limits_is_refused(head, error):
    with raw_server([(reply_bytes(head), False)]) as (url, _):
        with HTTPTransport(url) as transport:
            with pytest.raises(ValueError, match=error):
                transport({}, {"messages": []}, 5.0)
            assert transport._idle == []


def test_a_reply_at_http_client_limits_is_read():
    # 65,536 bytes in the longest line, and 100 header lines with Content-Length.
    head = b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65526 + b"\r\nX-Many: 1" * 98
    with raw_server([(reply_bytes(head), False)]) as (url, _):
        with HTTPTransport(url) as transport:
            assert transport({}, {"messages": []}, 5.0) == (200, ENVELOPE.decode())


@pytest.mark.parametrize(
    "headers, error",
    [
        ({"Authorization": "Bearer {api_key}"}, "header 'Authorization' has a CR or LF"),
        ({"X-Key": "{api_key}"}, "header 'X-Key' has a CR or LF"),
        ({"Bad:Name": "x"}, "header name 'Bad:Name' is not a valid field name"),
    ],
)
def test_a_header_http_client_would_refuse_raises_before_a_connection_is_taken(
    monkeypatch, headers, error
):
    monkeypatch.setenv("LINGOBF_TEST_KEY", "secret\r\nX-Injected: 1")
    endpoint = EndpointConfig(
        name="e", url="http://unused", api_key_env="LINGOBF_TEST_KEY", headers=headers
    )
    headers, body = build_request(endpoint, make_prompt(0))
    with MockModelServer(pong) as server:
        with HTTPTransport(server.url) as transport:
            with pytest.raises(ValueError, match=error) as exc:
                transport(headers, body, 5.0)
    assert server.connections == 0
    assert "secret" not in str(exc.value)


def test_each_request_is_one_write(monkeypatch):
    writes = []
    sendall = socket.socket.sendall

    def counted(sock, data, *args):
        if threading.current_thread() is threading.main_thread():  # not the server's
            writes.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counted)
    body = {"messages": [{"role": "user", "content": "é" * 5000}]}
    with MockModelServer(pong) as server:
        with HTTPTransport(server.url) as transport:
            for _ in range(3):
                assert transport({"X-A": "1"}, body, 5.0)[0] == 200
    assert len(writes) == len(server.requests) == 3
    for write, (_, headers, data) in zip(writes, server.requests):
        assert write.startswith(b"POST /v1/chat/completions HTTP/1.1\r\n")
        assert write.endswith(b"\r\n\r\n" + data) and headers["X-A"] == "1"


@pytest.mark.parametrize(
    "head, connections",
    [
        (b"HTTP/1.1 200 OK\r\nConnection: close", 2),
        (b"HTTP/1.0 200 OK", 2),
        (b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive", 1),
        (b"HTTP/1.1 200 OK", 1),
    ],
    ids=["close", "http-1.0", "http-1.0-keep-alive", "http-1.1"],
)
def test_a_reply_that_closes_its_connection_makes_the_next_request_open_one(head, connections):
    # The server keeps every connection open: only the client's reading of
    # the first reply can make the second request open a new one.
    with raw_server([(reply_bytes(head), False), (reply_bytes(), False)]) as (url, accepted):
        with HTTPTransport(url) as transport:
            for _ in range(2):
                assert transport({}, {"messages": []}, 5.0) == (200, ENVELOPE.decode())
    assert len(accepted) == connections


@pytest.mark.parametrize(
    "reply, expected",
    [
        (b"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n" + reply_bytes(),
         (200, ENVELOPE.decode(), True)),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
         (200, "abc", True)),
    ],
    ids=["103-skipped", "chunked-last"],
)
def test_read_reply_skips_every_1xx_and_dechunks_when_chunked_is_last(reply, expected):
    # http.client returns a 103 as the reply, and reads this body to the close.
    assert read_reply(io.BytesIO(reply)) == expected


@pytest.mark.parametrize(
    "reply, error",
    [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab",
         "Content-Length b'2, 3'"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "Content-Length b'-1'"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x3\r\nabc\r\n0\r\n\r\n",
         "chunk size"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcd\r\n0\r\n\r\n", "CRLF"),
        (b"ICY 200 OK\r\n\r\n", "not an HTTP/1.x status line"),
        (b"HTTP/1.1 2000 OK\r\n\r\n", "not an HTTP/1.x status line"),
    ],
    ids=[
        "two-lengths", "negative-length", "0x-chunk-size", "long-chunk", "not-http", "status-2000"
    ],
)
def test_read_reply_refuses_a_malformed_reply(reply, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        read_reply(io.BytesIO(reply))


def test_read_reply_cut_short_in_its_head_is_a_connection_error():
    for reply in (b"", b"HTTP/1.1 200 OK\r\nContent-Len"):
        with pytest.raises(ConnectionError, match="closed"):
            read_reply(io.BytesIO(reply))


def mixed_case(name: str):
    return st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(name, upper))
    )


@st.composite
def http_replies(draw) -> bytes:
    """A well-formed reply, optionally after 100 Continue, in each framing http.client reads."""
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    status = draw(st.sampled_from([200, 201, 204, 304, 404, 429, 500]))
    no_body = status in (204, 304)
    framings = ["length", "close"] if no_body else ["length", "chunked", "close"]
    framing = draw(st.sampled_from(framings))
    body = b"" if no_body else draw(
        st.binary(max_size=60) | st.text(max_size=30).map(str.encode)
    )
    fields = [(draw(mixed_case("Server")), "t")]
    charset = draw(st.sampled_from([None, "utf-8", "latin-1", '"ISO-8859-1"']))
    if charset or draw(st.booleans()):
        value = "application/json" + (f"; charset={charset}" if charset else "")
        fields.append((draw(mixed_case("Content-Type")), value))
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Keep-Alive", "CLOSE"]))
    if connection:
        fields.append((draw(mixed_case("Connection")), connection))
    if framing == "length":
        fields.append((draw(mixed_case("Content-Length")), str(len(body))))
    elif framing == "chunked":
        fields.append((draw(mixed_case("Transfer-Encoding")), "chunked"))
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=3)))
        chunks = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if b > a]
        hex_format = draw(st.sampled_from(["%x", "%X"]))
        extension = st.sampled_from(["", ";x", ';x="y z"', ";a=1;b=2"])
        body = b"".join(
            (hex_format % len(chunk) + draw(extension)).encode() + b"\r\n" + chunk + b"\r\n"
            for chunk in chunks
        )
        trailers = "".join(f"X-T{i}: {i}\r\n" for i in range(draw(st.integers(0, 2))))
        body += b"0" + draw(extension).encode() + b"\r\n" + trailers.encode() + b"\r\n"
    head = f"{version} {status} Reason\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in draw(st.permutations(fields))
    )
    interim = b"HTTP/1.1 100 Continue\r\n\r\n" * draw(st.integers(0, 2))
    return interim + head.encode("latin-1") + b"\r\n" + body


def http_client_reads(reply: bytes) -> tuple[int, str, bool]:
    """``http.client``'s reading of ``reply``: status, text, and if the connection stays open."""

    class Sock:
        def makefile(self, mode):
            return io.BytesIO(reply)

    response = http.client.HTTPResponse(Sock(), method="POST")
    response.begin()
    payload = response.read()
    charset = response.headers.get_content_charset() or "utf-8"
    return response.status, payload.decode(charset, errors="replace"), not response.will_close


@given(http_replies())
def test_read_reply_agrees_with_http_client(reply):
    # The start of a next reply follows: one read to the close takes it in
    # as body, and one that keeps the connection open must leave it unread.
    stream = reply + b"HTTP/1.1 "
    reader = io.BytesIO(stream)
    status, text, keep_alive = read_reply(reader)
    assert (status, text, keep_alive) == http_client_reads(stream)
    if keep_alive:
        assert reader.read() == b"HTTP/1.1 "


@pytest.fixture
def no_proxy_environment(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_run_sends_an_absolute_form_target_to_the_http_proxy(tmp_path, no_proxy_environment):
    with MockModelServer(pong) as proxy:
        origin = urllib.parse.urlsplit(proxy.url).netloc
        no_proxy_environment.setenv("http_proxy", f"http://user:p%40ss@{origin}")
        url = "http://model.invalid:8080/v1/chat/completions?x=1"
        endpoint = EndpointConfig(name="proxied", url=url, retry_base_s=0.0)
        summary = run([make_prompt(0)], endpoint, tmp_path / "run")
    assert summary["ok"] == 1
    [(target, headers, _)] = proxy.requests
    assert target == url
    assert headers["Host"] == "model.invalid:8080"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_no_proxy_sends_the_request_direct(tmp_path, no_proxy_environment):
    with MockModelServer(pong) as server:
        no_proxy_environment.setenv("http_proxy", "http://127.0.0.1:9")
        no_proxy_environment.setenv("no_proxy", "127.0.0.1")
        endpoint = EndpointConfig(name="direct", url=server.url, retry_base_s=0.0)
        summary = run([make_prompt(0)], endpoint, tmp_path / "run")
    assert summary["ok"] == 1
    assert [target for target, _, _ in server.requests] == ["/v1/chat/completions"]


def test_an_https_request_through_a_proxy_asks_for_a_tunnel(tmp_path, no_proxy_environment):
    with MockModelServer(pong) as proxy:  # it answers CONNECT with 501
        origin = urllib.parse.urlsplit(proxy.url).netloc
        no_proxy_environment.setenv("https_proxy", f"http://{origin}")
        endpoint = EndpointConfig(
            name="tunnel", url="https://model.invalid/v1", retry_base_s=0.0, max_retries=0
        )
        summary = run([make_prompt(0)], endpoint, tmp_path / "run")
    assert summary["transport_error"] == 1
    assert "Tunnel connection failed: 501" in read_records(tmp_path / "run")["x:p0:q0"].raw_text


def test_connection_refused_becomes_a_transport_error(tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # Nothing listens on the port once the socket is closed.
    endpoint = EndpointConfig(
        name="gone", url=f"http://127.0.0.1:{port}/v1", retry_base_s=0.0, max_retries=2
    )
    summary = run([make_prompt(0)], endpoint, tmp_path / "run")
    assert summary["transport_error"] == 1
    record = read_records(tmp_path / "run")["x:p0:q0"]
    assert record.attempts == 3
    assert "refused" in record.raw_text.lower()


def test_cli_run_needs_no_requests_package(tmp_path):
    prompts_path = tmp_path / "prompts.jsonl"
    write_prompts([make_prompt(i) for i in range(3)], prompts_path)
    with MockModelServer(lambda system, user: json.dumps({"1": "pong"})) as server:
        config = tmp_path / "endpoint.json"
        config.write_text(json.dumps({"name": "http-mock", "url": server.url}), encoding="utf-8")
        script = (
            "import sys; sys.modules['requests'] = None; "
            "from lingobf.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", script, "run", "--prompts", str(prompts_path),
             "--endpoint", str(config), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=60,
        )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"] == 3
    assert {r.parsed["1"] for r in read_records(tmp_path / "run").values()} == {"pong"}


# ---------------------------------------------------------------------------
# Error accounting


def test_summarize_errors_counts(tmp_path):
    replies = {
        "question 0": json.dumps({"1": "a"}),
        "question 1": "",
        "question 2": "",
        "question 3": "probably a dog",
    }

    def transport(headers, body, timeout):
        user = body["messages"][1]["content"]
        return 200, json.dumps({"choices": [{"message": {"content": replies[user]}}]})

    run([make_prompt(i) for i in range(4)], ENDPOINT, tmp_path / "run", transport=transport)
    summary = summarize_errors(tmp_path / "run")
    assert summary == {
        "endpoint": "mock",
        "total": 4,
        "empty": 2,
        "bad_parsing": 1,
        "transport_error": 0,
    }
    table = error_summary_table([summary])
    assert "| mock | 4 | 2 | 1 |" in table


def test_summarize_empty_run(tmp_path):
    (tmp_path / "run").mkdir()
    summary = summarize_errors(tmp_path / "run")
    assert summary["total"] == 0 and summary["empty"] == 0
