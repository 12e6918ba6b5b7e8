"""Execute prompts against chat-completion endpoints and recover answers.

Endpoints are described declaratively: a URL, header and body templates
with ``{system}`` / ``{user}`` / ``{model}`` / ``{api_key}`` slots, and a
dot-path to the text field of the response envelope.  Nothing here is
provider-specific; pointing the harness at a new API is a config edit.

Raw response text is always persisted verbatim before parsing, so
improved recovery can re-score a run without re-querying.  Runs are
resumable: records.jsonl is append-only, one final record per prompt_id,
and a rerun skips prompts that already have a final record.

Response recovery ladder (applied in order until one succeeds):

1. direct JSON-object parse;
2. strip surrounding code fences and re-parse;
3. decode the JSON object that starts at the first ``{``;
4. per-key regex for ``"<key>": "..."`` pairs.

Missing keys are scored as wrong downstream, not treated as parse
failures; only total failure is ``bad_parsing``.  Blank responses are
``empty``.  Unparsed responses are never dropped: scoring counts them as
incorrect.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import jsonio
from .prompts import PromptInstance
from .transport import HTTPTransport

STATUS_OK = "ok"
STATUS_EMPTY = "empty"
STATUS_BAD_PARSING = "bad_parsing"
STATUS_TRANSPORT_ERROR = "transport_error"
_STATUSES = (STATUS_OK, STATUS_EMPTY, STATUS_BAD_PARSING, STATUS_TRANSPORT_ERROR)

# transport(headers, body, timeout_s) -> (status_code, response_text)
Transport = Callable[[dict, dict, float], tuple[int, str]]

# What http.client refuses in a request target: a space, a control
# character, or (since the request line is ASCII) anything past ASCII.
_NOT_IN_A_TARGET = re.compile(r"[^!-~]")

# time.sleep adds its wait to the monotonic clock in int64 ns: this leaves the clock room.
_LONGEST_WAIT_S = threading.TIMEOUT_MAX / 2


@dataclass(frozen=True)
class EndpointConfig:
    """Declarative description of one model endpoint.

    ``headers`` values may contain ``{api_key}``; ``body`` is a JSON
    template whose string leaves may contain ``{system}``, ``{user}`` and
    ``{model}``.  Temperature defaults to 0 (and is simply absent for
    endpoints that do not support it -- omit it from the body template).
    """

    name: str
    url: str
    model: str = ""
    api_key_env: str | None = None
    headers: dict = field(default_factory=lambda: {"Content-Type": "application/json"})
    body: dict | None = None
    response_path: str = "choices.0.message.content"
    temperature: float | None = 0.0
    max_output_tokens: int | None = None
    timeout_s: float = 120.0
    max_retries: int = 3
    retry_base_s: float = 1.0

    @classmethod
    def from_file(cls, path: str | Path) -> "EndpointConfig":
        """The config in the JSON file ``path``; ``ValueError`` names the file and any field
        that is unknown, of another JSON type than its annotation, or refused by ``__post_init__``.
        """
        return jsonio.read_json(path, cls.from_dict)

    def __post_init__(self) -> None:
        """Refuse a config that ``run`` cannot use.

        ``url`` must be an ``http://`` or ``https://`` URL with a host;
        ``temperature``, ``timeout_s`` and ``retry_base_s`` must not be NaN
        or infinite (Python's JSON reader accepts those literals); and
        ``timeout_s``, ``max_retries`` and ``retry_base_s`` must not be
        negative; the URL's path and query must be printable ASCII without
        spaces, as a request line needs them; and the longest wait between
        attempts, ``retry_base_s * 2**(max_retries - 1)`` seconds, must not
        be over half of ``threading.TIMEOUT_MAX``, which ``time.sleep``
        takes wherever the monotonic clock stands.
        """
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"url is {jsonio.dumps(self.url)}, not an http:// or https:// URL with a host"
            )
        if _NOT_IN_A_TARGET.search(parts.path + parts.query):
            raise ValueError(
                f"url is {jsonio.dumps(self.url)}, whose path or query has a space, "
                "a control character or a non-ASCII character"
            )
        for name in ("temperature", "timeout_s", "retry_base_s"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is {jsonio.dumps(value)}, not a finite number")
        for name in ("timeout_s", "max_retries", "retry_base_s"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} is {jsonio.dumps(value)}, which is negative")
        if self.max_retries and self.retry_wait_s(self.max_retries) > _LONGEST_WAIT_S:
            raise ValueError(
                f"retry_base_s is {jsonio.dumps(self.retry_base_s)}: with max_retries "
                f"{self.max_retries}, the longest wait between attempts, retry_base_s * "
                f"2**(max_retries - 1) s, is over half of threading.TIMEOUT_MAX "
                f"({_LONGEST_WAIT_S:.0f} s)"
            )

    def retry_wait_s(self, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (from 1); ``inf`` past any float."""
        try:
            return math.ldexp(self.retry_base_s, attempt - 1)
        except OverflowError:
            return math.inf

    def default_body(self) -> dict:
        body: dict = {
            "model": "{model}",
            "messages": [
                {"role": "system", "content": "{system}"},
                {"role": "user", "content": "{user}"},
            ],
        }
        if self.temperature is not None:
            body["temperature"] = self.temperature
        if self.max_output_tokens is not None:
            body["max_tokens"] = self.max_output_tokens
        return body


# A config file names only fields: a misspelt one is refused, not ignored.
jsonio.codec(EndpointConfig, closed=True)


_SLOT = re.compile(r"\{(system|user|model|api_key)\}")


def _fill(template, values: Mapping[str, str]):
    """Single-pass slot substitution on every string leaf of a JSON template."""
    if isinstance(template, str):
        return _SLOT.sub(lambda m: values.get(m.group(1), m.group(0)), template)
    if isinstance(template, list):
        return [_fill(item, values) for item in template]
    if isinstance(template, dict):
        return {key: _fill(value, values) for key, value in template.items()}
    return template


def _api_key(endpoint: EndpointConfig) -> str:
    """The credential named by ``api_key_env`` ("" when none is named)."""
    if not endpoint.api_key_env:
        return ""
    api_key = os.environ.get(endpoint.api_key_env, "")
    if not api_key:
        raise RuntimeError(f"credential environment variable {endpoint.api_key_env} is not set")
    return api_key


def build_request(endpoint: EndpointConfig, prompt: PromptInstance) -> tuple[dict, dict]:
    values = {
        "system": prompt.system_message,
        "user": prompt.user_message,
        "model": endpoint.model,
        "api_key": _api_key(endpoint),
    }
    headers = _fill(endpoint.headers, values)
    body = _fill(endpoint.body or endpoint.default_body(), values)
    return headers, body


def extract_text(envelope_text: str, response_path: str) -> str:
    """Walk the dot-path into the response envelope; raises on any mismatch."""
    node = json.loads(envelope_text)
    for part in response_path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(part)
    if not isinstance(node, str):
        raise TypeError(f"response path {response_path} did not reach a string")
    return node


# ---------------------------------------------------------------------------
# Response parsing


_FENCE = re.compile(r"^```[^\n]*\n(.*?)\n?```\s*$", re.DOTALL)


def _coerce(value) -> str:
    return value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)


# Besides malformed JSON (JSONDecodeError, a ValueError), the decoder
# raises ValueError for an integer longer than the interpreter's digit
# limit (4300 by default) and RecursionError for nesting past the
# recursion limit: each is an unparsed reply, never a crashed run.
_UNDECODABLE = (ValueError, RecursionError)
_DECODER = json.JSONDecoder()


def _direct(raw: str, expected_keys: Sequence[str]) -> dict | None:
    try:
        obj = json.loads(raw)
    except _UNDECODABLE:
        return None
    return obj if isinstance(obj, dict) else None


def _fenced(raw: str, expected_keys: Sequence[str]) -> dict | None:
    m = _FENCE.match(raw.strip())
    return _direct(m.group(1), expected_keys) if m else None


def _embedded(raw: str, expected_keys: Sequence[str]) -> dict | None:
    """The JSON object that starts at the first ``{``, if there is one."""
    try:
        return _DECODER.raw_decode(raw, raw.index("{"))[0]
    except _UNDECODABLE:
        return None


def _key_pairs(raw: str, expected_keys: Sequence[str]) -> dict | None:
    """Each expected ``"key": "string"`` pair found anywhere in the text.

    A key whose captured value is not a valid JSON string is skipped.
    """
    found: dict[str, str] = {}
    for key in expected_keys:
        m = re.search(r'"%s"\s*:\s*"((?:[^"\\]|\\.)*)"' % re.escape(key), raw)
        if m:
            try:
                found[key] = json.loads(f'"{m.group(1)}"')
            except json.JSONDecodeError:
                pass
    return found or None


_LADDER = (_direct, _fenced, _embedded, _key_pairs)


def parse_response(
    raw: str, expected_keys: Sequence[str]
) -> tuple[dict[str, str] | None, str]:
    """(parsed key->answer map, status) for a raw model response."""
    if not raw or not raw.strip():
        return None, STATUS_EMPTY
    for rung in _LADDER:
        obj = rung(raw, expected_keys)
        if obj is not None:
            return {str(k): _coerce(v) for k, v in obj.items()}, STATUS_OK
    return None, STATUS_BAD_PARSING


# ---------------------------------------------------------------------------
# Run loop


@dataclass(frozen=True)
class ResponseRecord:
    prompt_id: str
    status: str
    raw_text: str
    parsed: dict[str, str] | None
    attempts: int
    latency_ms: float
    timestamp: str

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            shown = ", ".join(map(jsonio.dumps, _STATUSES))
            raise ValueError(f"status is {jsonio.dumps(self.status)}, not one of {shown}")


jsonio.codec(ResponseRecord)


def read_records(run_dir: str | Path) -> dict[str, ResponseRecord]:
    """Final records by prompt_id.

    A line that does not decode to a complete record raises ``ValueError``
    naming the file and the 1-based line number.  The one exception is a
    final line without its newline: the torn tail of an interrupted write,
    which is skipped so that its prompt is re-run.
    """
    path = Path(run_dir) / "records.jsonl"
    records: dict[str, ResponseRecord] = {}
    if not path.is_file():
        return records
    for record in jsonio.read_lines(path, ResponseRecord.from_dict, torn_tail=True):
        records.setdefault(record.prompt_id, record)
    return records


# A client error is final: the same request would fail again.  Only a
# timeout (408) and a rate limit (429) are worth another attempt.
_RETRIED_4XX = (408, 429)


def _query_one(
    prompt: PromptInstance,
    endpoint: EndpointConfig,
    transport: Transport,
) -> ResponseRecord:
    headers, body = build_request(endpoint, prompt)
    started = time.perf_counter()
    attempts = 0
    raw: str | None = None
    failure = ""
    while attempts <= endpoint.max_retries:
        attempts += 1
        try:
            code, text = transport(headers, body, endpoint.timeout_s)
            if code == 200:
                raw = extract_text(text, endpoint.response_path)
                break
            failure = f"HTTP {code}: {text[:200]}"
            if 400 <= code < 500 and code not in _RETRIED_4XX:
                break
        except Exception as exc:  # noqa: BLE001 - transport failures are data
            failure = str(exc)
        if attempts <= endpoint.max_retries:
            time.sleep(endpoint.retry_wait_s(attempts))
    latency_ms = (time.perf_counter() - started) * 1000.0

    if raw is None:
        parsed, status = None, STATUS_TRANSPORT_ERROR
        raw_text = failure
    else:
        parsed, status = parse_response(raw, prompt.expected_keys)
        raw_text = raw

    return ResponseRecord(
        prompt_id=prompt.prompt_id,
        status=status,
        raw_text=raw_text,
        parsed=parsed,
        attempts=attempts,
        latency_ms=round(latency_ms, 3),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def run(
    prompts: Sequence[PromptInstance],
    endpoint: EndpointConfig,
    run_dir: str | Path,
    *,
    parallelism: int = 4,
    transport: Transport | None = None,
) -> dict:
    """Query every prompt once, with retries, resumption and bounded parallelism.

    Exactly one final record per prompt_id lands in records.jsonl; reruns
    skip prompt_ids that already have one.  Transport failures after the
    retry budget, and a 4xx reply other than 408 or 429 at once, become
    ``transport_error`` records, never exceptions.  A missing credential,
    or a ``parallelism`` below 1, raises before the run directory is
    touched.  Without ``transport``, requests go to ``endpoint.url`` over
    one :class:`HTTPTransport`: a pool that holds at most one connection per
    request in flight, reuses each for whichever worker sends next, and
    closes them all when the run ends.
    """
    if not prompts:
        raise ValueError("no prompts to run")
    if parallelism < 1:
        raise ValueError(f"parallelism is {parallelism}, not at least 1")
    _api_key(endpoint)  # fail before the run directory is touched
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    # A bad records line raises here, before either file is written.
    done = read_records(run_dir)
    pending = [p for p in prompts if p.prompt_id not in done]
    records_path = run_dir / "records.jsonl"
    # A crash can leave a torn final line, which read_records skipped; cut
    # it off so appended records start on a fresh line (its prompt is re-run).
    if records_path.is_file():
        with records_path.open("rb+") as fh:
            complete = sum(len(line) for line in fh if line.endswith(b"\n"))
            if complete < fh.tell():
                fh.truncate(complete)
    jsonio.write_json(
        run_dir / "manifest.json",
        {"schema_version": 1, "endpoint": endpoint.name, "prompts": len(prompts)},
    )

    lock = threading.Lock()

    def worker(prompt: PromptInstance) -> str:
        record = _query_one(prompt, endpoint, send)
        line = jsonio.dumps(record.to_dict()) + "\n"
        with lock:
            records_file.write(line)
            records_file.flush()
        return record.status

    statuses: list[str] = []
    if pending:
        # One append handle for the whole run; each record is flushed whole
        # under the lock, so a crash can tear only the last line.  The pool
        # exits first, so the transport closes its connections only after
        # every worker has finished, whether the run ends or raises.
        with (
            contextlib.nullcontext(transport) if transport else HTTPTransport(endpoint.url)
        ) as send, records_path.open("a", encoding="utf-8") as records_file, ThreadPoolExecutor(
            max_workers=parallelism
        ) as pool:
            statuses = list(pool.map(worker, pending))

    summary = {
        "endpoint": endpoint.name,
        "total": len(prompts),
        "skipped": len(prompts) - len(pending),
        "ran": len(pending),
    }
    for status in _STATUSES:
        summary[status] = statuses.count(status)
    return summary


# ---------------------------------------------------------------------------
# Error accounting


def summarize_errors(run_dir: str | Path) -> dict:
    """Per-run response error counts: total / empty / bad parsing."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    manifest = jsonio.read_json(manifest_path, dict) if manifest_path.is_file() else {}
    records = read_records(run_dir)
    return {
        "endpoint": manifest.get("endpoint", run_dir.name),
        "total": len(records),
        "empty": sum(1 for r in records.values() if r.status == STATUS_EMPTY),
        "bad_parsing": sum(1 for r in records.values() if r.status == STATUS_BAD_PARSING),
        "transport_error": sum(
            1 for r in records.values() if r.status == STATUS_TRANSPORT_ERROR
        ),
    }


def error_summary_table(summaries: Iterable[Mapping]) -> str:
    lines = [
        "| Model | Total | Empty Response | Bad Parsing |",
        "| --- | --- | --- | --- |",
    ]
    for s in summaries:
        lines.append(f"| {s['endpoint']} | {s['total']} | {s['empty']} | {s['bad_parsing']} |")
    return "\n".join(lines)
