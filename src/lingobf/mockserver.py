"""In-process mock model endpoint for tests and offline demos.

Serves a chat-completion-shaped API on localhost: POST bodies with
``messages`` come in, ``{"choices": [{"message": {"content": ...}}]}``
goes out.  The reply is produced by a caller-supplied function of
(system, user), so tests can script planted empty/garbage responses or
fault injection without any network: a ``(status, text)`` reply is sent
as-is with that HTTP status instead of a chat-completion envelope.
:func:`knowledge_reply` is the scripted knowledge-lookup model shared by
the tests and the demo.
"""

from __future__ import annotations

import json
import re
import threading
from http.client import HTTPMessage
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable

from . import annotations
from .corpus import Corpus, DatasetRecord, _problem_documents

ReplyFn = Callable[[str, str], str | tuple[int, str]]

_WORD = re.compile(r"[^\W\d_]+")


def knowledge_reply(corpus: Corpus, records: Iterable[DatasetRecord]) -> ReplyFn:
    """A scripted model that answers by dictionary lookup of original words.

    A Problemese token of one problem's unobfuscated documents names that
    problem (a token of two problems names none); the key set of the
    prompt's JSON skeleton names the question; the reply is the p=0 gold.
    Any other prompt gets a useless-but-parseable reply.  Original prompts
    thus score through language knowledge alone, obfuscated ones do not.
    """
    owners: dict[str, set[str]] = {}
    for problem in corpus.problems:
        for doc in _problem_documents(problem).values():
            for span in doc.problemese_spans:
                for token in _WORD.findall(annotations.unescape(span.text)):
                    owners.setdefault(token, set()).add(problem.id)
    word_to_problem = {token: ids.pop() for token, ids in owners.items() if len(ids) == 1}
    answer_key = {
        (r.problem_id, frozenset(r.expected_keys)): r.answers for r in records if r.p == 0
    }

    def reply(system: str, user: str) -> str:
        hits = {word_to_problem[t] for t in _WORD.findall(user) if t in word_to_problem}
        if len(hits) == 1:
            keys = frozenset(json.loads(user.rstrip().splitlines()[-1]))
            answers = answer_key.get((hits.pop(), keys))
            if answers is not None:
                return json.dumps(answers, ensure_ascii=False)
        return json.dumps({"note": "no idea"})

    return reply


class MockModelServer:
    """Context manager running a scripted model endpoint on a free port.

    It speaks HTTP/1.1 with keep-alive and, like ``http.server`` handlers
    in general, leaves Nagle's algorithm on and writes the headers and the
    body separately.  ``connections`` counts the connections it accepted,
    ``hung_up`` those it served until the client closed them, and
    ``requests`` holds each request's target, headers and body bytes.
    """

    def __init__(self, reply_fn: ReplyFn):
        self.reply_fn = reply_fn
        self.connections = 0
        self.hung_up = 0
        self.requests: list[tuple[str, HTTPMessage, bytes]] = []
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        assert self._server is not None, "server not started"
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "MockModelServer":
        mock = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def handle(self):
                with mock._lock:
                    mock.connections += 1
                super().handle()
                if not self.raw_requestline:  # the client closed the connection
                    with mock._lock:
                        mock.hung_up += 1

            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers.get("Content-Length", 0))
                data = self.rfile.read(length)
                with mock._lock:
                    mock.requests.append((self.path, self.headers, data))
                body = json.loads(data or b"{}")
                system = ""
                user = ""
                for message in body.get("messages", []):
                    if message.get("role") == "system":
                        system = message.get("content", "")
                    elif message.get("role") == "user":
                        user = message.get("content", "")
                reply = mock.reply_fn(system, user)
                if isinstance(reply, tuple):
                    status, text = reply
                else:
                    status = 200
                    text = json.dumps(
                        {"choices": [{"message": {"content": reply}}]}, ensure_ascii=False
                    )
                payload = text.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):  # silence request logging
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
