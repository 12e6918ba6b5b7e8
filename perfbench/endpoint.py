"""The benchmark's chat-completion endpoint, run as a child process.

    python3 endpoint.py PROMPTS.jsonl SEED

It speaks HTTP/1.1 with keep-alive on 127.0.0.1 from a pool of at most
``nproc`` handler threads.  Readiness is the line ``ready PORT`` on stdout.
Control is line-based on stdin: ``stats`` answers with one JSON line of
counters, ``reset`` forgets which prompts were already attempted (so the
planted first-attempt faults repeat in the next pass) and answers ``ok``,
and end of input shuts the server down, prints the final counters and
exits.

Every reply is planted: :func:`plant` chooses its kind from a hash of the
seed and the prompt id, which the endpoint finds from the user message,
and spreads first-attempt faults evenly over the prompt file.  The same
function tells the output checks what the runner must record.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import socketserver
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

# Reply kinds and their weights out of 100.  The first four are recovered
# by rungs 1-4 of the runner's parse-recovery ladder.
KINDS = (
    ("json", 40),
    ("fence", 15),
    ("prose", 15),
    ("fragment", 14),
    ("empty", 8),
    ("unparseable", 8),
)
# First-attempt faults: a 500, or a 429 with Retry-After: 0, for 2 of every
# 25 consecutive prompts of the prompt file.  Spreading them evenly keeps
# the number of retries in any half of the file the same for every seed.
FAULT_PERIOD = 25
FAULT_SLOTS = {0: 500, 1: 429}


def _hash(*parts: object) -> int:
    data = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def _pick(table, roll: int):
    for value, weight in table:
        if roll < weight:
            return value
        roll -= weight
    return None


def plant(seed: int, prompt_id: str, keys: list[str], position: int) -> dict:
    """Reply kind, first-attempt fault and answers planted for the prompt at ``position``."""
    return {
        "kind": _pick(KINDS, _hash("plant", seed, prompt_id) % 100),
        "fault": FAULT_SLOTS.get((position + seed) % FAULT_PERIOD),
        "answers": {key: f"w{_hash('answer', seed, prompt_id, key) % 10**6:06d}" for key in keys},
    }


def reply_text(planted: dict) -> str:
    body = json.dumps(planted["answers"], ensure_ascii=False)
    kind = planted["kind"]
    if kind == "json":
        return body
    if kind == "fence":
        return f"```json\n{body}\n```"
    if kind == "prose":
        return f"Sure. After comparing the forms, my answer is:\n{body}\nI hope this helps."
    if kind == "fragment":
        pairs = ", ".join(f'"{k}": "{v}"' for k, v in planted["answers"].items())
        return f"answers follow -> {pairs} (the rest was cut off"
    if kind == "empty":
        return ""
    return "I could not work out the rules of this language."


def expected_record(planted: dict) -> tuple[str, dict | None, int]:
    """(status, parsed answers, attempts) the runner must record for a planted reply."""
    attempts = 2 if planted["fault"] else 1
    if planted["kind"] == "empty":
        return "empty", None, attempts
    if planted["kind"] == "unparseable":
        return "bad_parsing", None, attempts
    return "ok", planted["answers"], attempts


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 60

    def do_POST(self):  # noqa: N802 - http.server API
        started = time.perf_counter()
        server: Endpoint = self.server
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        user = next(
            (m.get("content", "") for m in body.get("messages", []) if m.get("role") == "user"),
            "",
        )
        entry = server.index.get(hashlib.sha256(user.encode("utf-8")).hexdigest())
        if entry is None:
            code, kind, text = 500, "unknown_prompt", "unknown prompt"
        else:
            planted = plant(server.seed, *entry)
            with server.lock:
                server.attempted[entry[0]] = server.attempted.get(entry[0], 0) + 1
                first = server.attempted[entry[0]] == 1
            if first and planted["fault"]:
                code, kind, text = planted["fault"], f"http_{planted['fault']}", "planted fault"
            else:
                code, kind = 200, planted["kind"]
                text = json.dumps(
                    {"choices": [{"message": {"content": reply_text(planted)}}]},
                    ensure_ascii=False,
                )
        payload = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if code == 429:
            self.send_header("Retry-After", "0")
        self.end_headers()
        self.wfile.write(payload)
        with server.lock:
            server.counters["requests"] += 1
            server.kinds[kind] = server.kinds.get(kind, 0) + 1
            server.counters["busy_s"] += time.perf_counter() - started

    def log_message(self, *args):  # silence request logging
        pass


class Endpoint(HTTPServer):
    """HTTP server whose connections are served by a fixed thread pool."""

    def __init__(self, index: dict, seed: int, threads: int):
        self.index = index
        self.seed = seed
        self.lock = threading.Lock()
        self.attempted: dict[str, int] = {}
        self.counters = {"requests": 0, "connections": 0, "busy_s": 0.0}
        self.kinds: dict[str, int] = {}
        self.threads = threads
        self.pool = ThreadPoolExecutor(max_workers=threads)
        super().__init__(("127.0.0.1", 0), _Handler)

    def server_bind(self):
        # HTTPServer.server_bind resolves the host name; a loopback
        # benchmark has no use for that lookup.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]

    def process_request(self, request, client_address):
        with self.lock:
            self.counters["connections"] += 1
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - one broken connection must not stop the server
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def stats(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with self.lock:
            return {
                **self.counters,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "threads": self.threads,
                "kinds": dict(sorted(self.kinds.items())),
            }


def load_index(prompts_path: str) -> dict[str, tuple[str, list[str], int]]:
    """sha256 of each user message -> (prompt id, expected keys, position in the file)."""
    index = {}
    with open(prompts_path, encoding="utf-8") as fh:
        for position, line in enumerate(fh):
            prompt = json.loads(line)
            digest = hashlib.sha256(prompt["user"].encode("utf-8")).hexdigest()
            if digest in index:
                raise SystemExit(f"two prompts share a user message: {prompt['prompt_id']}")
            index[digest] = (prompt["prompt_id"], prompt["expected_keys"], position)
    return index


def main(argv: list[str]) -> int:
    prompts_path, seed = argv[0], int(argv[1])
    server = Endpoint(load_index(prompts_path), seed, len(os.sched_getaffinity(0)))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"ready {server.server_port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(server.stats(), sort_keys=True), flush=True)
            elif command == "reset":
                with server.lock:
                    server.attempted.clear()
                print("ok", flush=True)
    finally:
        server.shutdown()
        thread.join()
        server.pool.shutdown(wait=True)
        server.server_close()
    print(json.dumps(server.stats(), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
