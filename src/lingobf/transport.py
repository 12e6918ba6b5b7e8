"""The HTTP/1.1 client that ``run`` sends its requests through.

:class:`HTTPTransport` is a :data:`lingobf.runner.Transport` for one
endpoint URL over a pool of kept-alive connections.  ``http.client`` only
opens those connections; each request is built whole here and sent in one
write, and :func:`read_reply` reads each reply (RFC 9112 §6 framing, with
``http.client``'s line and header limits) from one buffered reader per
connection.  The standard-library modules that only sending needs are
imported when a transport is made.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.parse

from . import __version__

_USER_AGENT = f"lingobf/{__version__}"

# The limits http.client puts on a reply: the length of one line and the
# number of header lines.
_MAX_LINE = 65536
_MAX_FIELDS = 100
# http.client's rules for a request header: a name, and a value with no CR
# or LF except where one begins a folded line.
_FIELD_NAME = re.compile(rb"[^:\s][^:\r\n]*")
_BARE_CR_OR_LF = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


def _field(name: str, value) -> bytes:
    """The header line ``name: value``, refused if ``http.client`` would refuse it.

    An integer value is sent as its decimal text, as ``http.client`` sends
    it.  The error names the header, never its value, which may be a
    credential.
    """
    if isinstance(value, int):
        value = str(value)
    if not isinstance(value, str):
        raise TypeError(f"header {name!r} is not a string")
    line = name.encode("ascii")
    if not _FIELD_NAME.fullmatch(line):
        raise ValueError(f"header name {name!r} is not a valid field name")
    data = value.encode("latin-1")
    if _BARE_CR_OR_LF.search(data):
        raise ValueError(f"header {name!r} has a CR or LF in its value")
    return line + b": " + data + b"\r\n"


def _hang_up(connection: tuple) -> None:
    sock, reader = connection
    reader.close()
    sock.close()


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"a reply line is longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ConnectionError("the connection closed in the middle of the reply")
    return line


def _read_exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise ConnectionError(f"the reply body was cut short: {len(data)} of {size} bytes")
    return data


def _read_fields(reader) -> dict[bytes, bytes]:
    """The header (or trailer) fields up to the blank line, by lower-case name.

    The values of a name given twice are joined with ", " (RFC 9110 §5.3).
    """
    fields: dict[bytes, bytes] = {}
    count = 0
    while (line := _read_line(reader)) not in (b"\r\n", b"\n"):
        count += 1
        if count > _MAX_FIELDS:
            raise ValueError(f"the reply has more than {_MAX_FIELDS} header lines")
        name, _, value = line.partition(b":")
        name = name.lower()
        value = value.strip()
        fields[name] = fields[name] + b", " + value if name in fields else value
    return fields


def _read_chunked(reader) -> bytes:
    chunks = []
    while True:
        digits = _read_line(reader).partition(b";")[0].strip()  # drops any chunk extension
        if not _CHUNK_SIZE.fullmatch(digits):
            raise ValueError(f"chunk size {digits[:80]!r} is not a hexadecimal number")
        size = int(digits, 16)
        if size == 0:
            _read_fields(reader)  # the trailer, unused
            return b"".join(chunks)
        chunk = _read_exactly(reader, size + 2)
        if chunk[size:] != b"\r\n":
            raise ValueError("a chunk's data does not end with CRLF")
        chunks.append(chunk[:size])


def read_reply(reader) -> tuple[int, str, bool]:
    """``(status, text, keep_alive)`` of the next reply on ``reader``.

    1xx interim replies are skipped.  The body's length follows RFC 9112
    §6.3: none for 204 and 304; chunked when that is the last transfer
    coding; else one valid Content-Length; else up to the end of the
    connection.  The connection stays open unless the reply says
    ``Connection: close``, is HTTP/1.0 without ``Connection: keep-alive``,
    or is delimited by closing.  The body is decoded by the charset of its
    Content-Type (UTF-8 without one), invalid bytes replaced.  A reply
    that breaks these rules, or a line or header count over
    ``http.client``'s limits, raises ``ValueError``; a reply cut short
    raises ``ConnectionError``.
    """
    status = 0
    while status < 200:
        line = _read_line(reader)
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not parts[1].isdigit():
            raise ValueError(f"{line[:80]!r} is not an HTTP/1.x status line")
        version, status = parts[0], int(parts[1])
        if not 100 <= status <= 999:
            raise ValueError(f"{line[:80]!r} is not an HTTP/1.x status line")
        fields = _read_fields(reader)
    tokens = {token.strip() for token in fields.get(b"connection", b"").lower().split(b",")}
    keep_alive = b"keep-alive" in tokens if version == b"HTTP/1.0" else b"close" not in tokens
    coding = fields.get(b"transfer-encoding")
    length = fields.get(b"content-length")
    if status in (204, 304):
        body = b""
    elif coding is not None and coding.rpartition(b",")[2].strip().lower() == b"chunked":
        body = _read_chunked(reader)
    elif coding is None and length is not None:
        if not length.isdigit():
            raise ValueError(f"Content-Length {length[:80]!r} is not one non-negative integer")
        body = _read_exactly(reader, int(length))
    else:
        body = reader.read()
        keep_alive = False
    charset = "utf-8"
    for parameter in fields.get(b"content-type", b"").split(b";")[1:]:
        name, _, value = parameter.partition(b"=")
        if name.strip().lower() == b"charset":
            charset = value.strip().strip(b'"').decode("latin-1") or charset
            break
    return status, body.decode(charset, errors="replace"), keep_alive


class HTTPTransport:
    """POST ``body`` as UTF-8 JSON to ``url`` over a pool of kept-alive connections.

    A :data:`lingobf.runner.Transport` for one endpoint: the request target, the proxy
    and its credentials are worked out once, here.  A request takes an
    idle connection (or opens one) and puts it back when it ends, so no
    more connections are open than requests were ever in flight at once;
    ``close`` (or leaving its ``with`` block) closes the idle ones.  An
    HTTP error status comes back as ``(status, text)``, not as an
    exception, so that ``_query_one`` decides what to retry.  A request
    that fails closes its connection and raises; it is never re-sent
    here.  A connection the server closed while it was idle is replaced
    before the request is sent.

    ``http.client`` only opens connections (``TCP_NODELAY``, the proxy
    tunnel, TLS).  Each request is built whole, its headers checked before
    a connection is taken, and sent in one write; :func:`read_reply`
    reads the reply from a buffered reader that lives as long as its
    connection.  Proxies come from the environment (``http_proxy``,
    ``https_proxy``, ``no_proxy``); HTTPS verifies against the system CA
    store.
    """

    def __init__(self, url: str) -> None:
        import base64
        import http.client
        import socket
        import urllib.request

        parts = urllib.parse.urlsplit(url)
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        origin = parts.netloc.rpartition("@")[2]
        self._address = origin
        self._tunnel: str | None = None  # the origin, for HTTPS through a proxy
        proxy_headers: dict = {}  # for each request through an HTTP proxy, or the CONNECT
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.netloc):
            proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_parts.username is not None:
                credentials = ":".join(
                    urllib.parse.unquote(part or "")
                    for part in (proxy_parts.username, proxy_parts.password)
                )
                proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    credentials.encode("utf-8")
                ).decode("ascii")
            self._address = proxy_parts.netloc.rpartition("@")[2]
            if parts.scheme == "https":
                self._tunnel = origin
            else:  # absolute form, for the proxy
                target = f"http://{origin}{target}"
        self._proxy_headers = proxy_headers
        self._request_line = f"POST {target} HTTP/1.1\r\n".encode("ascii")
        try:
            host = origin.encode("ascii")
        except UnicodeEncodeError:
            host = origin.encode("idna")
        # Sent unless the request's headers name them (case-insensitively).
        self._defaults = (
            ("host", b"Host: " + host + b"\r\n"),
            ("accept-encoding", b"Accept-Encoding: identity\r\n"),
            ("content-type", b"Content-Type: application/json\r\n"),
            ("user-agent", _field("User-Agent", _USER_AGENT)),
        )
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        quickack = getattr(socket, "TCP_QUICKACK", None)  # Linux only
        self._quickack = (socket.IPPROTO_TCP, quickack, 1) if quickack is not None else None
        self._lock = threading.Lock()
        self._idle: list = []  # (socket, reader) of each idle connection

    def __enter__(self) -> "HTTPTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            for connection in self._idle:
                _hang_up(connection)
            self._idle.clear()

    def _open(self, timeout_s: float) -> tuple:
        connection = self._connection_class(self._address, timeout=timeout_s)
        if self._tunnel is not None:
            connection.set_tunnel(self._tunnel, headers=self._proxy_headers)
        try:
            connection.connect()
        except BaseException:
            connection.close()
            raise
        return connection.sock, connection.sock.makefile("rb")

    def __call__(self, headers: dict, body: dict, timeout_s: float) -> tuple[int, str]:
        import select

        # Built first: a request that cannot be sent never takes a connection.
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        if self._tunnel is None:
            headers = {**headers, **self._proxy_headers}
        names = {name.lower() for name in headers}
        lines = [self._request_line]
        lines += [line for name, line in self._defaults if name not in names]
        lines += [_field(name, value) for name, value in headers.items()]
        if "content-length" not in names:
            lines.append(b"Content-Length: %d\r\n" % len(data))
        request = b"".join([*lines, b"\r\n", data])
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is not None and select.select([connection[0]], [], [], 0)[0]:
            # An idle connection has nothing to read unless the server closed it.
            _hang_up(connection)
            connection = None
        if connection is None:
            connection = self._open(timeout_s)
        sock, reader = connection
        try:
            sock.settimeout(timeout_s)
            sock.sendall(request)
            if self._quickack:
                # A server that writes the headers and then the body with
                # Nagle's algorithm on holds the body until the headers are
                # acknowledged, and on a reused connection the kernel would
                # delay that acknowledgement by up to 40 ms.  Linux resets
                # the option by itself, so it is set for every reply.
                sock.setsockopt(*self._quickack)
            status, text, keep_alive = read_reply(reader)
        except BaseException:
            _hang_up(connection)
            raise
        if keep_alive:
            with self._lock:
                self._idle.append(connection)
        else:
            _hang_up(connection)
        return status, text
