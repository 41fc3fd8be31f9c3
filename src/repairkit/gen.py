"""Prompt construction and the candidate-generation backend protocol.

The toolkit is model-agnostic: a backend is anything that accepts
`{"prompt", "n", "max_new_tokens", "stop"}` over HTTP (JSON bodies) and
returns `{"outputs": [text, ...]}` in preference order, or any in-process
object with the same `complete()` signature. Decoding strategy (beam
search, sampling) is the backend's concern; the client only transmits how
many ranked candidates it wants.
"""
from __future__ import annotations

import json
import re
import threading
import time
from collections.abc import Mapping, Set
from typing import Callable, Optional, Sequence

from .config import DEFAULT_STOP_TOKENS, Backend, GenerationConfig, decode  # first two re-exported
from .errors import (
    BackendError,
    BackendTimeout,
    BackendUnreachable,
    BadTemplate,
)
from .representations import (
    DEFAULT_MARKERS,
    InputKind,
    Markers,
    Region,
    build_input,
)
from .syntax import SourceFunction
from .values import frozen


@frozen
class CandidatePatch:
    """One ranked raw model output and its reconstruction outcome."""

    rank: int
    raw_output: str
    reconstructed: Optional[str] = None
    reconstruct_error: Optional[str] = None

    def __post_init__(self):
        if (self.reconstructed is None) == (self.reconstruct_error is None):
            raise ValueError(
                "exactly one of reconstructed / reconstruct_error must be set"
            )
        if isinstance(self.rank, (int, float)) and self.rank < 0:
            raise ValueError(f"rank {self.rank}: candidate ranks start at 0")


# A reconstruction of the zero-shot instruction style used with chat models;
# the exact wording is configurable, this default is not canonical.
DEFAULT_CHAT_TEMPLATE = (
    "You are an automated program repair tool for Java.\n"
    "The following function contains a bug. The original buggy lines are "
    "shown in comments and the location to repair is marked by the "
    "{fill_token} token.\n"
    "Generate the fixed code chunk to replace the {fill_token} token. "
    "Reply with the replacement code only.\n"
    "\n"
    "{code}\n"
)


def build_chat_prompt(
    fn: SourceFunction,
    region: Region,
    markers: Markers = DEFAULT_MARKERS,
    template: str = DEFAULT_CHAT_TEMPLATE,
) -> str:
    """Instruction template wrapped around the IR4 rendering of the bug."""
    if "{code}" not in template:
        raise BadTemplate("template is missing the {code} placeholder")
    code = build_input(fn, region, InputKind.IR4, markers)
    return template.replace("{fill_token}", markers.fill_token).replace("{code}", code)


# --------------------------------------------------------------------------
# request/response client

_sleep = time.sleep  # patchable in tests

# Redirects, which are not followed, and client errors: no retry cures them.
_PERMANENT_STATUSES = frozenset(range(300, 500)) - {408, 429}

# A response body is read up to num_candidates x max_new_tokens x
# _BYTES_PER_TOKEN bytes, plus _ENVELOPE_BYTES for `{"outputs": [...]}`,
# each output's quotes and comma, and any fields a backend adds. A token is
# a few bytes of text, seldom over 16, and JSON escaping writes a byte as at
# most six (`\u00XX`), so 128 bytes holds a long token escaped whole.
_BYTES_PER_TOKEN = 128
_ENVELOPE_BYTES = 1 << 16


def request_candidates(config: GenerationConfig, prompt: str) -> list[str]:
    """Ask the backend for up to num_candidates ranked outputs.

    The returned list preserves backend order (index 0 is the most
    preferred candidate); fewer outputs than requested is allowed. Errors
    are retried with exponential backoff up to config.retries extra
    attempts, then surface as BackendUnreachable / BackendError /
    BackendTimeout. A 3xx or 4xx status other than 408 (timeout) or 429 (too
    many requests) is permanent and raises at once, as does a URL that no
    attempt could send (see `_http_request`). A response that is not an
    ordered iterable (`None`, a number, a string, a mapping, a set), an
    output that is not a string, named by its index, or a string with no
    UTF-8 form, which no store could write, is malformed (BackendError).
    Any other exception from an in-process backend, raised by `complete` or
    while iterating what it returned, a RepairKitError of another kind
    (such as a ParseError) included, is a BackendError with status 500.
    """
    backend = config.backend
    if backend is None:
        raise BackendUnreachable("no backend configured")
    request = None if hasattr(backend, "complete") else _http_request(str(backend), config, prompt)
    cap = config.num_candidates * config.max_new_tokens * _BYTES_PER_TOKEN + _ENVELOPE_BYTES
    last: Exception | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            _sleep(config.retry_base_delay * (2 ** (attempt - 1)))
        try:
            if request is None:
                outputs = backend.complete(
                    prompt, config.num_candidates, config.max_new_tokens,
                    list(config.stop_tokens),
                )
            else:
                outputs = _http_complete(request, config.timeout, cap)
            if isinstance(outputs, (str, Mapping, Set)) or not hasattr(outputs, "__iter__"):
                raise BackendError(
                    200, f"malformed backend response: {type(outputs).__name__}, not a list"
                )
            outputs = list(outputs)[: config.num_candidates]
            try:
                "".join(outputs).encode("utf-8")
            except UnicodeEncodeError:  # a lone "\ud800"
                raise BackendError(200, "malformed backend response: output is not UTF-8 text")
            except TypeError:  # not a str: `decode` names the first misfit
                try:
                    decode(tuple[str, ...], outputs, "outputs")
                except TypeError as exc:
                    raise BackendError(200, f"malformed backend response: {exc}") from None
            return outputs
        except BackendError as exc:
            if exc.status in _PERMANENT_STATUSES:
                raise
            last = exc
        except (BackendUnreachable, BackendTimeout) as exc:
            last = exc
        except Exception as exc:  # an in-process backend's own failure
            last = BackendError(500, f"{type(exc).__name__}: {exc}")
    assert last is not None
    raise last


def _http_request(url: str, config: GenerationConfig, prompt: str):
    """What an attempt sends for `prompt`, built once for all attempts: the
    URL, its connection class, host and port, path, and the POST body. A URL
    that no attempt could send raises BackendUnreachable."""
    from http.client import HTTPConnection, HTTPSConnection
    from urllib.parse import urlsplit, urlunsplit

    url = url.strip()  # as urllib ignored it
    shown = re.sub(r"^([^/?#]*?//)[^/?#]*@", r"\1***@", url)  # no userinfo: records keep errors
    try:
        parts = urlsplit(url)
        parts.port  # a ValueError unless a number in 0-65535, if any
    except ValueError as exc:
        raise BackendUnreachable(f"{shown}: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:  # RFC 9110 needs a host
        raise BackendUnreachable(f"{shown}: not an http:// or https:// URL")
    if "@" in parts.netloc:
        raise BackendUnreachable(f"{shown}: carries a user name or password, which is never sent")
    path = urlunsplit(("", "", parts.path, parts.query, ""))
    if " " in url or not url.isprintable() or not path.isascii():  # http.client sends none
        raise BackendUnreachable(f"{shown}: holds a space, a control character or a non-ASCII path")
    body = json.dumps(
        {
            "prompt": prompt,
            "n": config.num_candidates,
            "max_new_tokens": config.max_new_tokens,
            "stop": list(config.stop_tokens),
        }
    ).encode("utf-8")
    connection = HTTPSConnection if parts.scheme == "https" else HTTPConnection
    return url, connection, parts.netloc, path, body  # netloc is host[:port]


def _http_complete(request, timeout: float, cap: int) -> list[str]:
    """One attempt at `request`, its body read up to `cap` bytes. Its socket,
    http or https, is shut down `timeout` s after the start; name resolution
    and a TLS handshake come first, bounded by the resolver and by `ssl`."""
    import http.client
    import socket

    url, connection_class, host, path, body = request
    deadline = time.monotonic() + timeout
    sockets = []  # the attempt's, shut down at the deadline, so that a blocked read returns

    def shut_down():
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # closed already
                pass

    connection = connection_class(host, timeout=timeout)
    timer = threading.Timer(timeout, shut_down)
    timer.start()
    try:
        connection.connect()
        sockets.append(connection.sock)
        if time.monotonic() >= deadline:  # the timer may have fired before it
            shut_down()
        headers = {"Content-Type": "application/json", "Connection": "close"}
        connection.request("POST", path, body, headers)
        with connection.getresponse() as response:
            if not 200 <= response.status < 300:
                try:
                    error = _read_body(response, deadline, timeout, cap).decode("utf-8", "replace")
                except (http.client.HTTPException, BackendTimeout) as cut:  # short or slow
                    error = repr(cut)
                raise BackendError(response.status, error)
            payload = _read_body(response, deadline, timeout, cap).decode("utf-8")
    except (OSError, http.client.HTTPException) as exc:
        if time.monotonic() >= deadline:  # its socket was shut down, or a read timed out
            raise BackendTimeout(f"response not read within {timeout} s") from exc
        if isinstance(exc, OSError):
            raise BackendUnreachable(f"{url}: {exc}") from exc
        # such as a body cut short
        raise BackendError(200, f"malformed backend response: {exc!r}") from exc
    except UnicodeDecodeError as exc:
        raise BackendError(
            200, f"malformed backend response: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc
    finally:
        timer.cancel()
        connection.close()
    try:
        outputs = json.loads(payload)["outputs"]
        if not isinstance(outputs, list):  # request_candidates checks each output
            raise ValueError
    except (ValueError, KeyError, TypeError):
        raise BackendError(200, f"malformed backend response: {payload[:200]}")
    return outputs


def _read_body(response, deadline: float, timeout: float, cap: int) -> bytes:
    """`response`'s body, read until its connection ends, as the shutdown at
    `deadline` makes it; over `cap` bytes, an error with the response's
    status, and cut short by a close or a reset, an IncompleteRead."""
    import http.client

    body = bytearray()
    try:
        while len(body) <= cap and (piece := response.read1(1 << 16)):
            body += piece
        short = response.length  # the bytes of its Content-Length not read
    except OSError:  # a reset, or the shutdown at the deadline
        short = True
    if len(body) > cap:
        raise BackendError(response.status, f"malformed backend response: body over {cap} bytes")
    if time.monotonic() >= deadline:
        raise BackendTimeout(f"response body not read within {timeout} s")
    if short:
        raise http.client.IncompleteRead(bytes(body), response.length)
    return bytes(body)


# --------------------------------------------------------------------------
# deterministic mock backend

class MockBackend:
    """Deterministic backend for tests: bug id -> canned ranked outputs.

    The wire protocol carries only the prompt, so prompts are bound to bug
    ids either explicitly via `bind_prompt` or through a resolver callable.
    Unknown prompts yield an empty candidate list.
    """

    def __init__(
        self,
        fixture_map: Mapping[str, Sequence[str]],
        resolve: Optional[Callable[[str], Optional[str]]] = None,
    ):
        self.fixture_map = {k: list(v) for k, v in fixture_map.items()}
        self._resolve = resolve
        self._prompts: dict[str, str] = {}
        self.calls = 0
        self._server = None  # a ThreadingHTTPServer while serving

    def bind_prompt(self, bug_id: str, prompt: str) -> None:
        self._prompts[prompt] = bug_id

    def complete(
        self, prompt: str, n: int, max_new_tokens: int, stop: Sequence[str]
    ) -> list[str]:
        self.calls += 1
        bug_id = self._prompts.get(prompt)
        if bug_id is None and self._resolve is not None:
            bug_id = self._resolve(prompt)
        outputs = self.fixture_map.get(bug_id or "", [])
        return list(outputs)[:n]

    # -- loopback HTTP serving, for end-to-end wire-protocol tests --------

    def serve(self) -> str:
        """Start serving the wire protocol on a loopback port; returns URL."""
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        mock = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                request = json.loads(self.rfile.read(length))
                outputs = mock.complete(
                    request["prompt"],
                    int(request.get("n", 1)),
                    int(request.get("max_new_tokens", 0)),
                    request.get("stop", []),
                )
                body = json.dumps({"outputs": outputs}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # quiet
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        thread.start()
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

