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
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Protocol, Sequence

from .config import DEFAULT_STOP_TOKENS, GenerationConfig  # the first is re-exported
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


class Backend(Protocol):
    def complete(
        self, prompt: str, n: int, max_new_tokens: int, stop: Sequence[str]
    ) -> list[str]: ...


@dataclass(frozen=True)
class CandidatePatch:
    """One ranked raw model output and its reconstruction outcome."""

    bug_id: str
    rank: int
    raw_output: str
    reconstructed: Optional[str] = None
    reconstruct_error: Optional[str] = None

    def __post_init__(self):
        if (self.reconstructed is None) == (self.reconstruct_error is None):
            raise ValueError(
                "exactly one of reconstructed / reconstruct_error must be set"
            )


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

# Client errors that no retry can cure.
_PERMANENT_STATUSES = frozenset(range(400, 500)) - {408, 429}


def request_candidates(config: GenerationConfig, prompt: str) -> list[str]:
    """Ask the backend for up to num_candidates ranked outputs.

    The returned list preserves backend order (index 0 is the most
    preferred candidate); fewer outputs than requested is allowed. Errors
    are retried with exponential backoff up to config.retries extra
    attempts, then surface as BackendUnreachable / BackendError /
    BackendTimeout. A 4xx status other than 408 (timeout) or 429 (too many
    requests) is permanent and raises at once. An output that is not a
    string with a UTF-8 form, which no store could write, is a malformed
    response (BackendError).
    """
    backend = config.backend
    if backend is None:
        raise BackendUnreachable("no backend configured")
    last: Exception | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            _sleep(config.retry_base_delay * (2 ** (attempt - 1)))
        try:
            if hasattr(backend, "complete"):
                outputs = backend.complete(
                    prompt, config.num_candidates, config.max_new_tokens,
                    list(config.stop_tokens),
                )
            else:
                outputs = _http_complete(str(backend), config, prompt)
            outputs = list(outputs)[: config.num_candidates]
            try:
                "".join(outputs).encode("utf-8")
            except (TypeError, UnicodeEncodeError):  # not a str, or a lone "\ud800"
                raise BackendError(200, "malformed backend response: output is not UTF-8 text")
            return outputs
        except BackendError as exc:
            if exc.status in _PERMANENT_STATUSES:
                raise
            last = exc
        except (BackendUnreachable, BackendTimeout) as exc:
            last = exc
    assert last is not None
    raise last


def _http_complete(url: str, config: GenerationConfig, prompt: str) -> list[str]:
    import socket
    import urllib.error
    import urllib.request

    body = json.dumps(
        {
            "prompt": prompt,
            "n": config.num_candidates,
            "max_new_tokens": config.max_new_tokens,
            "stop": list(config.stop_tokens),
        }
    ).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=config.timeout) as response:
            payload = response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        raise BackendError(exc.code, exc.read().decode("utf-8", "replace")) from exc
    except (socket.timeout, TimeoutError) as exc:
        raise BackendTimeout(str(exc)) from exc
    except (urllib.error.URLError, ConnectionError, OSError) as exc:
        reason = getattr(exc, "reason", exc)
        if isinstance(reason, (socket.timeout, TimeoutError)):
            raise BackendTimeout(str(reason)) from exc
        raise BackendUnreachable(f"{url}: {reason}") from exc
    try:
        outputs = json.loads(payload)["outputs"]
        if not isinstance(outputs, list):  # request_candidates checks each output
            raise ValueError
    except (ValueError, KeyError, TypeError):
        raise BackendError(200, f"malformed backend response: {payload[:200]}")
    return outputs


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
        if bug_id is None and prompt in self.fixture_map:
            bug_id = prompt
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

