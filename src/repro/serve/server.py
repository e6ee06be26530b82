"""HTTP transport for the curation service (stdlib-only).

A :class:`ThreadingHTTPServer` whose handler translates between the wire
schemas (:mod:`repro.serve.schemas`) and :class:`CurationService`:

* ``POST /v1/classify`` — classify one triple or a batch; 400 on schema
  errors or a malformed ``Content-Length``, 413 on a body over
  :data:`MAX_BODY_BYTES`, 408 on a body not received within the handler
  timeout (all three framing errors also close the connection), 404 on
  unknown backends, 503 + ``Retry-After`` when the request was shed
  (whole seconds, rounded up, as HTTP requires; the JSON body keeps the
  precise ``retry_after_s``), 500 (counted) on anything else.
* ``GET /healthz`` — liveness + the backend lineup.
* ``GET /statz`` — request/shed/latency counters and per-backend breaker
  and batcher snapshots.

``HTTP/1.1`` with explicit ``Content-Length`` keeps client connections
alive, which is what lets the bench harness drive hundreds of clients over
persistent connections.  Each reply leaves in one ``send``: the handler's
``wfile`` is buffered and flushed once per request, so headers and body go
out together, and ``TCP_NODELAY`` sends any reply that still takes two
writes (stdlib error pages, bodies over the buffer size) without waiting.
Without both, Nagle's algorithm holds the body back until the client's
delayed ACK, about 40 ms on every keep-alive request.

Every socket read and write is bounded by the handler's ``timeout``
(60 s), so a stalled client cannot pin a handler thread: an idle
keep-alive connection is closed, and a body that stops arriving mid-read
is answered 408 and closed.  A client that hangs up before its reply is
counted (``serve.client_disconnects``), not printed as a traceback.
Access logging is silenced: request accounting lives in ``/statz`` and
the obs counters, not a text log.
"""

from __future__ import annotations

import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.obs.trace import get_tracer
from repro.resilience.retry import ShedError
from repro.serve.schemas import (
    SchemaError,
    classify_response,
    error_response,
    parse_classify_request,
    render_json,
)
from repro.serve.service import CurationService

#: Request bodies above this size are rejected outright (413).
MAX_BODY_BYTES = 1 << 20


class PayloadTooLarge(SchemaError):
    """A request body over :data:`MAX_BODY_BYTES` (answered with 413)."""


class RequestTimeout(Exception):
    """A request body that stopped arriving (answered with 408)."""


class ClientDisconnected(ConnectionError):
    """The client hung up while its request body was being read."""


class CurationRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's ``service``."""

    protocol_version = "HTTP/1.1"
    server: "CurationHTTPServer"
    #: Seconds any one socket read or write may block (stdlib attribute).
    timeout = 60.0
    #: Buffer ``wfile`` so each reply's headers and body leave in one send,
    #: and send without Nagle's wait when a reply still takes two.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def handle_expect_100(self) -> bool:
        # The buffered wfile would otherwise hold "100 Continue" back until
        # the final reply, so the client waits out its own expect timeout.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        body = render_json(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            # The body cannot be framed, so the connection cannot be reused.
            self.close_connection = True
            raise SchemaError(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        length = int(raw)
        if length > MAX_BODY_BYTES:
            # The unread body must not be parsed as the next request.
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        try:
            return self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            raise RequestTimeout(
                f"request body not received within {self.timeout:g} s"
            ) from None
        except ConnectionError as error:
            raise ClientDisconnected(str(error)) from error

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(200, service.healthz_payload())
        elif self.path == "/statz":
            self._send_json(200, service.statz_payload())
        else:
            self._send_json(404, error_response(404, f"no route {self.path!r}"))

    def do_POST(self) -> None:
        if self.path != "/v1/classify":
            self._send_json(404, error_response(404, f"no route {self.path!r}"))
            return
        service = self.server.service
        try:
            request = parse_classify_request(self._read_body())
            backend, labels, batch_size = service.classify(
                request.backend, request.triples
            )
        except ClientDisconnected:
            raise  # nobody to answer; counted by the server's handle_error
        except RequestTimeout as error:
            self._send_json(408, error_response(408, str(error)))
        except PayloadTooLarge as error:
            self._send_json(413, error_response(413, str(error)))
        except SchemaError as error:
            self._send_json(400, error_response(400, str(error)))
        except KeyError as error:
            self._send_json(404, error_response(404, str(error)))
        except ShedError as error:
            retry_after = error.retry_after_s
            self._send_json(
                503,
                error_response(503, str(error), retry_after_s=retry_after),
                headers=(("Retry-After", str(math.ceil(retry_after))),),
            )
        except Exception as error:
            get_tracer().count("serve.internal_errors")
            self._send_json(500, error_response(500, str(error)))
        else:
            self._send_json(
                200,
                classify_response(
                    backend, labels, batch=request.batch, batched_with=batch_size
                ),
            )


class CurationHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server that owns a :class:`CurationService`."""

    daemon_threads = True
    #: The socketserver default listen backlog (5) resets connections when
    #: hundreds of bench clients connect in the same instant.
    request_queue_size = 512

    def __init__(self, address: Tuple[str, int], service: CurationService):
        super().__init__(address, CurationRequestHandler)
        self.service = service

    def handle_error(self, request, client_address) -> None:
        """Count a client that hung up before its reply; report the rest."""
        if isinstance(sys.exc_info()[1], ConnectionError):
            get_tracer().count("serve.client_disconnects")
            return
        super().handle_error(request, client_address)


def start_server(
    service: CurationService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[CurationHTTPServer, threading.Thread, int]:
    """Serve in a daemon thread; ``port=0`` binds an ephemeral port.

    Returns the server, its thread, and the actual bound port.  The caller
    owns shutdown: ``server.shutdown(); thread.join(); service.stop()``.
    """
    server = CurationHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread, server.server_address[1]


def stop_server(
    server: CurationHTTPServer, thread: Optional[threading.Thread] = None
) -> None:
    """Shut the HTTP layer down, then the backends behind it."""
    server.shutdown()
    server.server_close()
    if thread is not None:
        thread.join(timeout=5.0)
    server.service.stop()


__all__ = [
    "MAX_BODY_BYTES",
    "CurationRequestHandler",
    "PayloadTooLarge",
    "RequestTimeout",
    "CurationHTTPServer",
    "start_server",
    "stop_server",
]
