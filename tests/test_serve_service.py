"""Shedding and accounting on the transport-free service core, then the
same contract observed through HTTP: 503 + Retry-After, never silence."""

import http.client
import json
import re
import socket
import struct
import threading
import time

import pytest

from repro.core.triples import LabeledTriple
from repro.ontology.relations import HAS_ROLE
from repro.resilience.faults import FaultClock
from repro.resilience.retry import ShedError
from repro.serve.curator import Curator
from repro.obs.trace import get_tracer
from repro.serve.server import (
    MAX_BODY_BYTES,
    CurationRequestHandler,
    start_server,
    stop_server,
)
from repro.serve.service import Backend, CurationService, ServeStats


class StubCurator(Curator):
    """Controllable backend: labels everything 1 until told to fail."""

    def __init__(self, name="stub"):
        super().__init__(name)
        self.fail = False
        self.calls = 0

    def classify_batch(self, triples):
        self.calls += 1
        if self.fail:
            raise RuntimeError("backend down")
        return [1] * len(triples)


def make_triples(n, tag="t"):
    return [
        LabeledTriple(
            subject_id=f"s:{tag}{i}",
            subject_name=f"subject {tag}{i}",
            relation=HAS_ROLE,
            object_id=f"o:{tag}{i}",
            object_name=f"object {tag}{i}",
            label=0,
        )
        for i in range(n)
    ]


def make_backend(curator=None, **kwargs):
    kwargs.setdefault("max_wait_s", 0.0)  # no coalescing window in tests
    return Backend(curator or StubCurator(), **kwargs)


class TestBackendShedding:
    def test_breaker_opens_after_consecutive_failures(self):
        clock = FaultClock()
        curator = StubCurator()
        backend = make_backend(
            curator, failure_threshold=2, reset_timeout=5.0, clock=clock
        ).start()
        try:
            curator.fail = True
            for _ in range(2):
                with pytest.raises(RuntimeError, match="backend down"):
                    backend.classify(make_triples(1))
            # Third request never reaches the curator: shed at the door.
            calls_before = curator.calls
            with pytest.raises(ShedError) as shed:
                backend.classify(make_triples(1))
            assert shed.value.reason == "breaker-open"
            assert shed.value.retry_after_s == 5.0
            assert curator.calls == calls_before
            assert backend.breaker.state == "open"
        finally:
            backend.stop()

    def test_breaker_recovers_after_reset_timeout(self):
        clock = FaultClock()
        curator = StubCurator()
        backend = make_backend(
            curator, failure_threshold=1, reset_timeout=5.0, clock=clock
        ).start()
        try:
            curator.fail = True
            with pytest.raises(RuntimeError):
                backend.classify(make_triples(1))
            with pytest.raises(ShedError):
                backend.classify(make_triples(1))
            # Cool down, fix the backend: the half-open probe closes it.
            clock.advance(5.1)
            curator.fail = False
            labels, batch_size = backend.classify(make_triples(2))
            assert labels == [1, 1]
            assert batch_size == 2
            assert backend.breaker.state == "closed"
        finally:
            backend.stop()

    def test_full_queue_sheds_with_retry_after(self):
        # No worker thread: submissions pile up until the bound trips.
        backend = make_backend(max_queue=1, max_wait_s=0.004)
        backend.batcher.submit(make_triples(1))
        with pytest.raises(ShedError) as shed:
            backend.classify(make_triples(1))
        assert shed.value.reason == "queue-full"
        assert shed.value.retry_after_s == pytest.approx(0.05)  # floor wins

    def test_successful_classify_reports_coalesced_size(self):
        backend = make_backend().start()
        try:
            labels, batch_size = backend.classify(make_triples(3))
            assert labels == [1, 1, 1]
            assert batch_size >= 3
        finally:
            backend.stop()


class TestServeStats:
    def test_counters_and_shed_rate(self):
        stats = ServeStats()
        stats.record("ok", triples=4, latency_s=0.010)
        stats.record("ok", triples=2, latency_s=0.020)
        stats.record("shed")
        stats.record("error")
        snapshot = stats.snapshot()
        assert snapshot["requests"] == 4
        assert snapshot["ok"] == 2
        assert snapshot["shed"] == 1
        assert snapshot["errors"] == 1
        assert snapshot["triples"] == 6
        assert snapshot["shed_rate"] == 0.25
        assert snapshot["latency_p50_ms"] == pytest.approx(15.0)

    def test_empty_snapshot_has_no_percentiles(self):
        snapshot = ServeStats().snapshot()
        assert snapshot["requests"] == 0
        assert snapshot["shed_rate"] == 0.0
        assert snapshot["latency_p50_ms"] is None
        assert snapshot["latency_p99_ms"] is None


class TestCurationService:
    def test_routes_to_default_backend(self):
        service = CurationService.from_curators(
            {"stub": StubCurator()}, max_wait_s=0.0
        ).start()
        try:
            name, labels, _ = service.classify(None, make_triples(2))
            assert name == "stub"
            assert labels == [1, 1]
        finally:
            service.stop()

    def test_unknown_backend_is_a_key_error(self):
        service = CurationService.from_curators(
            {"stub": StubCurator()}, max_wait_s=0.0
        ).start()
        try:
            with pytest.raises(KeyError, match="unknown backend"):
                service.classify("bert-9000", make_triples(1))
        finally:
            service.stop()

    def test_shed_requests_are_counted_not_silent(self):
        clock = FaultClock()
        curator = StubCurator()
        service = CurationService.from_curators(
            {"stub": curator},
            max_wait_s=0.0,
            failure_threshold=1,
            reset_timeout=60.0,
            clock=clock,
        ).start()
        try:
            curator.fail = True
            with pytest.raises(RuntimeError):
                service.classify("stub", make_triples(1))
            with pytest.raises(ShedError):
                service.classify("stub", make_triples(1))
            totals = service.statz_payload()["totals"]
            assert totals["requests"] == 2
            assert totals["errors"] == 1
            assert totals["shed"] == 1
            assert totals["shed_rate"] == 0.5
            backend_view = service.statz_payload()["backends"]["stub"]
            assert backend_view["breaker"] == "open"
        finally:
            service.stop()

    def test_healthz_payload(self):
        service = CurationService.from_curators(
            {"stub": StubCurator()}, max_wait_s=0.0
        )
        assert service.healthz_payload()["status"] == "stopped"
        with service:
            payload = service.healthz_payload()
            assert payload == {
                "status": "ok",
                "backends": ["stub"],
                "default_backend": "stub",
            }


class HttpFixture:
    """One stub-backed server per test, torn down reliably."""

    def __init__(self, **backend_kwargs):
        backend_kwargs.setdefault("max_wait_s", 0.0)
        self.curator = StubCurator()
        self.service = CurationService.from_curators(
            {"stub": self.curator}, **backend_kwargs
        ).start()
        self.server, self.thread, self.port = start_server(self.service)

    def close(self):
        stop_server(self.server, self.thread)

    def request(self, method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request(
                method,
                path,
                body=None if body is None else json.dumps(body, sort_keys=True),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            return response.status, dict(response.getheaders()), payload
        finally:
            connection.close()


TRIPLE = {"subject": "caffeine", "relation": "has_role", "object": "stimulant"}


class TestHttpContract:
    def test_shed_is_503_with_retry_after(self):
        fixture = HttpFixture(
            failure_threshold=1, reset_timeout=2.5, clock=FaultClock()
        )
        try:
            # Trip the breaker directly; the next HTTP request is shed.
            fixture.service.pool["stub"].breaker.record_failure()
            status, headers, payload = fixture.request(
                "POST", "/v1/classify", {"triple": TRIPLE}
            )
            assert status == 503
            assert headers["Retry-After"] == "3"  # whole seconds, rounded up
            assert payload["status"] == 503
            assert payload["retry_after_s"] == 2.5
        finally:
            fixture.close()

    @pytest.mark.parametrize("reset_timeout", [0.05, 1.0])
    def test_retry_after_header_is_integer_seconds(self, reset_timeout):
        # HTTP delay-seconds is an integer; the body keeps the precise value.
        fixture = HttpFixture(
            failure_threshold=1, reset_timeout=reset_timeout, clock=FaultClock()
        )
        try:
            fixture.service.pool["stub"].breaker.record_failure()
            status, headers, payload = fixture.request(
                "POST", "/v1/classify", {"triple": TRIPLE}
            )
            assert status == 503
            assert re.fullmatch(r"\d+", headers["Retry-After"])
            assert int(headers["Retry-After"]) >= payload["retry_after_s"]
            assert payload["retry_after_s"] == reset_timeout
        finally:
            fixture.close()

    def test_breaker_503_advertises_remaining_cool_down(self):
        clock = FaultClock()
        fixture = HttpFixture(failure_threshold=1, reset_timeout=5, clock=clock)
        try:
            fixture.service.pool["stub"].breaker.record_failure()
            clock.advance(4.0)
            status, headers, payload = fixture.request(
                "POST", "/v1/classify", {"triple": TRIPLE}
            )
            assert status == 503
            assert payload["retry_after_s"] == 1.0
            assert headers["Retry-After"] == "1"
        finally:
            fixture.close()

    def test_backend_failure_is_500_not_a_hang(self):
        fixture = HttpFixture()
        try:
            fixture.curator.fail = True
            status, _, payload = fixture.request(
                "POST", "/v1/classify", {"triple": TRIPLE}
            )
            assert status == 500
            assert payload["error"] == "backend down"
        finally:
            fixture.close()

    def test_schema_error_is_400(self):
        fixture = HttpFixture()
        try:
            status, _, payload = fixture.request("POST", "/v1/classify", {})
            assert status == 400
            assert payload["status"] == 400
        finally:
            fixture.close()

    def test_unknown_backend_is_404(self):
        fixture = HttpFixture()
        try:
            status, _, payload = fixture.request(
                "POST", "/v1/classify", {"triple": TRIPLE, "backend": "nope"}
            )
            assert status == 404
            assert "unknown backend" in payload["error"]
        finally:
            fixture.close()

    def test_unknown_route_is_404(self):
        fixture = HttpFixture()
        try:
            status, _, _ = fixture.request("GET", "/metrics")
            assert status == 404
            status, _, _ = fixture.request("POST", "/v2/classify", {})
            assert status == 404
        finally:
            fixture.close()

    def test_healthz_and_statz_over_http(self):
        fixture = HttpFixture()
        try:
            fixture.request("POST", "/v1/classify", {"triple": TRIPLE})
            status, _, health = fixture.request("GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            status, _, statz = fixture.request("GET", "/statz")
            assert status == 200
            assert statz["totals"]["requests"] == 1
            assert statz["backends"]["stub"]["breaker"] == "closed"
            assert statz["backends"]["stub"]["batcher"]["triples"] == 1
        finally:
            fixture.close()


def raw_exchange(port, head):
    """Send raw request bytes; return everything read until the server
    closes the connection (a hung handler fails on the socket timeout)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def classify_head(content_length):
    return (
        "POST /v1/classify HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    ).encode("ascii")


def parse_single_response(data):
    """Status, headers and JSON payload of exactly one HTTP response."""
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    length = int(headers["Content-Length"])
    assert len(body) == length, "trailing bytes after the one response"
    return status, headers, json.loads(body.decode("utf-8"))


class TestContentLength:
    """A body the server cannot frame is refused typed and bounded, and the
    connection closes so no unread bytes reach the next request."""

    @pytest.mark.parametrize("value", ["-1", "abc", "1e3", ""])
    def test_malformed_length_is_400_and_closes(self, value):
        fixture = HttpFixture()
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        before = tracer.counters().get("serve.internal_errors", 0)
        try:
            data = raw_exchange(fixture.port, classify_head(value))
            status, headers, payload = parse_single_response(data)
            assert status == 400
            assert payload["status"] == 400
            assert "Content-Length" in payload["error"]
            assert headers["Connection"] == "close"
            assert tracer.counters().get("serve.internal_errors", 0) == before
            assert fixture.curator.calls == 0
        finally:
            tracer.enabled = was_enabled
            fixture.close()

    def test_oversized_body_is_413_and_closes(self):
        fixture = HttpFixture()
        try:
            data = raw_exchange(
                fixture.port, classify_head(MAX_BODY_BYTES + 1)
            )
            status, headers, payload = parse_single_response(data)
            assert status == 413
            assert payload["status"] == 413
            assert str(MAX_BODY_BYTES) in payload["error"]
            assert headers["Connection"] == "close"
            assert fixture.curator.calls == 0
        finally:
            fixture.close()

    def test_well_formed_requests_keep_the_connection_alive(self):
        fixture = HttpFixture()
        try:
            body = json.dumps({"triple": TRIPLE}).encode("utf-8")
            with socket.create_connection(
                ("127.0.0.1", fixture.port), timeout=5
            ) as sock:
                for _ in range(2):
                    sock.sendall(classify_head(len(body)) + body)
                    reply = b""
                    while not reply.endswith(b"}"):
                        chunk = sock.recv(65536)
                        assert chunk, "server closed a keep-alive connection"
                        reply += chunk
                    status, headers, _ = parse_single_response(reply)
                    assert status == 200
                    assert "Connection" not in headers
        finally:
            fixture.close()


def install_probe(server):
    """Swap in a handler subclass recording, per accepted connection, its
    ``TCP_NODELAY`` flag and the thread that handles it."""
    seen = []

    class Probe(CurationRequestHandler):
        def setup(self):
            super().setup()
            nodelay = self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            seen.append((nodelay, threading.current_thread()))

    server.RequestHandlerClass = Probe
    return seen


def record_server_sends(monkeypatch, port):
    """Every buffer the server side of ``port`` hands to ``send``/``sendall``."""
    sends = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def recording(sock, data, *args, _original=original):
            if sock.getsockname()[1] == port:
                sends.append(bytes(data))
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, recording)
    return sends


def read_json_reply(sock):
    """Read one keep-alive reply whose JSON body ends the response."""
    reply = b""
    while not reply.endswith(b"}"):
        chunk = sock.recv(65536)
        assert chunk, "server closed a keep-alive connection"
        reply += chunk
    return reply


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.01)


class TestTransport:
    """Each reply leaves in one send on a ``TCP_NODELAY`` socket: a reply
    split into headers and body would wait ~40 ms for a delayed ACK."""

    def test_accepted_connection_sets_tcp_nodelay(self):
        fixture = HttpFixture()
        seen = install_probe(fixture.server)
        try:
            status, _, _ = fixture.request("GET", "/healthz")
            assert status == 200
            [(nodelay, _)] = seen
            assert nodelay != 0
        finally:
            fixture.close()

    def test_classify_reply_is_one_send_of_headers_and_body(self, monkeypatch):
        fixture = HttpFixture()
        sends = record_server_sends(monkeypatch, fixture.port)
        try:
            body = json.dumps({"triple": TRIPLE}).encode("utf-8")
            with socket.create_connection(
                ("127.0.0.1", fixture.port), timeout=5
            ) as sock:
                sock.sendall(classify_head(len(body)) + body)
                reply = read_json_reply(sock)
            status, _, payload = parse_single_response(reply)
            assert status == 200
            assert payload["label"] == 1
            assert sends == [reply]
        finally:
            fixture.close()

    def test_expect_100_continue_is_sent_before_the_body(self):
        fixture = HttpFixture()
        try:
            body = json.dumps({"triple": TRIPLE}).encode("utf-8")
            head = classify_head(len(body)).replace(
                b"\r\n\r\n", b"\r\nExpect: 100-continue\r\n\r\n"
            )
            with socket.create_connection(
                ("127.0.0.1", fixture.port), timeout=5
            ) as sock:
                sock.sendall(head)
                assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.sendall(body)
                status, _, _ = parse_single_response(read_json_reply(sock))
                assert status == 200
        finally:
            fixture.close()


class TestStalledClients:
    """A client that stops sending cannot pin a handler thread, and one
    that hangs up is counted rather than printed."""

    def test_stalled_body_is_408_and_the_handler_exits(self, monkeypatch):
        monkeypatch.setattr(CurationRequestHandler, "timeout", 0.2)
        fixture = HttpFixture()
        seen = install_probe(fixture.server)
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        before = tracer.counters().get("serve.internal_errors", 0)
        try:
            data = raw_exchange(fixture.port, classify_head(100) + b'{"tri')
            status, headers, payload = parse_single_response(data)
            assert status == 408
            assert payload["status"] == 408
            assert headers["Connection"] == "close"
            assert tracer.counters().get("serve.internal_errors", 0) == before
            assert fixture.curator.calls == 0
            [(_, handler_thread)] = seen
            handler_thread.join(timeout=5)
            assert not handler_thread.is_alive()
        finally:
            tracer.enabled = was_enabled
            fixture.close()

    def test_client_hangup_is_counted_not_printed(self, capfd):
        fixture = HttpFixture()
        seen = install_probe(fixture.server)
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        counters = tracer.counters
        before = counters().get("serve.client_disconnects", 0)
        internal = counters().get("serve.internal_errors", 0)
        try:
            sock = socket.create_connection(("127.0.0.1", fixture.port), timeout=5)
            sock.sendall(classify_head(100) + b'{"tri')
            wait_for(lambda: seen)
            # Linger 0: close() resets the connection mid-body.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            [(_, handler_thread)] = seen
            handler_thread.join(timeout=5)
            assert not handler_thread.is_alive()
            wait_for(lambda: counters().get("serve.client_disconnects", 0) > before)
            assert counters().get("serve.internal_errors", 0) == internal
            assert "Traceback" not in capfd.readouterr().err
            assert fixture.curator.calls == 0
        finally:
            tracer.enabled = was_enabled
            fixture.close()
