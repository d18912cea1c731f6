import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # deliberate aborts in tests should not spam stderr


class _JsonHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self._reply(*self.server.respond(body, self))

    def do_CONNECT(self):
        # A client asking this server, as its proxy, for a tunnel.
        self._reply(*self.server.respond(None, self))

    def _reply(self, status, payload):
        data = payload if isinstance(payload, bytes) \
            else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_JsonHandler):
    """HTTP/1.1 with keep-alive. Counts the connections it serves; with
    ``server.drop`` it closes each one after its first response, without a
    ``Connection: close`` header, as a server closing idle connections
    does."""

    protocol_version = "HTTP/1.1"

    def handle(self):
        self.server.count(opened=True)
        if self.server.drop:
            # Corked, the response and the close leave in one segment, so a
            # client that has read the response can already see the close.
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 1)
        try:
            super().handle()
        finally:
            self.server.count(opened=False)

    def do_POST(self):
        super().do_POST()
        self.close_connection = self.server.drop


class _KeepAliveServer(_QuietServer):
    def __init__(self, drop):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.drop = drop
        self.opened = self.open = 0
        self._lock = threading.Lock()

    def count(self, opened):
        """Count a connection the server starts (``opened``) or ends."""
        with self._lock:
            if opened:
                self.opened += 1
            self.open += 1 if opened else -1

    def open_after(self, seconds=5.0):
        """The connections still open, once none is or ``seconds`` pass."""
        deadline = time.monotonic() + seconds
        while self.open and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open


@pytest.fixture
def http_endpoint():
    """Start throwaway local JSON endpoints.

    Usage: ``url = http_endpoint(respond)`` where ``respond(body, handler)``
    returns ``(status, payload_dict_or_bytes)``; ``body`` is None for a
    proxy's ``CONNECT``. The server speaks HTTP/1.0, one connection per
    request. ``http_endpoint(respond, keep_alive=True)`` speaks HTTP/1.1
    and keeps connections alive; ``drop=True`` also closes each connection
    after one response. Its server is then ``http_endpoint.servers[-1]``,
    which counts connections (``opened``, ``open_after()``).
    """
    servers = []

    def start(respond, keep_alive=False, drop=False):
        if drop and not hasattr(socket, "TCP_CORK"):
            pytest.skip("closing right after a response needs TCP_CORK")
        server = (_KeepAliveServer(drop) if keep_alive or drop
                  else _QuietServer(("127.0.0.1", 0), _JsonHandler))
        server.respond = respond
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/"

    start.servers = servers
    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
