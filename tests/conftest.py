import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # deliberate aborts in tests should not spam stderr


class _JsonHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        status, payload = self.server.respond(body, self)
        data = payload if isinstance(payload, bytes) \
            else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    """Start throwaway local JSON endpoints.

    Usage: ``url = http_endpoint(respond)`` where ``respond(body, handler)``
    returns ``(status, payload_dict_or_bytes)``.
    """
    servers = []

    def start(respond):
        server = _QuietServer(("127.0.0.1", 0), _JsonHandler)
        server.respond = respond
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
