"""Deterministic local stand-in for the remote rewriting and generation
endpoints.

Run as ``python3 perfbench/stub.py --port-file PATH`` with the package on
``PYTHONPATH``. It listens on 127.0.0.1 (port chosen by the kernel), writes
the port to PATH once it accepts connections, and serves:

* ``POST /rewrite``  ``{"rule_id", "prompt", "sentence"}`` -> the offline
  pattern backend's rewrite of the sentence under that rule.
* ``POST /generate`` ``{"study_id", "prompt"}`` -> ``completion(prompt)``.
* ``GET /stats`` -> counters: POSTs per path, repeated ``(rule_id,
  sentence)`` rewrite POSTs, and connections that carried a POST.
* ``GET /reset`` -> zeroes the counters and forgets the rewrites seen.

Every request waits a fixed service delay of 2 ms, then the whole response
(status line, headers and body) goes out in one write: with separate writes,
the client's delayed ACK stalls each keep-alive request.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import socketserver
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler

_LABELS_LINE = re.compile(r"^Positive labels: (.*)$", re.MULTILINE)
DELAY_S = 0.002

# One sentence per predicted label; every phrase is in the shipped lexicon.
_SENTENCE = {
    "Atelectasis": "There is atelectasis.",
    "Cardiomegaly": "There is cardiomegaly.",
    "Consolidation": "There is consolidation.",
    "Edema": "There is pulmonary edema.",
    "Enlarged Cardiomediastinum": "There is a widened mediastinum.",
    "Fracture": "There is a rib fracture.",
    "Lung Lesion": "There is a lung nodule.",
    "Lung Opacity": "There is an opacity.",
    "Pleural Effusion": "There is a pleural effusion.",
    "Pleural Other": "There is pleural thickening.",
    "Pneumonia": "There is pneumonia.",
    "Pneumothorax": "There is a pneumothorax.",
    "Support Devices": "A central line is in place.",
    "no finding": "No acute cardiopulmonary process.",
}


def completion(prompt: str) -> str:
    """The stub's raw completion: one sentence per positive label named in
    the prompt, with irregular whitespace the client must normalize."""
    match = _LABELS_LINE.search(prompt)
    names = match.group(1).split(", ") if match else ["no finding"]
    return "  " + "\n ".join(_SENTENCE[name] for name in names) + " \n"


def normalized_completion(prompt: str) -> str:
    return " ".join(completion(prompt).split())


class _Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.posts = {"/rewrite": 0, "/generate": 0}
        self.duplicate_rewrites = 0
        self.connections = 0
        self.seen: set = set()

    def snapshot(self) -> dict:
        with self.lock:
            return {"posts": dict(self.posts),
                    "duplicate_rewrites": self.duplicate_rewrites,
                    "connections": self.connections}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}"
                f"\r\nContent-Type: application/json\r\nContent-Length: "
                f"{len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, self.server.counters.snapshot())
        elif self.path == "/reset":
            self.server.counters = _Counters()
            self._reply(200, {})
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        counters = self.server.counters
        if not getattr(self, "_counted", False):
            # One handler instance serves one connection.
            self._counted = True
            with counters.lock:
                counters.connections += 1
        time.sleep(DELAY_S)
        if self.path == "/rewrite":
            key = (body["rule_id"], body["sentence"])
            with counters.lock:
                counters.posts["/rewrite"] += 1
                if key in counters.seen:
                    counters.duplicate_rewrites += 1
                counters.seen.add(key)
            rule = self.server.rules[body["rule_id"]]
            rewritten = self.server.backend.rewrite(rule, body["sentence"])
            self._reply(200, {"rewritten": rewritten})
        elif self.path == "/generate":
            with counters.lock:
                counters.posts["/generate"] += 1
            self._reply(200, {"completion": completion(body["prompt"])})
        else:
            self._reply(404, {"error": "not found"})

    def log_message(self, *args):
        pass


class _Server(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args(argv)
    from radpragma.backends import PatternBackend
    from radpragma.cleaning import DEFAULT_RULES

    server = _Server(("127.0.0.1", 0), _Handler)
    server.counters = _Counters()
    server.backend = PatternBackend()
    server.rules = {rule.rule_id: rule for rule in DEFAULT_RULES}
    tmp = args.port_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(str(server.server_address[1]))
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
