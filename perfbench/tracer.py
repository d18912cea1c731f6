"""Run one ``radpragma`` CLI command with spans around the package's public
functions.

Usage: ``python3 perfbench/tracer.py SPAN_FILE CLI_ARG...`` with the package
on ``PYTHONPATH``. Before calling ``radpragma.cli.main``, every function in
``TRACED`` is wrapped, both where it is defined and under every name another
package module imported it as (``cleaning.label_sentence``, say). Each call
records a span (name, start, end, parent) in per-thread memory; the spans
and a few counters are written to SPAN_FILE when the command returns.

Span file: one JSON header line (``names``, ``counters``, ``spans``), then
four little-endian int64 arrays of ``spans`` entries each: name index,
start ns, end ns, parent span index (-1 for a root).
"""

from __future__ import annotations

import array
import json
import os
import sys
import threading
import time

#: (module, attribute path) of every traced function.
TRACED = (
    ("cli", "cmd_label"), ("cli", "cmd_stats"), ("cli", "cmd_chi2"),
    ("cli", "cmd_clean"), ("cli", "cmd_index"), ("cli", "cmd_generate"),
    ("cli", "cmd_evaluate"),
    ("corpus_io", "read_reports_jsonl"), ("corpus_io", "read_labels_csv"),
    ("corpus_io", "write_text_atomic"),
    ("model", "segment_sentences"),
    ("labeler", "label_sentence"), ("labeler", "aggregate_labels"),
    ("labeler", "label_report"), ("labeler", "indication_mentions"),
    ("labeler", "label_corpus"), ("labeler", "indication_mention_sets"),
    ("stats", "summarize"), ("stats", "conditional_negative_rates"),
    ("stats", "chi_square_test"),
    ("cleaning", "clean_report_audited"),
    ("cleaning", "clean_sentence_audited"), ("cleaning", "apply_rule"),
    ("cleaning", "CleaningRule.triggered_by"),
    ("backends", "PatternBackend.rewrite"),
    ("backends", "RemoteRewriteBackend.rewrite"),
    ("generator", "build_index"), ("generator", "RetrievalIndex.save"),
    ("generator", "RetrievalIndex.load"),
    ("generator", "generate_retrieval"), ("generator", "generate_remote"),
    ("metrics", "evaluate_generation"), ("metrics", "bleu2"),
    ("metrics", "hallucination_rate"), ("metrics", "_label_f1"),
)


class _Buffer:
    """Spans of one thread."""

    def __init__(self):
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.stack: list = []


class Tracer:
    def __init__(self):
        self.names: list = []
        self.counters = {"label_sentence.repeats": 0,
                         "triggered_by.fired": 0,
                         "write_text_atomic.bytes": 0}
        self._local = threading.local()
        self._buffers: list = []
        self._lock = threading.Lock()
        self._seen_texts: set = set()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, after=None):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # Counters kept at the layer boundary.
    def _label_sentence_seen(self, result, args, kwargs):
        sentence = args[0] if args else kwargs["sentence"]
        text = getattr(sentence, "text", sentence)
        with self._lock:
            if text in self._seen_texts:
                self.counters["label_sentence.repeats"] += 1
            else:
                self._seen_texts.add(text)

    def _trigger_fired(self, result, args, kwargs):
        if result:
            with self._lock:
                self.counters["triggered_by.fired"] += 1

    def _bytes_written(self, result, args, kwargs):
        path = args[0] if args else kwargs["path"]
        size = os.path.getsize(path)
        with self._lock:
            self.counters["write_text_atomic.bytes"] += size

    def install(self) -> None:
        import importlib
        import radpragma.cli  # noqa: F401  (loads every package module)

        hooks = {"labeler.label_sentence": self._label_sentence_seen,
                 "cleaning.CleaningRule.triggered_by": self._trigger_fired,
                 "corpus_io.write_text_atomic": self._bytes_written}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "radpragma" or n.startswith("radpragma.")]
        for module_name, path in TRACED:
            module = importlib.import_module(f"radpragma.{module_name}")
            name = f"{module_name}.{path.lstrip('_')}"
            owner_path, _, attr = path.rpartition(".")
            owner = module
            if owner_path:
                owner = getattr(module, owner_path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self.wrap(raw.__func__, name, hooks.get(name))))
                continue
            traced = self.wrap(raw, name, hooks.get(name))
            if owner_path:
                setattr(owner, attr, traced)
                continue
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, key, traced)

    def dump(self, path: str) -> None:
        names, starts, ends, parents = (array.array("q") for _ in range(4))
        for buf in self._buffers:
            offset = len(starts)
            names.extend(buf.name)
            starts.extend(buf.start)
            ends.extend(buf.end)
            parents.extend(p + offset if p >= 0 else -1 for p in buf.parent)
        header = {"names": self.names, "counters": self.counters,
                  "spans": len(starts)}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (names, starts, ends, parents):
                if sys.byteorder != "little":
                    column.byteswap()
                handle.write(column.tobytes())


def read_spans(path: str):
    """(names, counters, rows) where rows are (name, start, end, parent)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        data = handle.read()
    n = header["spans"]
    columns = []
    for i in range(4):
        column = array.array("q")
        column.frombytes(data[i * 8 * n:(i + 1) * 8 * n])
        if sys.byteorder != "little":
            column.byteswap()
        columns.append(column)
    return header["names"], header["counters"], columns


def summarize_spans(path: str) -> dict:
    """Per span name: calls, wall seconds (sum of durations) and self
    seconds (durations minus the part covered by direct child spans)."""
    names, counters, (name_ids, starts, ends, parents) = read_spans(path)
    duration = [e - s for s, e in zip(starts, ends)]
    child_time = [0] * len(duration)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += duration[i]
    out = {name: {"calls": 0, "wall_ns": 0, "self_ns": 0} for name in names}
    for i, name_id in enumerate(name_ids):
        entry = out[names[name_id]]
        entry["calls"] += 1
        entry["wall_ns"] += duration[i]
        entry["self_ns"] += duration[i] - child_time[i]
    return {"layers": out, "counters": counters}


def main(argv: list) -> int:
    span_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from radpragma.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
