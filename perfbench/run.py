"""Benchmark of the ``radpragma`` CLI pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline-unique --seed 1 \\
        --seconds 20 --trace 0

Each run generates a seeded corpus with planted labels, then repeats whole
rounds of the seven CLI stages (label, stats, chi2, clean, index, generate,
evaluate) until ``--seconds`` have passed. Every stage is its own fresh
``python3 -m radpragma.cli`` process, as a user runs it. After each round
the outputs are checked against planted labels and independent recounts
(``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
In a traced run every stage also runs a second time under ``tracer.py``,
next to its untraced run, and the difference is the tracing overhead. The
run and every process it starts are pinned to one CPU.

Workloads, metrics and the method that keeps runs steady are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus as corpora  # noqa: E402
import stub  # noqa: E402
from tracer import summarize_spans  # noqa: E402

WORKLOADS = {
    "offline-unique": {"corpus": "unique", "reports": 500, "remote": False},
    "offline-repeat": {"corpus": "repeat", "reports": 500, "remote": False},
    "remote-io": {"corpus": "unique", "reports": 300, "remote": True},
}
STAGES = ("label", "stats", "chi2", "clean", "index", "generate", "evaluate")
REMOTE_STAGES = ("clean", "generate")
REMOTE_JOBS = "2"
SETUP_CODE = ("import radpragma.cli as cli; cli.default_lexicon(); "
              "cli.metrics.default_catalog()")
SETUP_SAMPLES_FIRST = 3            # then one more after every round


class BenchError(RuntimeError):
    pass


class Workdir:
    """Paths of one run's inputs and outputs."""

    FILES = {"corpus": "corpus.jsonl", "labels": "labels.csv",
             "stats_csv": "stats.csv", "stats_json": "stats.json",
             "chi2": "chi2.csv", "cleaned": "cleaned.jsonl",
             "clean_audit": "clean_audit.jsonl", "index": "index.json",
             "generated": "generated.jsonl", "gen_audit": "gen_audit.jsonl",
             "metrics_json": "metrics.json", "metrics_csv": "metrics.csv",
             "spans": "spans.bin", "stage_err": "stage.err",
             "stub_port": "stub.port", "stub_err": "stub.err"}

    def __init__(self, path: str):
        self.path = path
        for attr, name in self.FILES.items():
            setattr(self, attr, os.path.join(path, name))


def _env(remote: bool) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RADPRAGMA_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if remote:
        env["RADPRAGMA_IN_FLIGHT"] = REMOTE_JOBS
    return env


def stage_args(stage: str, w: Workdir, port) -> list:
    if stage == "label":
        return ["label", "--in", w.corpus, "--out", w.labels]
    if stage == "stats":
        return ["stats", "--in", w.corpus, "--labels", w.labels,
                "--out", w.stats_csv, "--json", w.stats_json]
    if stage == "chi2":
        return ["chi2", "--in", w.corpus, "--labels", w.labels, "--all",
                "--out", w.chi2]
    if stage == "clean":
        argv = ["clean", "--in", w.corpus, "--out", w.cleaned,
                "--audit", w.clean_audit]
        if port is None:
            return argv + ["--backend", "pattern"]
        return argv + ["--backend", "remote", "--jobs", REMOTE_JOBS,
                       "--clean-endpoint", f"http://127.0.0.1:{port}/rewrite"]
    if stage == "index":
        return ["index", "--in", w.cleaned, "--out", w.index]
    if stage == "generate":
        argv = ["generate", "--requests", w.corpus, "--predictions",
                w.labels, "--out", w.generated, "--audit", w.gen_audit]
        if port is None:
            return argv + ["--index", w.index, "--mode", "retrieval"]
        return argv + ["--mode", "remote", "--jobs", REMOTE_JOBS,
                       "--generation-endpoint",
                       f"http://127.0.0.1:{port}/generate"]
    if stage == "evaluate":
        return ["evaluate", "--generated", w.generated, "--ref-original",
                w.corpus, "--ref-clean", w.cleaned, "--out", w.metrics_json,
                "--csv", w.metrics_csv]
    raise ValueError(stage)


def run_process(cmd: list, env: dict, err_path: str):
    """Run to completion; (wall s, cpu s, peak RSS MB, exit code)."""
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


class Stub:
    """The local endpoint process for the remote workload."""

    def __init__(self, w: Workdir, env: dict):
        self._err = open(w.stub_err, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"),
             "--port-file", w.stub_port],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self._err)
        deadline = time.monotonic() + 30
        while not os.path.exists(w.stub_port):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("stub endpoint did not start")
            time.sleep(0.02)
        with open(w.stub_port, encoding="utf-8") as handle:
            self.port = int(handle.read())

    def get(self, path: str) -> dict:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._err.close()


def _digest(paths) -> str:
    hasher = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            hasher.update(hashlib.sha256(handle.read()).digest())
    return hasher.hexdigest()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, reports=None, corrupt=None):
        self.config = WORKLOADS[workload]
        self.remote = self.config["remote"]
        self.corpus = corpora.make_corpus(
            seed, reports or self.config["reports"], self.config["corpus"])
        self.n = len(self.corpus)
        self.corrupt = corrupt
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        self.w = Workdir(tempfile.mkdtemp(prefix=f"{workload}-",
                                          dir=os.path.join(HERE, ".work")))
        self.env = _env(self.remote)
        self.stub = None
        self.relabel = checks.Relabeler()
        self._verdicts: dict = {}
        self._pattern_clean = None
        with open(self.w.corpus, "w", encoding="utf-8") as handle:
            handle.writelines(r.to_json() + "\n" for r in self.corpus)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
        shutil.rmtree(self.w.path, ignore_errors=True)

    # -- measurement ----------------------------------------------------

    def setup_time(self) -> float:
        wall, _, _, code = run_process([sys.executable, "-c", SETUP_CODE],
                                       self.env, self.w.stage_err)
        if code != 0:
            raise BenchError(f"set-up failed: {self._stderr()}")
        return wall

    def _stderr(self) -> str:
        with open(self.w.stage_err, encoding="utf-8", errors="replace") as f:
            return f.read().strip()[-2000:]

    def _stage(self, stage: str, traced: bool) -> dict:
        argv = stage_args(stage, self.w, self.stub and self.stub.port)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                   self.w.spans] + argv
        else:
            cmd = [sys.executable, "-m", "radpragma.cli"] + argv
        remote = self.stub is not None and stage in REMOTE_STAGES
        if remote:
            self.stub.get("/reset")
        wall, cpu, rss, code = run_process(cmd, self.env, self.w.stage_err)
        if code != 0:
            raise BenchError(f"stage {stage} exited {code}: "
                             f"{self._stderr()}")
        info = {"wall": wall, "cpu": cpu, "rss": rss}
        if remote:
            info["stub"] = self.stub.get("/stats")
        if traced:
            info["spans"] = summarize_spans(self.w.spans)
        return info

    def pipeline_round(self, trace: bool, traced_first: bool) -> dict:
        """Run the seven stages once. With ``trace``, each stage also runs
        traced right before or after (alternating between rounds) on the
        same inputs, so the two share the machine's speed of the moment."""
        out = {}
        for stage in STAGES:
            if not trace:
                out[stage] = self._stage(stage, traced=False)
            else:
                order = (True, False) if traced_first else (False, True)
                runs = {traced: self._stage(stage, traced) for traced in order}
                out[stage] = dict(runs[False], spans=runs[True]["spans"],
                                  traced_wall=runs[True]["wall"])
            if self.corrupt is not None:
                self.corrupt(stage, self.w)
        return out

    # -- checks ----------------------------------------------------------

    def check_round(self, stages: dict) -> list:
        w = self.w
        files = [w.labels, w.stats_csv, w.stats_json, w.chi2,
                 w.cleaned, w.clean_audit, w.index, w.generated,
                 w.metrics_json]
        posts = None
        if self.remote:
            posts = stages["generate"]["stub"]["posts"]["/generate"]
        else:
            files.append(w.gen_audit)
        key = (_digest(files), posts)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(posts)
        return self._verdicts[key]

    def _reference_cleaning(self) -> dict:
        if self._pattern_clean is None:
            from radpragma.backends import PatternBackend
            from radpragma.cleaning import clean_report
            from radpragma.model import Report
            backend = PatternBackend()
            self._pattern_clean = {
                r.study_id: clean_report(
                    Report(r.study_id, r.impression, r.indication),
                    backend).impression
                for r in self.corpus}
        return self._pattern_clean

    def _expected_completions(self) -> dict:
        out = {}
        for report in self.corpus:
            labels = report.labels()
            names = [("no finding" if c == corpora.NO_FINDING else c)
                     for c in corpora.CONDITIONS if labels.get(c) == "positive"]
            prompt = "Positive labels: " + (", ".join(names) or "no finding")
            out[report.study_id] = stub.normalized_completion(prompt)
        return out

    def _check(self, posts) -> list:
        w, c = self.w, self.corpus
        results = checks.check_labels(c, w.labels)
        results += checks.check_stats(c, w.stats_csv, w.stats_json)
        results += checks.check_chi2(c, w.chi2)
        results += checks.check_clean(c, w.cleaned, self.relabel)
        sentence_labels = checks.final_sentence_labels(c, w.clean_audit)
        results += checks.check_index(w.index, sentence_labels)
        if self.remote:
            results += checks.check_clean_matches(
                c, w.cleaned, self._reference_cleaning())
            results += checks.check_generate_remote(
                c, w.generated, self._expected_completions(), posts)
        else:
            results += checks.check_generate_retrieval(
                c, w.index, w.generated, w.gen_audit, self.relabel)
        results += checks.check_evaluate(
            c, w.generated, w.cleaned, w.metrics_json,
            os.path.join(SRC, "radpragma", "data", "keywords.json"),
            self.relabel)
        return results

    # -- the run -----------------------------------------------------------

    def execute(self, seconds: float, trace: bool) -> dict:
        if self.remote:
            self.stub = Stub(self.w, self.env)
        self.setup_time()                     # warm caches and bytecode
        setup = [self.setup_time() for _ in range(SETUP_SAMPLES_FIRST)]
        rounds, verdicts = [], []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            stages = self.pipeline_round(trace, len(rounds) % 2 == 1)
            rounds.append(stages)
            verdicts.extend(self.check_round(stages))
            setup.append(self.setup_time())
        failed = [(op, expected) for op, ok, expected in verdicts if not ok]
        unexpected = sorted({op for op, expected in failed if not expected})
        self.unexpected = unexpected
        if unexpected:
            print("unexpected check failures: " + ", ".join(unexpected),
                  file=sys.stderr)
        if trace:
            metrics = self.layer_metrics(rounds)
        else:
            metrics = self.end_to_end_metrics(rounds, setup)
        return {"correct": not unexpected, "attempted": len(verdicts),
                "failed": len(failed), "metrics": metrics}

    def end_to_end_metrics(self, per_round: list, setup: list) -> dict:
        n = self.n

        def rate(stage):
            return statistics.median(n / s[stage]["wall"] for s in per_round)

        return {
            "setup_s": (statistics.median(setup), "s"),
            "pipeline_reports_per_s": (statistics.median(
                n / sum(s[x]["wall"] for x in STAGES) for s in per_round),
                "1/s"),
            "label_reports_per_s": (rate("label"), "1/s"),
            "clean_reports_per_s": (rate("clean"), "1/s"),
            "index_reports_per_s": (rate("index"), "1/s"),
            "generate_requests_per_s": (rate("generate"), "1/s"),
            "evaluate_reports_per_s": (rate("evaluate"), "1/s"),
            "peak_rss_mb": (statistics.median(
                max(s[x]["rss"] for x in STAGES) for s in per_round), "MB"),
        }

    def layer_metrics(self, rounds: list) -> dict:
        out = {}
        for stage in STAGES:
            out[f"cli.{stage}.wall_s"] = (statistics.median(
                s[stage]["wall"] for s in rounds), "s")
            out[f"cli.{stage}.cpu_s"] = (statistics.median(
                s[stage]["cpu"] for s in rounds), "s")
        layers = [self._round_layers(s) for s in rounds]
        for name, unit in LAYER_METRICS:
            out[name] = (statistics.median(m[name] for m in layers), unit)
        pipeline = statistics.median(sum(s[x]["wall"] for x in STAGES)
                                     for s in rounds)
        overhead = statistics.median(
            sum(s[x]["traced_wall"] - s[x]["wall"] for x in STAGES)
            for s in rounds)
        out["trace.overhead_s"] = (overhead, "s")
        out["trace.overhead_share"] = (overhead / pipeline, "ratio")
        return out

    def _round_layers(self, stages: dict) -> dict:
        calls, wall, self_ns = {}, {}, {}
        counters: dict = {}
        for info in stages.values():
            spans = info["spans"]
            for name, entry in spans["layers"].items():
                calls[name] = calls.get(name, 0) + entry["calls"]
                wall[name] = wall.get(name, 0) + entry["wall_ns"]
                self_ns[name] = self_ns.get(name, 0) + entry["self_ns"]
            for name, value in spans["counters"].items():
                counters[name] = counters.get(name, 0) + value

        def per_call_us(name):
            return wall[name] / calls[name] / 1e3 if calls[name] else 0.0

        def share(part, whole):
            return part / whole if whole else 0.0

        stub_clean = stages["clean"].get("stub", {})
        stub_gen = stages["generate"].get("stub", {})
        m = {}
        for name in SELF_TIMED:
            m[f"{name}.self_s"] = self_ns[name] / 1e9
        for name in COUNTED:
            m[f"{name}.calls"] = calls[name]
        m["labeler.label_sentence.us_per_call"] = per_call_us(
            "labeler.label_sentence")
        m["labeler.label_sentence.repeat_share"] = share(
            counters["label_sentence.repeats"],
            calls["labeler.label_sentence"])
        m["cleaning.triggered_share"] = share(
            counters["triggered_by.fired"],
            calls["cleaning.CleaningRule.triggered_by"])
        m["cleaning.guard_discards"] = self._guard_discards()
        m["backends.RemoteRewriteBackend.rewrite.wall_s"] = wall[
            "backends.RemoteRewriteBackend.rewrite"] / 1e9
        m["backends.remote.posts"] = stub_clean.get(
            "posts", {}).get("/rewrite", 0)
        m["backends.remote.duplicate_posts"] = stub_clean.get(
            "duplicate_rewrites", 0)
        m["backends.remote.connections"] = stub_clean.get("connections", 0)
        m["generator.generate_retrieval.us_per_call"] = per_call_us(
            "generator.generate_retrieval")
        m["generator.generate_remote.wall_s"] = wall[
            "generator.generate_remote"] / 1e9
        m["generator.remote.connections"] = stub_gen.get("connections", 0)
        m["corpus_io.write_text_atomic.bytes"] = counters[
            "write_text_atomic.bytes"]
        return m

    def _guard_discards(self) -> int:
        count = 0
        for record in checks.read_jsonl(self.w.clean_audit):
            count += sum(o["reason"].startswith("guard-discarded")
                         for o in record["outcomes"])
        return count


SELF_TIMED = (
    "labeler.label_sentence", "labeler.aggregate_labels",
    "model.segment_sentences", "stats.summarize",
    "stats.conditional_negative_rates", "cleaning.clean_report_audited",
    "cleaning.CleaningRule.triggered_by", "backends.PatternBackend.rewrite",
    "generator.build_index", "generator.RetrievalIndex.save",
    "generator.RetrievalIndex.load", "metrics.evaluate_generation",
    "metrics.bleu2", "metrics.hallucination_rate", "metrics.label_f1",
    "corpus_io.read_reports_jsonl", "corpus_io.read_labels_csv",
    "corpus_io.write_text_atomic")
COUNTED = (
    "labeler.label_sentence", "labeler.indication_mentions",
    "model.segment_sentences", "stats.chi_square_test",
    "cleaning.CleaningRule.triggered_by", "backends.PatternBackend.rewrite",
    "backends.RemoteRewriteBackend.rewrite", "generator.generate_remote")
_UNITS = {"self_s": "s", "wall_s": "s", "calls": "count", "us_per_call": "us",
          "repeat_share": "ratio", "triggered_share": "ratio",
          "guard_discards": "count", "posts": "count",
          "duplicate_posts": "count", "connections": "count",
          "bytes": "bytes"}
LAYER_METRICS = tuple(
    (name, _UNITS[name.rsplit(".", 1)[1]]) for name in sorted(
        [f"{n}.self_s" for n in SELF_TIMED]
        + [f"{n}.calls" for n in COUNTED]
        + ["labeler.label_sentence.us_per_call",
           "labeler.label_sentence.repeat_share",
           "cleaning.triggered_share", "cleaning.guard_discards",
           "backends.RemoteRewriteBackend.rewrite.wall_s",
           "backends.remote.posts", "backends.remote.duplicate_posts",
           "backends.remote.connections",
           "generator.generate_retrieval.us_per_call",
           "generator.generate_remote.wall_s",
           "generator.remote.connections",
           "corpus_io.write_text_atomic.bytes"]))


def run(workload: str, seed: int, seconds: float, trace: bool,
        reports=None, corrupt=None) -> dict:
    bench = Run(workload, seed, reports, corrupt)
    try:
        return bench.execute(seconds, trace)
    finally:
        bench.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the radpragma CLI pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "radpragma", "cli.py")):
        print(f"error: the radpragma package is missing from {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        # Every process of the run shares one CPU. On remote-io the stage
        # process and the stub hand each request back and forth; spread over
        # two CPUs of a shared virtual machine, those hand-offs wait on the
        # hypervisor whenever the host is busy, and the remote stage rates
        # spread far more than on one CPU (README, "Keeping runs steady").
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:48s} {value:>16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
