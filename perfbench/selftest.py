"""Smoke-sized self-test of the benchmark itself.

Run from the repository root: ``python3 perfbench/selftest.py``. It takes
about 80 s and checks that

* every workload runs one round on a tiny corpus, with every check passing
  except the known program faults, and a traced run reports every
  per-layer metric;
* a deliberately corrupted output (a flipped label cell, a wrong count, a
  boilerplate sentence put back, a p-value far below 1e-12 gone wrong,
  ...) is reported as a failed operation, so the checks can fail;
* without the package next to it, ``run.py`` exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run as bench  # noqa: E402

REPORTS = 60
#: Known program faults per round: report-level guard, generator join.
EXPECTED_FAILED = {"offline-unique": 7, "offline-repeat": 7, "remote-io": 4}


def _edit(path: str, fn) -> None:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    changed = fn(text)
    assert changed != text, f"corruption left {path} unchanged"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(changed)


def _flip_label(w):
    _edit(w.labels, lambda t: t.replace(",1.0", ",0.0", 1))


def _wrong_count(w):
    _edit(w.stats_json, lambda t: re.sub(r'"report_count": \d+',
                                         '"report_count": 1', t))


def _wrong_statistic(w):
    def change(text):
        lines = text.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[3] = "12345" if cells[3] != "12345" else "1"
        lines[1] = ",".join(cells)
        return "".join(lines)
    _edit(w.chi2, change)


def _wrong_p_value(w):
    def change(text):
        # erfc(sqrt(x)) in place of erfc(sqrt(x / 2)) on the row with the
        # largest statistic, whose p-value is the smallest.
        lines = text.splitlines(keepends=True)
        rows = [line.split(",") for line in lines]
        row = max((r for r in rows[1:] if r[3] != "NA"),
                  key=lambda r: float(r[3]))
        row[4] = format(math.erfc(math.sqrt(float(row[3]))), ".10g")
        return "".join(",".join(r) for r in rows)
    _edit(w.chi2, change)


def _boilerplate_back(w):
    with open(w.corpus, encoding="utf-8") as handle:
        originals = [json.loads(line) for line in handle]

    def change(text):
        # The uncleaned corpus, boilerplate and all.
        return "".join(json.dumps(r) + "\n" for r in originals)
    _edit(w.cleaned, change)


def _positive_in_pool(w):
    def change(text):
        index = json.loads(text)
        pool = next(p for p in index["negative_pool"].values() if p)
        pool.append({"text": "Small right pleural effusion.",
                     "study_id": "x"})
        return json.dumps(index)
    _edit(w.index, change)


def _wrong_generation(w):
    def change(text):
        rows = [json.loads(line) for line in text.splitlines()]
        rows[-1]["impression"] += " There is pneumonia."
        return "".join(json.dumps(r) + "\n" for r in rows)
    _edit(w.generated, change)


def _wrong_bleu(w):
    def change(text):
        metrics = json.loads(text)
        metrics["bleu2"] = metrics["bleu2"] / 2 + 0.01
        return json.dumps(metrics)
    _edit(w.metrics_json, change)


CORRUPTIONS = (
    ("label.row", _flip_label),
    ("stats.json", _wrong_count),
    ("chi2.row", _wrong_statistic),
    ("clean.boilerplate", _boilerplate_back),
    ("index.pool", _positive_in_pool),
    ("generate.retrieval", _wrong_generation),
    ("evaluate.bleu2", _wrong_bleu),
)
REMOTE_CORRUPTIONS = (
    ("clean.remote_equals_pattern", _boilerplate_back),
    ("generate.completion", _wrong_generation),
)


def _one_round(workload: str, corrupt=None, trace=False, reports=REPORTS):
    def after_stage(stage, w):
        # Corrupt once the round's last stage has run, so only the check
        # of the corrupted file can see it.
        if corrupt is not None and stage == bench.STAGES[-1]:
            corrupt(w)
    run = bench.Run(workload, seed=7, reports=reports, corrupt=after_stage)
    try:
        result = run.execute(0, trace)
    finally:
        run.close()
    return result, run.unexpected


def _declared(kind: str) -> dict:
    """Metric name -> unit as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _units(result) -> dict:
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def test_workloads() -> None:
    for workload in bench.WORKLOADS:
        result, unexpected = _one_round(workload)
        assert result["correct"] and not unexpected, (workload, unexpected)
        assert _units(result) == _declared("end_to_end"), workload
        assert result["failed"] == EXPECTED_FAILED[workload], \
            (workload, result["failed"])
        print(f"ok   {workload}: {result['attempted']} attempted, "
              f"{result['failed']} known faults")


def test_traced_run() -> None:
    result, _ = _one_round("offline-repeat", trace=True)
    units, declared = _units(result), _declared("per_layer")
    assert units == declared, set(units.items()) ^ set(declared.items())
    print(f"ok   traced run reports the {len(units)} declared per-layer "
          f"metrics")


def test_corruptions() -> None:
    cases = [("offline-unique",) + c for c in CORRUPTIONS]
    cases += [("remote-io",) + c for c in REMOTE_CORRUPTIONS]
    for workload, check, corrupt in cases:
        result, unexpected = _one_round(workload, corrupt)
        assert not result["correct"], (workload, check)
        assert check in unexpected, (workload, check, unexpected)
        print(f"ok   {workload}: {corrupt.__name__.strip('_')} "
              f"fails {check}")


def test_small_p_value() -> None:
    # At the workload's own size the planted associations give p-values
    # below 1e-12, where only a relative comparison sees a wrong one.
    reports = bench.WORKLOADS["offline-unique"]["reports"]
    result, unexpected = _one_round("offline-unique", _wrong_p_value,
                                    reports=reports)
    assert not result["correct"] and "chi2.row" in unexpected, unexpected
    print(f"ok   offline-unique, {reports} reports: wrong_p_value fails "
          f"chi2.row")


def test_without_package() -> None:
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"), prefix="bare-")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "offline-unique", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok   without the package: exit {proc.returncode}, no result")


def main() -> int:
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    test_without_package()
    test_workloads()
    test_traced_run()
    test_corruptions()
    test_small_p_value()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
