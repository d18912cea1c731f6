"""Independent checks of one pipeline round's outputs.

Each check returns a list of ``(operation, ok, expected_fault)`` results,
one per unit checked: a report, a request, a condition row or a metric.
The number of units never depends on the seed, so every round attempts the
same operations. ``expected_fault`` marks the units of the seed-independent
fault block (see ``corpus.FIXED_REPORTS``) whose failure is a known program
fault rather than a broken benchmark.

Expected values come from the planted labels, from plain recounts here and
from the test suite's brute-force oracles (``tests/oracles.py``), which are
imported, not copied.
Where a property is defined by relabeling program output (a cleaned
impression, a generated report), the package's labeler does the relabeling;
its agreement with the planted labels is itself the first check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

from corpus import CONDITIONS, NEG, NO_FINDING, POS, SCORABLE, UNC

_CELL = {"1.0": POS, "0.0": NEG, "-1.0": UNC, "": None}
NEGATIVE_F1_5 = ("Pneumothorax", "Pneumonia", "Edema", "Pleural Effusion",
                 "Consolidation")
POSITIVE_F1_5_DEFAULT = ("Atelectasis", "Cardiomegaly", "Consolidation",
                         "Edema", "Pleural Effusion")


def _close(got, want, rel=1e-9, abs_tol=1e-12) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_tol)


def _oracles():
    """``tests/oracles.py``; it imports ``radpragma``, so load it late."""
    tests = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    import oracles
    return oracles


def _num(cell: str):
    return None if cell == "NA" else float(cell)


def read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Relabeler:
    """The package labeler, memoized by text across rounds."""

    def __init__(self):
        from radpragma.labeler import label_report, label_sentence
        from radpragma.model import segment_sentences
        self._label_report = label_report
        self._label_sentence = label_sentence
        self._segment = segment_sentences
        self._reports: dict = {}

    def report(self, text: str) -> dict:
        if text not in self._reports:
            vector = self._label_report(text)
            self._reports[text] = {
                c.value: v.value for c, v in vector.as_mapping().items()
                if v.value != "not-mentioned"}
        return self._reports[text]

    def sentence(self, text: str) -> dict:
        vector = self._label_sentence(text)
        return {c.value: v.value for c, v in vector.as_mapping().items()
                if v.value != "not-mentioned"}

    def segments(self, text: str) -> list:
        return [s.text for s in self._segment(text)]


# ---------------------------------------------------------------------------
# label / stats / chi2
# ---------------------------------------------------------------------------

def read_label_csv(path: str) -> dict:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["study_id"] + list(CONDITIONS):
        return {}
    out = {}
    for row in rows[1:]:
        if len(row) == len(CONDITIONS) + 1 and all(c in _CELL for c in row[1:]):
            out[row[0]] = {c: _CELL[v] for c, v in zip(CONDITIONS, row[1:])
                           if _CELL[v] is not None}
    return out


def check_labels(corpus, path: str) -> list:
    got = read_label_csv(path)
    return [("label.row", got.get(r.study_id) == r.labels(), False)
            for r in corpus]


def recount_summary(corpus) -> dict:
    """The corpus summary recounted from planted labels by the oracle. As
    ``stats.summarize`` defines it, a report counts toward a condition's
    negative-given-indication share when it has any negative mention."""
    from radpragma.model import Condition
    summary = _oracles().naive_summary(
        [r.study_id for r in corpus],
        {r.study_id: {Condition(c): v for c, v in r.labels().items()}
         for r in corpus},
        {r.study_id: {Condition(c) for c in r.mentions} for r in corpus})
    summary["per_condition"] = {
        c.value: entry for c, entry in summary["per_condition"].items()}
    return summary


def check_stats(corpus, csv_path: str, json_path: str) -> list:
    want = recount_summary(corpus)
    scalars = [k for k in want if k != "per_condition"]
    ok = True
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    try:
        head = {row[0]: _num(row[1]) for row in rows[1:1 + len(scalars)]}
        ok = all(_close(head.get(k), want[k]) for k in scalars)
        body = {row[0]: row[1:] for row in rows[3 + len(scalars):]}
        for c, entry in want["per_condition"].items():
            cells = body[c]
            ok = ok and (
                int(cells[0]) == entry["negative_mentions"]
                and int(cells[1]) == entry["indication_mentions"]
                and _close(_num(cells[2]), entry[
                    "pct_reports_with_negative_given_indication"]))
    except (IndexError, KeyError, ValueError):
        ok = False
    with open(json_path, encoding="utf-8") as handle:
        obj = json.load(handle)
    ok_json = all(_close(obj.get(k), want[k], 1e-12) for k in scalars)
    for c, entry in want["per_condition"].items():
        got = obj.get("per_condition", {}).get(c, {})
        ok_json = ok_json and (
            got.get("negative_mentions") == entry["negative_mentions"]
            and got.get("indication_mentions") == entry["indication_mentions"]
            and _close(got.get("pct_reports_with_negative_given_indication"),
                       entry["pct_reports_with_negative_given_indication"],
                       1e-12))
    return [("stats.csv", ok, False), ("stats.json", ok_json, False)]


def chi_square(a: int, b: int, c: int, d: int):
    """Pearson statistic n(ad-bc)^2 / (row and column totals) and its
    1-dof p-value erfc(sqrt(x/2)); None when a marginal is zero."""
    rows, cols = (a + b, c + d), (a + c, b + d)
    if 0 in rows + cols:
        return None, None
    n = a + b + c + d
    x = n * (a * d - b * c) ** 2 / (rows[0] * rows[1] * cols[0] * cols[1])
    return x, math.erfc(math.sqrt(x / 2.0))


def check_chi2(corpus, path: str) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = {row[0]: row[1:] for row in list(csv.reader(handle))[1:]}
    out = []
    for condition in SCORABLE:
        a = b = c = d = 0
        for report in corpus:
            value = report.labels().get(condition)
            if value not in (NEG, None):
                continue
            asked = condition in report.mentions
            if value == NEG:
                a, c = a + asked, c + (not asked)
            else:
                b, d = b + asked, d + (not asked)
        x, p = chi_square(a, b, c, d)
        want = [Fraction(a, a + b) if a + b else None,
                Fraction(c, c + d) if c + d else None, x, p]
        cells = rows.get(condition)
        try:
            # The p-value of a planted association can be far below any
            # absolute tolerance, so it is compared by relative error only.
            ok = (cells is not None
                  and all(_close(_num(g), w, 1e-8, abs_tol)
                          for g, w, abs_tol in zip(cells[:4], want,
                                                   (1e-12, 1e-12, 1e-12, 0)))
                  and cells[4] == ("***" if p is not None and p < 0.001
                                   else ""))
        except ValueError:
            ok = False
        out.append(("chi2.row", ok, False))
    return out


# ---------------------------------------------------------------------------
# clean
# ---------------------------------------------------------------------------

def check_clean(corpus, cleaned_path: str, relabel: Relabeler) -> list:
    """Per report: the cleaned impression relabels like the original
    (report-level guard), and planted boilerplate is gone."""
    cleaned = {r["study_id"]: r for r in read_jsonl(cleaned_path)}
    out = []
    for report in corpus:
        row = cleaned.get(report.study_id)
        if row is None or row.get("indication") != report.indication:
            out.append(("clean.guard", False, False))
            out.append(("clean.boilerplate", False, False))
            continue
        text = row["impression"]
        out.append(("clean.guard", relabel.report(text) == report.labels(),
                    report.fault == "guard"))
        gone = all(s.text not in text for s in report.sentences
                   if s.boilerplate)
        out.append(("clean.boilerplate", gone, False))
    return out


def check_clean_matches(corpus, cleaned_path: str, reference: dict) -> list:
    """Remote cleaning equals pattern cleaning of the same corpus."""
    cleaned = {r["study_id"]: r["impression"]
               for r in read_jsonl(cleaned_path)}
    return [("clean.remote_equals_pattern",
             cleaned.get(r.study_id) == reference[r.study_id], False)
            for r in corpus]


def final_sentence_labels(corpus, audit_path: str) -> dict:
    """Cleaned sentence text -> planted labels of the sentence it came
    from, read through the clean audit (whose originals must match the
    planted sentences)."""
    by_id = {r.study_id: r for r in corpus}
    out: dict = {}
    for record in read_jsonl(audit_path):
        report = by_id.get(record["study_id"])
        if report is None or record["index"] >= len(report.sentences):
            continue
        planted = report.sentences[record["index"]]
        if planted.text != record["original"]:
            continue
        out.setdefault(record["final"], []).append(planted.labels)
    return out


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def check_index(index_path: str, sentence_labels: dict) -> list:
    """Each pool sentence has exactly one mention, negative, of its
    condition."""
    with open(index_path, encoding="utf-8") as handle:
        index = json.load(handle)
    pools = index.get("negative_pool", {})
    out = []
    for condition in SCORABLE:
        ok = condition in pools
        for entry in pools.get(condition, ()):
            candidates = sentence_labels.get(entry["text"], [])
            ok = ok and bool(candidates) and all(
                labels == {condition: NEG} for labels in candidates)
        out.append(("index.pool", ok, False))
    return out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def check_generate_retrieval(corpus, index_path: str, generated_path: str,
                             audit_path: str, relabel: Relabeler) -> list:
    """Per request: the output equals retrieval recomputed from the index
    file and the planted labels, and each appended negative labels
    negative in the sentence it ends up in."""
    with open(index_path, encoding="utf-8") as handle:
        index = json.load(handle)
    keys = {frozenset(e["conditions"]): e["study_ids"]
            for e in index["by_label_set"]}
    pools = index["negative_pool"]
    generated = {r["study_id"]: r["impression"]
                 for r in read_jsonl(generated_path)}
    audits = {a["study_id"]: a for a in read_jsonl(audit_path)}
    out = []
    for report in corpus:
        labels = report.labels()
        predicted = frozenset(c for c, v in labels.items() if v == POS)
        text = generated.get(report.study_id)
        audit = audits.get(report.study_id, {})
        negatives = [(c, pools[c][0]["text"]) for c in SCORABLE
                     if c in report.mentions and c not in predicted
                     and pools.get(c)]
        ok = predicted in keys and text is not None
        if ok:
            pieces = [index["impressions"][keys[predicted][0]]]
            pieces += [t for _, t in negatives]
            ok = (text == " ".join(" ".join(p for p in pieces if p).split())
                  and audit.get("negatives_added") == dict(negatives))
        out.append(("generate.retrieval", ok, False))
        joined = ok
        if ok:
            segments = relabel.segments(text)
            for condition, sentence in negatives:
                home = [s for s in segments if sentence in s]
                joined = joined and bool(home) and (
                    relabel.sentence(home[-1]).get(condition) == NEG)
        out.append(("generate.join", joined, report.fault == "join"))
    return out


def check_generate_remote(corpus, generated_path: str, expected: dict,
                          posts: int) -> list:
    generated = {r["study_id"]: r["impression"]
                 for r in read_jsonl(generated_path)}
    out = [("generate.completion",
            generated.get(r.study_id) == expected[r.study_id], False)
           for r in corpus]
    out.append(("generate.posts", posts == len(corpus), False))
    return out


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def check_evaluate(corpus, generated_path: str, cleaned_path: str,
                   metrics_path: str, keywords_path: str,
                   relabel: Relabeler) -> list:
    generated = {r["study_id"]: r["impression"]
                 for r in read_jsonl(generated_path)}
    cleaned = {r["study_id"]: r["impression"]
               for r in read_jsonl(cleaned_path)}
    with open(metrics_path, encoding="utf-8") as handle:
        got = json.load(handle)
    with open(keywords_path, encoding="utf-8") as handle:
        categories = json.load(handle)["categories"]
    ids = sorted(r.study_id for r in corpus)
    ref = {r.study_id: r.labels() for r in corpus}
    pred = {i: relabel.report(generated[i]) for i in ids}
    counts = Counter(c for labels in ref.values() for c, v in labels.items()
                     if v == POS and c != NO_FINDING)
    order = {c: i for i, c in enumerate(CONDITIONS)}
    top5 = (tuple(sorted(counts, key=lambda c: (-counts[c], order[c]))[:5])
            if counts else POSITIVE_F1_5_DEFAULT)
    originals = {r.study_id: r.impression for r in corpus}
    texts = [generated[i] for i in ids]
    oracles = _oracles()
    rate, by_category = oracles.naive_hallucination(texts, categories)
    f1, bleu2 = oracles.naive_label_f1, oracles.naive_bleu2
    want = {
        "pos_f1": f1(pred, ref, SCORABLE, POS),
        "pos_f1_5": f1(pred, ref, top5, POS),
        "neg_f1": f1(pred, ref, SCORABLE, NEG),
        "neg_f1_5": f1(pred, ref, NEGATIVE_F1_5, NEG),
        "bleu2": bleu2(texts, [originals[i] for i in ids]),
        "clean_bleu2": bleu2(texts, [cleaned[i] for i in ids]),
        "hallucination_rate": rate,
    }
    out = [(f"evaluate.{k}", _close(got.get(k), v), False)
           for k, v in want.items()]
    out.append(("evaluate.breakdown",
                got.get("hallucination_by_category", {}).keys()
                == by_category.keys()
                and all(_close(got["hallucination_by_category"][k], v)
                        for k, v in by_category.items())
                and got.get("pos_f1_5_conditions") == list(top5), False))
    return out
