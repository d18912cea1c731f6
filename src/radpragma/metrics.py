"""Evaluation metrics: Positive/Negative F1 (full and most-frequent-five),
corpus BLEU-2, exact-match accuracy, and the keyword hallucination measure.

F1 conventions: per condition, a binary classification with the positive
class being "label == positive" (Positive F1) or "label == negative"
(Negative F1); F1 is defined as 0 when precision + recall is 0. Aggregation
is macro by default, with micro available behind a flag.

Hallucination: a report is flagged for a keyword category if any lowercase
alphanumeric token matches any category stem; stems of length >= 4 match by
prefix, shorter stems (like "ap"/"pa") require exact token equality.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Optional, Sequence

from .corpus_io import load_json
from .errors import InputError
from .labeler import Lexicon, default_lexicon, label_report
from .model import (CONDITIONS, Condition, LabelValue, LabelVector, Report,
                    normalize_text, stem_pattern, tokenize)

#: The allowed ``average`` values of the F1 scores.
F1_AVERAGES: tuple[str, ...] = ("macro", "micro")

#: Default conditions for Positive F1-5: most frequent positive conditions.
POSITIVE_F1_5_DEFAULT: tuple[Condition, ...] = (
    Condition.ATELECTASIS, Condition.CARDIOMEGALY, Condition.CONSOLIDATION,
    Condition.EDEMA, Condition.PLEURAL_EFFUSION)

#: Conditions for Negative F1-5: the most frequent negative mentions
#: (Cardiomegaly excluded for its tiny dev/test support).
NEGATIVE_F1_5: tuple[Condition, ...] = (
    Condition.PNEUMOTHORAX, Condition.PNEUMONIA, Condition.EDEMA,
    Condition.PLEURAL_EFFUSION, Condition.CONSOLIDATION)

SCORABLE_CONDITIONS: tuple[Condition, ...] = tuple(
    c for c in CONDITIONS if not c.is_no_finding)


@dataclass(frozen=True)
class ConditionF1:
    tp: int
    fp: int
    fn: int

    @property
    def support(self) -> int:
        return self.tp + self.fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) else 0.0


def _aligned_ids(pred: Mapping[str, LabelVector],
                 ref: Mapping[str, LabelVector]) -> list[str]:
    if set(pred) != set(ref):
        missing = sorted(set(ref) - set(pred))
        extra = sorted(set(pred) - set(ref))
        parts = []
        if missing:
            parts.append(f"missing from predictions: {missing[:5]}")
        if extra:
            parts.append(f"unknown in references: {extra[:5]}")
        raise InputError("label vectors are misaligned: " + "; ".join(parts))
    return sorted(pred)


def _columns(labels: Mapping[str, LabelVector], ids: Sequence[str],
             ) -> list[tuple[LabelValue, ...]]:
    """The labels of ``ids``, one tuple per condition in canonical order."""
    return (list(zip(*(labels[i].values for i in ids)))
            or [()] * len(CONDITIONS))


def _label_f1(pred: Mapping[str, LabelVector], ref: Mapping[str, LabelVector],
              conditions: Sequence[Condition], target: LabelValue,
              average: str) -> tuple[float, dict[Condition, ConditionF1]]:
    conditions = tuple(conditions)
    if any(c.is_no_finding for c in conditions):
        raise ValueError("No Finding is excluded from F1 scoring")
    if average not in F1_AVERAGES:
        raise ValueError(f"unknown F1 average: {average!r}")
    ids = _aligned_ids(pred, ref)
    pred_columns, ref_columns = _columns(pred, ids), _columns(ref, ids)
    per_condition = {}
    for condition in conditions:
        column = CONDITIONS.index(condition)
        hits, truths = pred_columns[column], ref_columns[column]
        # ``is`` and ``tuple.count`` compare by identity, so no Enum is hashed.
        tp = sum(hit is target and truth is target
                 for hit, truth in zip(hits, truths))
        per_condition[condition] = ConditionF1(
            tp, hits.count(target) - tp, truths.count(target) - tp)
    if average == "macro":
        score = (sum(s.f1 for s in per_condition.values()) / len(per_condition)
                 if per_condition else 0.0)
    else:
        pooled = ConditionF1(sum(s.tp for s in per_condition.values()),
                             sum(s.fp for s in per_condition.values()),
                             sum(s.fn for s in per_condition.values()))
        score = pooled.f1
    return score, per_condition


def positive_f1(pred: Mapping[str, LabelVector], ref: Mapping[str, LabelVector],
                conditions: Optional[Sequence[Condition]] = None,
                average: str = "macro",
                ) -> tuple[float, dict[Condition, ConditionF1]]:
    """F1 of positive mentions, aggregated over the given conditions."""
    return _label_f1(pred, ref, conditions or SCORABLE_CONDITIONS,
                     LabelValue.POSITIVE, average)


def negative_f1(pred: Mapping[str, LabelVector], ref: Mapping[str, LabelVector],
                conditions: Optional[Sequence[Condition]] = None,
                average: str = "macro",
                ) -> tuple[float, dict[Condition, ConditionF1]]:
    """F1 of negative mentions, aggregated over the given conditions."""
    return _label_f1(pred, ref, conditions or SCORABLE_CONDITIONS,
                     LabelValue.NEGATIVE, average)


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    if n == 1:
        return Counter(tokens)
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu2(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Corpus-level BLEU-2: geometric mean of modified unigram and bigram
    precision with brevity penalty exp(1 - r/c) when c < r.

    Tokenization is lowercase, split on non-alphanumeric characters. One
    reference per hypothesis. An empty hypothesis corpus scores 0.
    """
    if len(hypotheses) != len(references):
        raise InputError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs "
            f"{len(references)}")
    hyp_len = ref_len = 0
    clipped = [0, 0]
    totals = [0, 0]
    for hypothesis, reference in zip(hypotheses, references):
        hyp_tokens = tokenize(hypothesis)
        ref_tokens = tokenize(reference)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in (1, 2):
            hyp_counts = _ngram_counts(hyp_tokens, n)
            ref_counts = _ngram_counts(ref_tokens, n)
            totals[n - 1] += sum(hyp_counts.values())
            clipped[n - 1] += sum(min(count, ref_counts[gram])
                                  for gram, count in hyp_counts.items())
    if hyp_len == 0:
        return 0.0
    if totals[0] == 0 or totals[1] == 0 or clipped[0] == 0 or clipped[1] == 0:
        return 0.0
    p1 = clipped[0] / totals[0]
    p2 = clipped[1] / totals[1]
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.sqrt(p1 * p2)


def exact_match_accuracy(hypotheses: Sequence[str],
                         references: Sequence[str]) -> float:
    """Fraction of pairs equal after whitespace normalization."""
    if len(hypotheses) != len(references):
        raise InputError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs "
            f"{len(references)}")
    if not hypotheses:
        return 0.0
    hits = sum(normalize_text(h) == normalize_text(r)
               for h, r in zip(hypotheses, references))
    return hits / len(hypotheses)


@dataclass(frozen=True)
class KeywordCatalog:
    """Versioned keyword stems marking uninferable report content."""

    version: str
    categories: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        for name, stems in self.categories:
            if not stems:
                raise InputError(f"keyword category {name!r} is empty")
            for stem in stems:
                # A stem must be one whole token, or it could never match.
                if not (isinstance(stem, str) and tokenize(stem) == [stem]):
                    raise InputError(
                        f"keyword category {name!r}: stem {stem!r} is not "
                        f"lowercase letters and digits ([a-z0-9]+)")

    @property
    def category_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.categories)

    def flags(self, text: str) -> frozenset[str]:
        """Categories whose stems match any token of ``text``."""
        lowered = text.lower()
        return frozenset(name for name, stems in self.categories
                         if stem_pattern(stems).search(lowered))

    @classmethod
    def from_dict(cls, obj: dict) -> "KeywordCatalog":
        try:
            version, categories = str(obj["version"]), obj["categories"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"invalid keyword catalog: {exc}") from None
        if not isinstance(categories, dict):
            raise InputError(f"keyword categories must be an object, "
                             f"got {categories!r}")
        for name, stems in categories.items():
            # A string would otherwise become one stem per character.
            if not isinstance(stems, list):
                raise InputError(f"keyword category {name!r} must be a "
                                 f"list, got {stems!r}")
        return cls(version=version,
                   categories=tuple((name, tuple(stems))
                                    for name, stems in categories.items()))

    def to_dict(self) -> dict:
        return {"version": self.version,
                "categories": {name: list(stems)
                               for name, stems in self.categories}}

    @classmethod
    def load(cls, path: str) -> "KeywordCatalog":
        return load_json(path, "keyword catalog", cls.from_dict)


@functools.cache
def default_catalog() -> KeywordCatalog:
    """The keyword catalog shipped with the package."""
    text = (resources.files("radpragma") / "data" / "keywords.json") \
        .read_text(encoding="utf-8")
    return KeywordCatalog.from_dict(json.loads(text))


def hallucination_rate(reports: Sequence[str],
                       catalog: Optional[KeywordCatalog] = None,
                       ) -> tuple[float, dict[str, float]]:
    """Fraction of reports containing any uninferable-information keyword,
    plus the per-category breakdown."""
    catalog = catalog or default_catalog()
    names = catalog.category_names
    flagged_any = 0
    flagged = {name: 0 for name in names}
    for text in reports:
        hits = catalog.flags(text)
        if hits:
            flagged_any += 1
        for name in hits:
            flagged[name] += 1
    n = len(reports)
    if n == 0:
        return 0.0, {name: 0.0 for name in names}
    return flagged_any / n, {name: flagged[name] / n for name in names}


@dataclass(frozen=True)
class MetricsReport:
    """All scores for one (generated, reference) corpus pair."""

    pos_f1: float
    pos_f1_5: float
    neg_f1: float
    neg_f1_5: float
    bleu2: float
    clean_bleu2: float
    hallucination_rate: float
    hallucination_by_category: tuple[tuple[str, float], ...]
    pos_f1_5_conditions: tuple[Condition, ...]
    neg_f1_5_conditions: tuple[Condition, ...]
    per_condition_pos: tuple[tuple[Condition, ConditionF1], ...]
    per_condition_neg: tuple[tuple[Condition, ConditionF1], ...]
    support: tuple[tuple[Condition, tuple[int, int]], ...]
    average: str

    def to_dict(self) -> dict:
        return {
            "pos_f1": self.pos_f1,
            "pos_f1_5": self.pos_f1_5,
            "neg_f1": self.neg_f1,
            "neg_f1_5": self.neg_f1_5,
            "bleu2": self.bleu2,
            "clean_bleu2": self.clean_bleu2,
            "hallucination_rate": self.hallucination_rate,
            "hallucination_by_category": dict(self.hallucination_by_category),
            "pos_f1_5_conditions": [c.value for c in self.pos_f1_5_conditions],
            "neg_f1_5_conditions": [c.value for c in self.neg_f1_5_conditions],
            "per_condition": {
                c.value: {
                    "pos_f1": dict(self.per_condition_pos)[c].f1,
                    "neg_f1": dict(self.per_condition_neg)[c].f1,
                    "support_positive": dict(self.support)[c][0],
                    "support_negative": dict(self.support)[c][1],
                }
                for c in SCORABLE_CONDITIONS
            },
            "average": self.average,
        }


def most_frequent_positive_conditions(
        ref: Mapping[str, LabelVector], k: int = 5) -> tuple[Condition, ...]:
    """The k conditions most often positive in the references; ties break in
    canonical order. Falls back to the shipped default when the references
    carry no positive mentions at all."""
    counts = {c: 0 for c in SCORABLE_CONDITIONS}
    for vector in ref.values():
        for condition in vector.positives():
            if not condition.is_no_finding:
                counts[condition] += 1
    if not any(counts.values()):
        return POSITIVE_F1_5_DEFAULT
    order = {c: i for i, c in enumerate(CONDITIONS)}
    ranked = sorted(counts, key=lambda c: (-counts[c], order[c]))
    return tuple(ranked[:k])


def evaluate_generation(generated: Sequence[Report],
                        reference_original: Sequence[Report],
                        reference_clean: Sequence[Report],
                        lexicon: Optional[Lexicon] = None,
                        catalog: Optional[KeywordCatalog] = None,
                        average: str = "macro",
                        reference_labels: Optional[Mapping[str, LabelVector]]
                        = None) -> MetricsReport:
    """Score a generated corpus against original and cleaned references.

    All three corpora must cover the same study_ids. F1 metrics compare
    labeler output on generated impressions against labels of the original
    references (or ``reference_labels`` when provided); BLEU-2 runs against
    the originals and Clean BLEU-2 against the cleaned references.
    """
    lexicon = lexicon or default_lexicon()
    catalog = catalog or default_catalog()
    gen_by_id = {r.study_id: r for r in generated}
    orig_by_id = {r.study_id: r for r in reference_original}
    clean_by_id = {r.study_id: r for r in reference_clean}
    for name, mapping in (("original", orig_by_id), ("clean", clean_by_id)):
        if set(mapping) != set(gen_by_id):
            raise InputError(
                f"generated and {name} reference corpora are misaligned")
    ids = [r.study_id for r in generated]

    gen_labels = {i: label_report(gen_by_id[i].impression, lexicon)
                  for i in ids}
    if reference_labels is not None:
        ref_labels = {i: _require_label(reference_labels, i) for i in ids}
    else:
        ref_labels = {i: label_report(orig_by_id[i].impression, lexicon)
                      for i in ids}

    pos_five = most_frequent_positive_conditions(ref_labels)
    pos_score, pos_per = positive_f1(gen_labels, ref_labels,
                                     SCORABLE_CONDITIONS, average)
    pos5_score, _ = positive_f1(gen_labels, ref_labels, pos_five, average)
    neg_score, neg_per = negative_f1(gen_labels, ref_labels,
                                     SCORABLE_CONDITIONS, average)
    neg5_score, _ = negative_f1(gen_labels, ref_labels, NEGATIVE_F1_5, average)

    gen_texts = [gen_by_id[i].impression for i in ids]
    bleu = bleu2(gen_texts, [orig_by_id[i].impression for i in ids])
    clean_bleu = bleu2(gen_texts, [clean_by_id[i].impression for i in ids])
    rate, by_category = hallucination_rate(gen_texts, catalog)

    ref_columns = _columns(ref_labels, ids)
    support = tuple(
        (c, (column.count(LabelValue.POSITIVE),
             column.count(LabelValue.NEGATIVE)))
        for c, column in zip(CONDITIONS, ref_columns)
        if not c.is_no_finding)
    return MetricsReport(
        pos_f1=pos_score, pos_f1_5=pos5_score,
        neg_f1=neg_score, neg_f1_5=neg5_score,
        bleu2=bleu, clean_bleu2=clean_bleu,
        hallucination_rate=rate,
        hallucination_by_category=tuple(sorted(by_category.items())),
        pos_f1_5_conditions=pos_five,
        neg_f1_5_conditions=NEGATIVE_F1_5,
        per_condition_pos=tuple(pos_per.items()),
        per_condition_neg=tuple(neg_per.items()),
        support=support,
        average=average,
    )


def _require_label(labels: Mapping[str, LabelVector], study_id: str,
                   ) -> LabelVector:
    try:
        return labels[study_id]
    except KeyError:
        raise InputError(
            f"missing reference labels for study_id {study_id!r}") from None
