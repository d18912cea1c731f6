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

from .corpus_io import load_json, lookup
from .errors import InputError
from .labeler import Lexicon, label_report
from .model import (CONDITIONS, SCORABLE_CONDITIONS, Condition, LabelValue,
                    LabelVector, Report, StemIndex, normalize_text,
                    tokenize)

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
              target: LabelValue, average: str,
              ) -> tuple[float, dict[Condition, ConditionF1]]:
    if average not in F1_AVERAGES:
        raise ValueError(f"unknown F1 average: {average!r}")
    ids = _aligned_ids(pred, ref)
    pred_columns, ref_columns = _columns(pred, ids), _columns(ref, ids)
    per_condition = {}
    for condition in SCORABLE_CONDITIONS:
        column = CONDITIONS.index(condition)
        hits, truths = pred_columns[column], ref_columns[column]
        # ``is`` and ``tuple.count`` compare by identity, so no Enum is hashed.
        tp = sum(hit is target and truth is target
                 for hit, truth in zip(hits, truths))
        per_condition[condition] = ConditionF1(
            tp, hits.count(target) - tp, truths.count(target) - tp)
    return _average(per_condition, average), per_condition


def _average(counts: Mapping[Condition, ConditionF1], average: str) -> float:
    """The macro or micro F1 of per-condition counts, summed in their
    order."""
    if average == "macro":
        return (sum(s.f1 for s in counts.values()) / len(counts)
                if counts else 0.0)
    return ConditionF1(sum(s.tp for s in counts.values()),
                       sum(s.fp for s in counts.values()),
                       sum(s.fn for s in counts.values())).f1


def positive_f1(pred: Mapping[str, LabelVector], ref: Mapping[str, LabelVector],
                average: str = "macro",
                ) -> tuple[float, dict[Condition, ConditionF1]]:
    """F1 of positive mentions over the 13 scorable conditions."""
    return _label_f1(pred, ref, LabelValue.POSITIVE, average)


def negative_f1(pred: Mapping[str, LabelVector], ref: Mapping[str, LabelVector],
                average: str = "macro",
                ) -> tuple[float, dict[Condition, ConditionF1]]:
    """F1 of negative mentions over the 13 scorable conditions."""
    return _label_f1(pred, ref, LabelValue.NEGATIVE, average)


def _clipped(hyp_counts: Counter, ref_counts: Counter) -> int:
    """Hypothesis n-grams matched in the reference, each at most as often
    as the reference has it."""
    # A plain loop with dict.get calls neither Counter.__missing__ nor min()
    # per n-gram; it is the inner loop of evaluate's BLEU pass.
    clipped = 0
    for gram, count in hyp_counts.items():
        ref_count = ref_counts.get(gram, 0)
        clipped += count if count < ref_count else ref_count
    return clipped


def _bleu2_scores(hypotheses: Sequence[str],
                  *reference_lists: Sequence[str]) -> list[float]:
    """``bleu2`` of ``hypotheses`` against each reference list, in one pass
    that tokenizes and counts each hypothesis's n-grams once."""
    for references in reference_lists:
        if len(hypotheses) != len(references):
            raise InputError(
                f"hypothesis/reference length mismatch: {len(hypotheses)} "
                f"vs {len(references)}")
    hyp_len = bigram_total = 0
    # Per reference list: reference length, clipped unigrams and bigrams.
    sums = [[0, 0, 0] for _ in reference_lists]
    for i, hypothesis in enumerate(hypotheses):
        tokens = tokenize(hypothesis)
        unigrams, bigrams = Counter(tokens), Counter(zip(tokens, tokens[1:]))
        hyp_len += len(tokens)
        bigram_total += max(len(tokens) - 1, 0)
        for references, acc in zip(reference_lists, sums):
            ref_tokens = tokenize(references[i])
            acc[0] += len(ref_tokens)
            acc[1] += _clipped(unigrams, Counter(ref_tokens))
            acc[2] += _clipped(bigrams,
                               Counter(zip(ref_tokens, ref_tokens[1:])))
    scores = []
    for ref_len, clipped1, clipped2 in sums:
        if 0 in (hyp_len, bigram_total, clipped1, clipped2):
            scores.append(0.0)
            continue
        p1 = clipped1 / hyp_len
        p2 = clipped2 / bigram_total
        brevity = (1.0 if hyp_len >= ref_len
                   else math.exp(1.0 - ref_len / hyp_len))
        scores.append(brevity * math.sqrt(p1 * p2))
    return scores


def bleu2(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Corpus-level BLEU-2: geometric mean of modified unigram and bigram
    precision with brevity penalty exp(1 - r/c) when c < r.

    Tokenization is lowercase, split on non-alphanumeric characters. One
    reference per hypothesis. An empty hypothesis corpus scores 0.
    """
    return _bleu2_scores(hypotheses, references)[0]


def _once_per_text(function, texts: Sequence[str]) -> list:
    """``function`` of each text, called once per distinct text."""
    results = {text: function(text) for text in dict.fromkeys(texts)}
    return [results[text] for text in texts]


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

    @functools.cached_property
    def _index(self) -> StemIndex:
        return StemIndex(self.categories)

    def flags(self, text: str) -> frozenset[str]:
        """Categories whose stems match any token of ``text``."""
        return frozenset(self._index.ids(text))

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
    for hits in _once_per_text(catalog.flags, reports):
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
    average: str

    def to_dict(self) -> dict:
        pos, neg = dict(self.per_condition_pos), dict(self.per_condition_neg)
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
                c.value: {"pos_f1": pos[c].f1, "neg_f1": neg[c].f1,
                          "support_positive": pos[c].support,
                          "support_negative": neg[c].support}
                for c in SCORABLE_CONDITIONS
            },
            "average": self.average,
        }


def _most_supported(counts: Mapping[Condition, ConditionF1],
                    ) -> tuple[Condition, ...]:
    """The five conditions with the most support in ``counts``, the positive
    counts of every scorable condition in canonical order; the sort is
    stable, so ties stay in canonical order. With no support at all, the
    shipped default."""
    if not any(s.support for s in counts.values()):
        return POSITIVE_F1_5_DEFAULT
    return tuple(sorted(counts, key=lambda c: -counts[c].support)[:5])


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
    gen_by_id = {r.study_id: r for r in generated}
    orig_by_id = {r.study_id: r for r in reference_original}
    clean_by_id = {r.study_id: r for r in reference_clean}
    for name, mapping in (("original", orig_by_id), ("clean", clean_by_id)):
        if set(mapping) != set(gen_by_id):
            raise InputError(
                f"generated and {name} reference corpora are misaligned")
    ids = [r.study_id for r in generated]

    label = functools.partial(label_report, lexicon=lexicon)
    gen_texts = [gen_by_id[i].impression for i in ids]
    orig_texts = [orig_by_id[i].impression for i in ids]
    gen_labels = dict(zip(ids, _once_per_text(label, gen_texts)))
    if reference_labels is not None:
        ref_labels = {i: lookup(reference_labels, i, "reference labels")
                      for i in ids}
    else:
        ref_labels = dict(zip(ids, _once_per_text(label, orig_texts)))

    pos_score, pos_per = positive_f1(gen_labels, ref_labels, average=average)
    neg_score, neg_per = negative_f1(gen_labels, ref_labels, average=average)
    pos_five = _most_supported(pos_per)
    pos5_score = _average({c: pos_per[c] for c in pos_five}, average)
    neg5_score = _average({c: neg_per[c] for c in NEGATIVE_F1_5}, average)

    bleu, clean_bleu = _bleu2_scores(
        gen_texts, orig_texts, [clean_by_id[i].impression for i in ids])
    rate, by_category = hallucination_rate(gen_texts, catalog)

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
        average=average,
    )
