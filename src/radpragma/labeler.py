"""Deterministic lexicon-based condition labeler.

Produces the four-valued label convention (positive / negative / uncertain /
not-mentioned) at sentence and report level. Labeling is a pure function of
(text, lexicon): the same inputs always yield the same labels.

Scope rule: a negation or uncertainty cue affects a condition phrase only if
the cue ends at or before the phrase starts, within the same sentence, with
fewer than ``scope_window`` word tokens in between. Uncertainty outranks
negation when both are in scope. No Finding ignores cues entirely: it is
positive exactly when one of its explicit phrases matches.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional, Union

from .corpus_io import read_json, write_text_atomic
from .errors import InputError
from .model import (CONDITIONS, Condition, LabelValue, LabelVector, Sentence,
                    normalize_text, segment_sentences)

_WORD = re.compile(r"[a-z0-9]+")

# Aggregation precedence across sentences (report level).
_PRECEDENCE = {
    LabelValue.NOT_MENTIONED: 0,
    LabelValue.NEGATIVE: 1,
    LabelValue.UNCERTAIN: 2,
    LabelValue.POSITIVE: 3,
}


def _phrase_regex(phrases: Iterable[str]) -> re.Pattern:
    # Longest alternative first so multi-word phrases win at a shared start.
    parts = sorted((re.escape(p) for p in phrases), key=len, reverse=True)
    return re.compile(r"(?<![a-z0-9])(?:" + "|".join(parts) + r")(?![a-z0-9])")


def _cue_regex(cue: str) -> re.Pattern:
    if not _WORD.search(cue):
        # Punctuation cue such as "?": match the literal anywhere.
        return re.compile(re.escape(cue))
    return re.compile(r"(?<![a-z0-9])" + re.escape(cue) + r"(?![a-z0-9])")


@dataclass(frozen=True)
class Lexicon:
    """Versioned phrase and cue inventory driving the labeler."""

    version: str
    scope_window: int
    negation_cues: tuple[str, ...]
    uncertainty_cues: tuple[str, ...]
    phrases: tuple[tuple[Condition, tuple[str, ...]], ...]
    _compiled: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.scope_window < 1:
            raise InputError("scope window must be >= 1")
        phrase_map = dict(self.phrases)
        for condition in CONDITIONS:
            entries = phrase_map.get(condition, ())
            if not entries:
                raise InputError(
                    f"lexicon has no phrases for {condition.value!r}")
            for phrase in entries:
                if phrase != phrase.lower():
                    raise InputError(
                        f"lexicon phrase not lowercase: {phrase!r}")
        compiled = {
            "phrases": {c: _phrase_regex(ps) for c, ps in self.phrases},
            "negation": [_cue_regex(c) for c in self.negation_cues],
            "uncertainty": [_cue_regex(c) for c in self.uncertainty_cues],
        }
        object.__setattr__(self, "_compiled", compiled)

    @classmethod
    def from_dict(cls, obj: dict) -> "Lexicon":
        try:
            conditions = obj["conditions"]
            phrases = tuple(
                (Condition.from_name(name), tuple(conditions[name]))
                for name in conditions)
            return cls(
                version=str(obj["version"]),
                scope_window=int(obj["scope_window"]),
                negation_cues=tuple(obj["negation_cues"]),
                uncertainty_cues=tuple(obj["uncertainty_cues"]),
                phrases=phrases,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"invalid lexicon: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "scope_window": self.scope_window,
            "negation_cues": list(self.negation_cues),
            "uncertainty_cues": list(self.uncertainty_cues),
            "conditions": {c.value: list(ps) for c, ps in self.phrases},
        }

    @classmethod
    def load(cls, path: str) -> "Lexicon":
        return cls.from_dict(read_json(path, "lexicon"))

    def save(self, path: str) -> None:
        write_text_atomic(
            path, json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n")


_DEFAULT: Optional[Lexicon] = None


def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    global _DEFAULT
    if _DEFAULT is None:
        text = (resources.files("radpragma") / "data" / "lexicon.json") \
            .read_text(encoding="utf-8")
        _DEFAULT = Lexicon.from_dict(json.loads(text))
    return _DEFAULT


def _cue_spans(low: str, regexes) -> list[tuple[int, int]]:
    spans = []
    for regex in regexes:
        spans.extend(m.span() for m in regex.finditer(low))
    return spans


def label_sentence(sentence: Union[str, Sentence],
                   lexicon: Optional[Lexicon] = None) -> LabelVector:
    """Label one sentence for all fourteen conditions."""
    lexicon = lexicon or default_lexicon()
    text = sentence.text if isinstance(sentence, Sentence) else sentence
    low = normalize_text(text).lower()
    if not low:
        return LabelVector.all_not_mentioned()

    word_starts = []
    word_ends = []
    for match in _WORD.finditer(low):
        word_starts.append(match.start())
        word_ends.append(match.end())

    compiled = lexicon._compiled
    negation_spans = _cue_spans(low, compiled["negation"])
    uncertainty_spans = _cue_spans(low, compiled["uncertainty"])
    window = lexicon.scope_window

    def in_scope(cue_spans, phrase_start: int) -> bool:
        for cue_start, cue_end in cue_spans:
            if cue_end > phrase_start:
                continue
            # Word tokens lying fully between the cue and the phrase.
            first = bisect_left(word_starts, cue_end)
            last = bisect_right(word_ends, phrase_start)
            between = max(0, last - first)
            if between < window:
                return True
        return False

    values = {}
    for condition, regex in compiled["phrases"].items():
        matches = list(regex.finditer(low))
        if not matches:
            continue
        if condition.is_no_finding:
            values[condition] = LabelValue.POSITIVE
            continue
        if any(in_scope(uncertainty_spans, m.start()) for m in matches):
            values[condition] = LabelValue.UNCERTAIN
        elif any(in_scope(negation_spans, m.start()) for m in matches):
            values[condition] = LabelValue.NEGATIVE
        else:
            values[condition] = LabelValue.POSITIVE
    return LabelVector.from_mapping(values)


def aggregate_labels(vectors: Iterable[LabelVector]) -> LabelVector:
    """Combine sentence labels into report labels.

    Per condition the strongest value wins (positive > uncertain > negative >
    not-mentioned). No Finding is positive only if one of its phrases matched
    in some sentence and no other condition ended up positive or uncertain.
    """
    best = {c: LabelValue.NOT_MENTIONED for c in CONDITIONS}
    nf_matched = False
    for vector in vectors:
        for condition, value in zip(CONDITIONS, vector.values):
            if condition.is_no_finding:
                nf_matched = nf_matched or value is LabelValue.POSITIVE
                continue
            if _PRECEDENCE[value] > _PRECEDENCE[best[condition]]:
                best[condition] = value
    others_asserted = any(
        best[c] in (LabelValue.POSITIVE, LabelValue.UNCERTAIN)
        for c in CONDITIONS if not c.is_no_finding)
    best[Condition.NO_FINDING] = (
        LabelValue.POSITIVE if nf_matched and not others_asserted
        else LabelValue.NOT_MENTIONED)
    return LabelVector.from_mapping(best)


def label_report(text: str, lexicon: Optional[Lexicon] = None) -> LabelVector:
    """Segment text into sentences, label each, and aggregate."""
    lexicon = lexicon or default_lexicon()
    return aggregate_labels(label_sentence(s, lexicon)
                            for s in segment_sentences(text))


def indication_mentions(indication: str,
                        lexicon: Optional[Lexicon] = None) -> frozenset[Condition]:
    """Conditions mentioned (any polarity) in an indication; No Finding excluded."""
    vector = label_report(indication, lexicon)
    return frozenset(c for c in vector.mentions() if not c.is_no_finding)


def label_corpus(reports, lexicon: Optional[Lexicon] = None,
                 ) -> dict[str, LabelVector]:
    """Label every report's impression, keyed by study_id."""
    lexicon = lexicon or default_lexicon()
    return {r.study_id: label_report(r.impression, lexicon) for r in reports}


def indication_mention_sets(reports, lexicon: Optional[Lexicon] = None,
                            ) -> dict[str, frozenset[Condition]]:
    """Indication mention sets for every report, keyed by study_id."""
    lexicon = lexicon or default_lexicon()
    return {r.study_id: indication_mentions(r.indication, lexicon)
            for r in reports}
