"""Deterministic lexicon-based condition labeler.

Produces the four-valued label convention (positive / negative / uncertain /
not-mentioned) at sentence and report level. Labeling is a pure function of
(text, lexicon): the same inputs always yield the same labels.

Scope rule: a negation or uncertainty cue affects a condition phrase only if
the cue ends at or before the phrase starts, within the same sentence, with
fewer than ``scope_window`` word tokens in between. Uncertainty outranks
negation when both are in scope. No Finding ignores cues entirely: it is
positive exactly when one of its explicit phrases matches.

Matching: each condition's phrases, and each cue on its own, match as one
regex alternation of them would under ``finditer``: leftmost, longest at a
start, and no two overlapping. Phrases, and cues with a letter or digit,
match only between non-word characters; a punctuation cue such as ``?``
matches anywhere. An entry led by a word character can only start where a
word token starts, so a token index maps each first token to its entries,
which ``str.startswith`` confirms; ``str.find`` finds the other entries.
A cue listed under both polarities counts for both.

Memos: each ``Lexicon`` instance keeps the labels of the sentences it has
labeled, keyed by normalized text, and the mention sets of the indications,
keyed by the text as given; every caller that labels with it shares them.
Equal label vectors are one shared ``LabelVector`` (safe, as it is
immutable). Each of these ``model.BoundedMemo``s holds at most
``_MEMO_CAP`` entries.

Text is normalized once, at the boundary: the public entries normalize
what they are given, and ``label_normalized`` takes text that is already
normalized (segmentation output, a cleaning rule's output) as it is.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from typing import Iterable, Optional

from .corpus_io import expect, load_json, load_packaged
from .errors import InputError
from .model import (CONDITIONS, SCORABLE_CONDITIONS, BoundedMemo, Condition,
                    Frozen, LabelValue, LabelVector, _TOKEN, normalize_text,
                    segment_sentences)

_NO_FINDING = CONDITIONS.index(Condition.NO_FINDING)

_POS, _UNC, _NEG, _NM = _VALUES = (
    LabelValue.POSITIVE, LabelValue.UNCERTAIN, LabelValue.NEGATIVE,
    LabelValue.NOT_MENTIONED)
_POS_CODE, _UNC_CODE, _NEG_CODE, _NM_CODE = range(len(_VALUES))


_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")


def _token_index(entries: Iterable[tuple[int, str]], always_bounded: bool):
    """(first word token -> its (entry, owner)s, longest first; the
    (entry, owner, bounded)s led by a non-word character). A bounded entry
    matches only between non-word characters; an entry led by a word
    character always is."""
    led: dict[str, list[tuple[str, int]]] = {}
    loose = []
    for owner, entry in entries:
        if entry[0] in _WORD_CHARS:
            first = _TOKEN.match(entry).group()
            led.setdefault(first, []).append((entry, owner))
        else:
            loose.append((entry, owner, always_bounded
                          or not _WORD_CHARS.isdisjoint(entry)))
    return ({first: tuple(sorted(group, key=lambda e: -len(e[0])))
             for first, group in led.items()}, tuple(loose))


def _matches(low: str, words: list[tuple[int, str]], index,
             ) -> list[tuple[int, int, int]]:
    """(start, end, owner) of each owner's matches in ``low``, as the module
    note says; ``words`` holds each word token of ``low`` with its start."""
    led, loose = index
    found = []
    for start, word in words:
        for entry, owner in led.get(word, ()):
            end = start + len(entry)
            if (low.startswith(entry, start)
                    and low[end:end + 1] not in _WORD_CHARS):
                found.append((start, -len(entry), owner))
    for entry, owner, bounded in loose:
        start = low.find(entry)
        while start >= 0:
            end = start + len(entry)
            if not bounded or (low[start - 1:start] not in _WORD_CHARS
                               and low[end:end + 1] not in _WORD_CHARS):
                found.append((start, -len(entry), owner))
            start = low.find(entry, start + 1)
    found.sort()
    ends: dict[int, int] = {}
    kept = []
    for start, negative_size, owner in found:
        if start >= ends.get(owner, 0):
            ends[owner] = end = start - negative_size
            kept.append((start, end, owner))
    return kept


#: Entries each of a Lexicon's memos holds before it is cleared: for the
#: sentence labels, about 4.5 MB of typical report sentences.
_MEMO_CAP = 32_768


def _check_entry(entry, what: str) -> None:
    # The labeler matches entries against normalized, lowercased text, so
    # any other entry would never match, or (if empty) match everywhere.
    if (not isinstance(entry, str) or not entry
            or entry != normalize_text(entry).lower()):
        raise InputError(f"{what} must be a non-empty, lowercase, "
                         f"whitespace-normalized string, got {entry!r}")


def _list(value, name: str) -> tuple:
    # A string would otherwise become one entry per character.
    return tuple(expect(value, list, f"lexicon {name}"))


class Lexicon(Frozen):
    """Versioned phrase and cue inventory driving the labeler."""

    _fields = ("version", "scope_window", "negation_cues", "uncertainty_cues",
               "phrases")

    def __init__(self, version: str, scope_window: int,
                 negation_cues: tuple[str, ...],
                 uncertainty_cues: tuple[str, ...],
                 phrases: tuple[tuple[Condition, tuple[str, ...]], ...]):
        expect(scope_window, int, "lexicon scope_window")
        if scope_window < 1:
            raise InputError("scope window must be >= 1")
        for name, cues in (("negation_cues", negation_cues),
                           ("uncertainty_cues", uncertainty_cues)):
            for cue in cues:
                _check_entry(cue, f"lexicon {name} entry")
        phrase_map = dict(phrases)
        for condition in CONDITIONS:
            entries = phrase_map.get(condition, ())
            if not entries:
                raise InputError(
                    f"lexicon has no phrases for {condition.value!r}")
            for phrase in entries:
                _check_entry(phrase,
                             f"lexicon phrase for {condition.value!r}")
        # Phrases are owned by their condition's index, cues by their
        # position among the uncertainty cues, then the negation cues.
        compiled = (
            _token_index(((CONDITIONS.index(condition), phrase)
                          for condition, entries in phrase_map.items()
                          for phrase in entries), always_bounded=True),
            _token_index(enumerate(uncertainty_cues + negation_cues),
                         always_bounded=False),
            len(uncertainty_cues))
        vars(self).update(
            version=version, scope_window=scope_window,
            negation_cues=negation_cues, uncertainty_cues=uncertainty_cues,
            phrases=phrases, _compiled=compiled,
            _labels=BoundedMemo(_MEMO_CAP),  # normalized text -> LabelVector
            _vectors=BoundedMemo(_MEMO_CAP),  # codes -> the shared LabelVector
            _mentions=BoundedMemo(_MEMO_CAP))  # indication -> mention set

    @classmethod
    def from_dict(cls, obj: dict) -> "Lexicon":
        try:
            conditions = expect(obj["conditions"], dict, "lexicon conditions")
            phrases = tuple(
                (Condition.from_name(name), _list(conditions[name], name))
                for name in conditions)
            return cls(
                version=expect(obj["version"], str, "lexicon version"),
                scope_window=obj["scope_window"],
                negation_cues=_list(obj["negation_cues"], "negation_cues"),
                uncertainty_cues=_list(obj["uncertainty_cues"],
                                       "uncertainty_cues"),
                phrases=phrases,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"invalid lexicon: {exc}") from None

    @classmethod
    def load(cls, path: str) -> "Lexicon":
        return load_json(path, "lexicon", cls.from_dict)

    def memo_counts(self) -> dict[str, int]:
        """Hits and misses of the sentence label memo: one per sentence
        labeled with this lexicon."""
        return self._labels.counts()


@functools.cache
def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    return load_packaged("lexicon.json", "lexicon", Lexicon.from_dict)


def label_sentence(sentence: str,
                   lexicon: Optional[Lexicon] = None) -> LabelVector:
    """Label one sentence for all fourteen conditions, from the lexicon's
    memo if it has labeled the same normalized text before."""
    return label_normalized(normalize_text(sentence), lexicon)


def label_normalized(text: str,
                     lexicon: Optional[Lexicon] = None) -> LabelVector:
    """``label_sentence(text, lexicon)`` for text that ``normalize_text``
    leaves as it is, without normalizing it again."""
    lexicon = lexicon or default_lexicon()
    return lexicon._labels.get(text, _label, text, lexicon)


def _label(text: str, lexicon: Lexicon) -> LabelVector:
    codes = _label_codes(text.lower(), lexicon)
    return lexicon._vectors.get(codes, _vector, codes)


def _vector(codes: bytes) -> LabelVector:
    return LabelVector(tuple(_VALUES[code] for code in codes))


def _label_codes(low: str, lexicon: Lexicon) -> bytes:
    """The labels of normalized, lowercased text, one index into
    ``_VALUES`` per condition."""
    phrases, cues, uncertain = lexicon._compiled
    words = [(m.start(), m.group()) for m in _TOKEN.finditer(low)]
    starts: dict[int, list[int]] = {}
    for start, _, owner in _matches(low, words, phrases):
        starts.setdefault(owner, []).append(start)
    codes = bytearray([_NM_CODE]) * len(CONDITIONS)
    if starts.pop(_NO_FINDING, None):
        codes[_NO_FINDING] = _POS_CODE
    if not starts:
        return bytes(codes)

    uncertainty_ends: list[int] = []
    negation_ends: list[int] = []
    for _, end, owner in _matches(low, words, cues):
        (uncertainty_ends if owner < uncertain else negation_ends).append(end)
    uncertainty_ends.sort()
    negation_ends.sort()
    word_starts = [start for start, _ in words]
    window = lexicon.scope_window

    def in_scope(cue_ends, phrase_start: int) -> bool:
        # The last cue ending at or before the phrase has the fewest word
        # tokens between it and the phrase. No token straddles either end:
        # a cue ends, and a phrase starts, next to a non-word character.
        i = bisect_right(cue_ends, phrase_start)
        return i > 0 and bisect_left(word_starts, phrase_start) - bisect_left(
            word_starts, cue_ends[i - 1]) < window

    for index, found in starts.items():
        if any(in_scope(uncertainty_ends, start) for start in found):
            codes[index] = _UNC_CODE
        elif any(in_scope(negation_ends, start) for start in found):
            codes[index] = _NEG_CODE
        else:
            codes[index] = _POS_CODE
    return bytes(codes)


def aggregate_labels(vectors: Iterable[LabelVector]) -> LabelVector:
    """Combine sentence labels into report labels.

    Per condition the strongest value wins (positive > uncertain > negative >
    not-mentioned). No Finding is positive only if one of its phrases matched
    in some sentence and no other condition ended up positive or uncertain.
    """
    columns = list(zip(*(vector.values for vector in vectors)))
    if not columns:
        return LabelVector.all_not_mentioned()
    # ``in`` on a tuple compares by identity first, so no Enum is hashed.
    best = [_POS if _POS in column else _UNC if _UNC in column
            else _NEG if _NEG in column else _NM for column in columns]
    others = best[:_NO_FINDING] + best[_NO_FINDING + 1:]
    if _POS in others or _UNC in others:
        best[_NO_FINDING] = _NM
    return LabelVector(tuple(best))


def label_report(text: str, lexicon: Optional[Lexicon] = None) -> LabelVector:
    """Segment text into sentences, label each, and aggregate."""
    return aggregate_labels(label_normalized(s.text, lexicon)
                            for s in segment_sentences(text))


def indication_mentions(indication: str,
                        lexicon: Optional[Lexicon] = None) -> frozenset[Condition]:
    """Conditions mentioned (any polarity) in an indication; No Finding
    excluded. Each lexicon labels each distinct indication once."""
    lexicon = lexicon or default_lexicon()
    return lexicon._mentions.get(indication, _mention_set, indication,
                                 lexicon)


def _mention_set(indication: str, lexicon: Lexicon) -> frozenset[Condition]:
    return label_report(indication, lexicon).mentions().intersection(
        SCORABLE_CONDITIONS)


def label_corpus(reports, lexicon: Optional[Lexicon] = None,
                 ) -> dict[str, LabelVector]:
    """Label every report's impression, keyed by study_id."""
    return {r.study_id: label_report(r.impression, lexicon) for r in reports}


def indication_mention_sets(reports, lexicon: Optional[Lexicon] = None,
                            ) -> dict[str, frozenset[Condition]]:
    """Indication mention sets for every report, keyed by study_id."""
    return {r.study_id: indication_mentions(r.indication, lexicon)
            for r in reports}
