"""Deterministic lexicon-based condition labeler.

Produces the four-valued label convention (positive / negative / uncertain /
not-mentioned) at sentence and report level. Labeling is a pure function of
(text, lexicon): the same inputs always yield the same labels.

Scope rule: a negation or uncertainty cue affects a condition phrase only if
the cue ends at or before the phrase starts, within the same sentence, with
fewer than ``scope_window`` word tokens in between. Uncertainty outranks
negation when both are in scope. No Finding ignores cues entirely: it is
positive exactly when one of its explicit phrases matches.

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
import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from .corpus_io import load_json
from .errors import InputError
from .model import (CONDITIONS, SCORABLE_CONDITIONS, BoundedMemo, Condition,
                    LabelValue, LabelVector, normalize_text,
                    segment_sentences)

_WORD = re.compile(r"[a-z0-9]+")
_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
_NO_FINDING = CONDITIONS.index(Condition.NO_FINDING)

_POS, _UNC, _NEG, _NM = _VALUES = (
    LabelValue.POSITIVE, LabelValue.UNCERTAIN, LabelValue.NEGATIVE,
    LabelValue.NOT_MENTIONED)
_POS_CODE, _UNC_CODE, _NEG_CODE, _NM_CODE = range(len(_VALUES))


def _overlap_from(a: str, b: str) -> bool:
    """Whether some text has a match of entry ``b`` starting inside a match
    of entry ``a``. An entry with a word character only matches between
    non-word characters; a punctuation cue such as "?" matches anywhere."""
    a_bounded, b_bounded = _WORD.search(a), _WORD.search(b)
    shift = a.find(b[0])
    while shift >= 0:
        size = min(len(a) - shift, len(b))
        if a[shift:shift + size] == b[:size]:
            # The shortest text holding both matches, and the positions
            # next to them that must not be word characters.
            joined = a + b[size:]
            edges = ([len(a)] if a_bounded else []) + (
                [shift - 1, shift + len(b)] if b_bounded else [])
            if not any(0 <= i < len(joined) and joined[i] in _WORD_CHARS
                       for i in edges):
                return True
        shift = a.find(b[0], shift + 1)
    return False


def _disjoint_groups(items: list[tuple[str, ...]]) -> list[list[int]]:
    """Indices of ``items`` in groups where no match of an entry of one item
    can overlap a match of an entry of another, in any text.

    One alternation over a group finds exactly the matches each item's own
    regex would, because at any position at most one item can match and no
    match of one item can hide a match of another. Items that can overlap
    (``no`` and ``no evidence of``; ``consolidative opacity`` and
    ``opacity``) go to different groups, since one scan keeps only one of
    two overlapping matches.
    """
    # Entries that start and end with a word character can only overlap
    # where they share a whole word token, so items whose tokens differ
    # need no closer look.
    tokens = [frozenset(_WORD.findall(" ".join(item)))
              if all(e[0] in _WORD_CHARS and e[-1] in _WORD_CHARS
                     for e in item) else None
              for item in items]

    def clash(i: int, j: int) -> bool:
        if (tokens[i] is not None and tokens[j] is not None
                and tokens[i].isdisjoint(tokens[j])):
            return False
        return any(_overlap_from(a, b) or _overlap_from(b, a)
                   for a in items[i] for b in items[j])

    groups: list[list[int]] = []
    for i in range(len(items)):
        for group in groups:
            if not any(clash(i, j) for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def _alternation(phrases: Iterable[str]) -> str:
    # Longest alternative first so multi-word phrases win at a shared start.
    return "|".join(sorted((re.escape(p) for p in phrases), key=len,
                           reverse=True))


def _phrase_scans(phrases: tuple[tuple[Condition, tuple[str, ...]], ...],
                  ) -> tuple[tuple[re.Pattern, tuple[int, ...]], ...]:
    """(scan, condition index of each capture group) per disjoint group of
    conditions; the scan gives each condition the matches of
    ``(?<![a-z0-9])(?:its phrases)(?![a-z0-9])``. (A phrase without a word
    character is grouped as if it matched anywhere, which only splits
    groups further.)"""
    items = [tuple(ps) for _, ps in phrases]
    scans = []
    for group in _disjoint_groups(items):
        body = "|".join("(" + _alternation(items[i]) + ")" for i in group)
        scans.append((
            re.compile(r"(?<![a-z0-9])(?:" + body + r")(?![a-z0-9])"),
            tuple(CONDITIONS.index(phrases[i][0]) for i in group)))
    return tuple(scans)


def _cue_scans(cues: Iterable[str]) -> tuple[re.Pattern, ...]:
    """Scans that together find every match of every cue: a word cue
    between non-word characters, a punctuation cue anywhere."""
    cues = list(dict.fromkeys(cues))
    scans = []
    for group in _disjoint_groups([(cue,) for cue in cues]):
        members = [cues[i] for i in group]
        words = [cue for cue in members if _WORD.search(cue)]
        parts = [re.escape(cue) for cue in members if not _WORD.search(cue)]
        if words:
            parts.insert(0, r"(?<![a-z0-9])(?:" + _alternation(words)
                         + r")(?![a-z0-9])")
        scans.append(re.compile("|".join(parts)))
    return tuple(scans)


#: Entries each of a Lexicon's memos holds before it is cleared: for the
#: sentence labels, about 4.5 MB of typical report sentences.
_MEMO_CAP = 32_768


def _memo():
    return field(default_factory=lambda: BoundedMemo(_MEMO_CAP), init=False,
                 compare=False, repr=False)


def _check_entry(entry, what: str) -> None:
    # The labeler matches entries against normalized, lowercased text, so
    # any other entry would never match, or (if empty) match everywhere.
    if (not isinstance(entry, str) or not entry
            or entry != normalize_text(entry).lower()):
        raise InputError(f"{what} must be a non-empty, lowercase, "
                         f"whitespace-normalized string, got {entry!r}")


def _list(value, name: str) -> tuple:
    # A string would otherwise become one entry per character.
    if not isinstance(value, list):
        raise InputError(f"lexicon {name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class Lexicon:
    """Versioned phrase and cue inventory driving the labeler."""

    version: str
    scope_window: int
    negation_cues: tuple[str, ...]
    uncertainty_cues: tuple[str, ...]
    phrases: tuple[tuple[Condition, tuple[str, ...]], ...]
    _compiled: dict = field(default=None, compare=False, repr=False)
    _labels: BoundedMemo = _memo()  # normalized text -> LabelVector
    _vectors: BoundedMemo = _memo()  # value codes -> the shared LabelVector
    _mentions: BoundedMemo = _memo()  # indication -> mention set

    def __post_init__(self):
        window = self.scope_window
        if isinstance(window, bool) or not isinstance(window, int):
            raise InputError(
                f"lexicon scope_window must be an integer, got {window!r}")
        if window < 1:
            raise InputError("scope window must be >= 1")
        for name in ("negation_cues", "uncertainty_cues"):
            for cue in getattr(self, name):
                _check_entry(cue, f"lexicon {name} entry")
        phrase_map = dict(self.phrases)
        for condition in CONDITIONS:
            entries = phrase_map.get(condition, ())
            if not entries:
                raise InputError(
                    f"lexicon has no phrases for {condition.value!r}")
            for phrase in entries:
                _check_entry(phrase,
                             f"lexicon phrase for {condition.value!r}")
        compiled = {
            "phrases": _phrase_scans(tuple(phrase_map.items())),
            "negation": _cue_scans(self.negation_cues),
            "uncertainty": _cue_scans(self.uncertainty_cues),
        }
        object.__setattr__(self, "_compiled", compiled)

    @classmethod
    def from_dict(cls, obj: dict) -> "Lexicon":
        try:
            conditions = obj["conditions"]
            phrases = tuple(
                (Condition.from_name(name), _list(conditions[name], name))
                for name in conditions)
            return cls(
                version=str(obj["version"]),
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
    text = (resources.files("radpragma") / "data" / "lexicon.json") \
        .read_text(encoding="utf-8")
    return Lexicon.from_dict(json.loads(text))


def _cue_ends(low: str, scans) -> list[int]:
    return sorted(m.end() for scan in scans for m in scan.finditer(low))


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
    return lexicon._vectors.get(codes, LabelVector,
                                tuple(_VALUES[code] for code in codes))


def _label_codes(low: str, lexicon: Lexicon) -> bytes:
    """The labels of normalized, lowercased text, one index into
    ``_VALUES`` per condition."""
    compiled = lexicon._compiled
    starts: dict[int, list[int]] = {}
    for scan, owners in compiled["phrases"]:
        for match in scan.finditer(low):
            starts.setdefault(owners[match.lastindex - 1], []).append(
                match.start())
    codes = bytearray([_NM_CODE]) * len(CONDITIONS)
    if starts.pop(_NO_FINDING, None):
        codes[_NO_FINDING] = _POS_CODE
    if not starts:
        return bytes(codes)

    uncertainty_ends = _cue_ends(low, compiled["uncertainty"])
    negation_ends = _cue_ends(low, compiled["negation"])
    window = lexicon.scope_window

    def in_scope(cue_ends, phrase_start: int) -> bool:
        # The last cue ending at or before the phrase has the fewest word
        # tokens between it and the phrase. No token straddles either end:
        # a cue ends, and a phrase starts, next to a non-word character.
        i = bisect_right(cue_ends, phrase_start)
        return i > 0 and len(
            _WORD.findall(low, cue_ends[i - 1], phrase_start)) < window

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
