"""Core domain types, text normalization, segmentation, and one memo class.

Everything downstream (labeling, cleaning, metrics, retrieval) works on the
types defined here. All but ``BoundedMemo`` are immutable after creation.
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional


class Condition(Enum):
    """The fourteen report conditions, in canonical (CSV column) order."""

    ATELECTASIS = "Atelectasis"
    CARDIOMEGALY = "Cardiomegaly"
    CONSOLIDATION = "Consolidation"
    EDEMA = "Edema"
    ENLARGED_CARDIOMEDIASTINUM = "Enlarged Cardiomediastinum"
    FRACTURE = "Fracture"
    LUNG_LESION = "Lung Lesion"
    LUNG_OPACITY = "Lung Opacity"
    PLEURAL_EFFUSION = "Pleural Effusion"
    PLEURAL_OTHER = "Pleural Other"
    PNEUMONIA = "Pneumonia"
    PNEUMOTHORAX = "Pneumothorax"
    SUPPORT_DEVICES = "Support Devices"
    NO_FINDING = "No Finding"

    # Members are singletons compared by identity, so hashing by identity
    # is consistent; object's hash runs in C, Enum's in Python.
    __hash__ = object.__hash__

    @property
    def is_no_finding(self) -> bool:
        return self is Condition.NO_FINDING

    @classmethod
    def from_name(cls, name: str) -> "Condition":
        try:
            return _CONDITION_BY_NAME[name]
        except KeyError:
            raise ValueError(f"unknown condition: {name!r}") from None


#: Canonical, total ordering of the fourteen conditions.
CONDITIONS: tuple[Condition, ...] = tuple(Condition)

#: The thirteen findings F1 and the chi-square test score: all but No Finding.
SCORABLE_CONDITIONS = tuple(c for c in CONDITIONS if not c.is_no_finding)

_CONDITION_BY_NAME = {c.value: c for c in CONDITIONS}
_CONDITION_INDEX = {c: i for i, c in enumerate(CONDITIONS)}


class LabelValue(Enum):
    """Four-valued mention status of a condition in a text unit."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNCERTAIN = "uncertain"
    NOT_MENTIONED = "not-mentioned"

    __hash__ = object.__hash__  # as Condition's

    def to_csv(self) -> str:
        return _CSV_BY_VALUE[self]

    @classmethod
    def from_csv(cls, cell: str) -> "LabelValue":
        cell = cell.strip()
        if cell == "":
            return cls.NOT_MENTIONED
        try:
            return _VALUE_BY_CSV[float(cell)]
        except (ValueError, KeyError):
            raise ValueError(f"invalid label cell: {cell!r}") from None


_CSV_BY_VALUE = {
    LabelValue.POSITIVE: "1.0",
    LabelValue.NEGATIVE: "0.0",
    LabelValue.UNCERTAIN: "-1.0",
    LabelValue.NOT_MENTIONED: "",
}
_VALUE_BY_CSV = {1.0: LabelValue.POSITIVE, 0.0: LabelValue.NEGATIVE,
                 -1.0: LabelValue.UNCERTAIN}

#: Mention statuses that count as a mention (everything but not-mentioned).
MENTION_VALUES = frozenset({LabelValue.POSITIVE, LabelValue.NEGATIVE,
                            LabelValue.UNCERTAIN})


@dataclass(frozen=True)
class LabelVector:
    """Per-condition mention status for one text unit.

    Stored as a tuple in canonical condition order. No Finding only admits
    positive or not-mentioned.
    """

    values: tuple[LabelValue, ...]

    def __post_init__(self):
        if len(self.values) != len(CONDITIONS):
            raise ValueError(
                f"label vector needs {len(CONDITIONS)} entries, "
                f"got {len(self.values)}")
        nf = self.values[_CONDITION_INDEX[Condition.NO_FINDING]]
        if nf not in (LabelValue.POSITIVE, LabelValue.NOT_MENTIONED):
            raise ValueError(f"No Finding admits only positive or "
                             f"not-mentioned, got {nf.value}")

    @classmethod
    def all_not_mentioned(cls) -> "LabelVector":
        return _ALL_NOT_MENTIONED

    def get(self, condition: Condition) -> LabelValue:
        return self.values[_CONDITION_INDEX[condition]]

    def as_mapping(self) -> dict[Condition, LabelValue]:
        return dict(zip(CONDITIONS, self.values))

    def positives(self) -> frozenset[Condition]:
        return frozenset(c for c, v in zip(CONDITIONS, self.values)
                         if v is LabelValue.POSITIVE)

    def mentions(self) -> frozenset[Condition]:
        return frozenset(c for c, v in zip(CONDITIONS, self.values)
                         if v in MENTION_VALUES)


_ALL_NOT_MENTIONED = LabelVector(
    tuple(LabelValue.NOT_MENTIONED for _ in CONDITIONS))


@dataclass(frozen=True)
class Report:
    """One study's text. The impression is the unit of all scoring."""

    study_id: str
    impression: str
    indication: str = ""
    findings: Optional[str] = None


@dataclass(frozen=True)
class Sentence:
    """One segmented sentence with its 0-based position in the parent text."""

    text: str
    index: int


_DEID_RUN = re.compile(r"_{3,}")
_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_text(raw: str) -> str:
    """Collapse whitespace runs, trim ends, canonicalize de-id underscores.

    Case and punctuation are preserved; runs of three or more underscores
    become the canonical ``___`` token. Idempotent and total.
    """
    text = _DEID_RUN.sub("___", raw)
    return _WHITESPACE_RUN.sub(" ", text).strip()


# Sentence boundaries: terminal punctuation, whitespace, then an uppercase
# letter or digit. Splits are vetoed after known abbreviations and single
# capital initials ("John Q. Public").
_BOUNDARY = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9])")
_ABBREVIATIONS = frozenset({"dr.", "a.m.", "p.m.", "e.g.", "i.e.", "vs."})
_SINGLE_INITIAL = re.compile(r"[A-Z]\.")


def _vetoed_split(text: str, boundary_start: int) -> bool:
    if text[boundary_start - 1] != ".":
        return False
    token = text[:boundary_start].rsplit(" ", 1)[-1]
    return (token.lower() in _ABBREVIATIONS
            or _SINGLE_INITIAL.fullmatch(token) is not None)


def segment_sentences(text: str) -> list[Sentence]:
    """Split normalized text into sentences.

    The result partitions the text: joining the sentence texts in index
    order with single spaces reproduces the normalized input.
    """
    text = normalize_text(text)
    if not text:
        return []
    pieces: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        if _vetoed_split(text, match.start()):
            continue
        pieces.append(text[start:match.start()])
        start = match.end()
    pieces.append(text[start:])
    return [Sentence(piece, i) for i, piece in enumerate(pieces)]


def join_sentences(pieces: Iterable[str]) -> str:
    """The non-empty ``pieces`` joined with single spaces, normalized."""
    return normalize_text(" ".join(piece for piece in pieces if piece))


_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens, split on everything else."""
    return _TOKEN.findall(text.lower())


@functools.lru_cache(maxsize=64)
def stem_pattern(stems: tuple[str, ...]) -> re.Pattern:
    """One regex that finds, in lowercased text, a token any stem matches.

    A stem of 4+ characters matches a token it prefixes, a shorter one only
    an equal token, which keeps two-letter stems like "ap"/"pa" from firing
    inside ordinary words. Tokens are as ``tokenize`` splits them. A stem
    that is not ``[a-z0-9]+`` can never equal or prefix such a token, so it
    is left out; with no stem left the pattern never matches.
    """
    valid = sorted({stem for stem in stems if _TOKEN.fullmatch(stem)})
    alternatives = [stem for stem in valid if len(stem) >= 4]
    short = [stem for stem in valid if len(stem) <= 3]
    if short:
        alternatives.append(f"(?:{'|'.join(short)})(?![a-z0-9])")
    if not alternatives:
        return re.compile(r"(?!)")
    return re.compile(f"(?<![a-z0-9])(?:{'|'.join(alternatives)})")


_ABSENT = object()


class BoundedMemo:
    """Values computed once per key and shared by every caller, threads
    included: at most ``cap`` of them (``None``: no bound), cleared when
    full. A computation that raises stores nothing. Single-flight: a caller
    asking for a key that another thread is computing waits for that result
    and, if that computation raised, computes the value itself, so its own
    error names its own work. ``compute`` must not get its own key.
    """

    def __init__(self, cap: Optional[int]):
        self.cap = cap
        self.stored: dict = {}
        self.hits = self.misses = 0
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)  # a computation ended
        self._running: set = set()  # the keys being computed
        self._waiting = 0  # callers waiting on ``_done``

    def get(self, key, compute: Callable, *args):
        """The value stored for ``key``, else ``compute(*args)``, stored."""
        with self._lock:
            value = self.stored.get(key, _ABSENT)
            while value is _ABSENT and key in self._running:
                self._waiting += 1
                self._done.wait()
                self._waiting -= 1
                value = self.stored.get(key, _ABSENT)
            if value is not _ABSENT:
                self.hits += 1
                return value
            self.misses += 1
            self._running.add(key)
        try:
            value = compute(*args)
        finally:
            with self._lock:
                if value is not _ABSENT:
                    if self.cap is not None and len(self.stored) >= self.cap:
                        self.stored.clear()
                    self.stored[key] = value
                self._running.remove(key)
                if self._waiting:
                    self._done.notify_all()
        return value

    def counts(self) -> dict[str, int]:
        """Calls answered from the memo (hits) and that computed (misses)."""
        return {"hits": self.hits, "misses": self.misses}
