"""Core domain types, text normalization, segmentation, a stem index, and
one memo class.

Everything downstream (labeling, cleaning, metrics, retrieval) works on the
types defined here. All but ``BoundedMemo`` and the token table of a
``StemIndex`` are immutable after creation.

The package's plain records are ``typing.NamedTuple``s, and its other
immutable classes derive from ``Frozen``: neither needs ``dataclasses``,
whose import and per-class code generation every CLI stage would pay for
at start-up.
"""

from __future__ import annotations

import re
import threading
from enum import Enum
from typing import Callable, Hashable, Iterable, NamedTuple, Optional


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

#: The allowed ``average`` values of the F1 scores.
F1_AVERAGES: tuple[str, ...] = ("macro", "micro")

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


class Frozen:
    """Base of the immutable classes that check or cache what they hold.

    Two instances of one class are equal, and hash alike, when their
    ``_fields`` are; other attributes (memos, cached properties) take no
    part. Assigning to or deleting an attribute raises AttributeError, so
    ``__init__`` stores the fields through ``vars(self)``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LabelVector(Frozen):
    """Per-condition mention status for one text unit.

    Stored as a tuple in canonical condition order. No Finding only admits
    positive or not-mentioned.
    """

    _fields = ("values",)

    def __init__(self, values: tuple[LabelValue, ...]):
        if len(values) != len(CONDITIONS):
            raise ValueError(
                f"label vector needs {len(CONDITIONS)} entries, "
                f"got {len(values)}")
        nf = values[_CONDITION_INDEX[Condition.NO_FINDING]]
        if nf not in (LabelValue.POSITIVE, LabelValue.NOT_MENTIONED):
            raise ValueError(f"No Finding admits only positive or "
                             f"not-mentioned, got {nf.value}")
        vars(self)["values"] = values

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


class Report(NamedTuple):
    """One study's text. The impression is the unit of all scoring."""

    study_id: str
    impression: str
    indication: str = ""
    findings: Optional[str] = None


class Sentence(NamedTuple):
    """One segmented sentence with its 0-based position in the parent text."""

    text: str
    index: int


_DEID_RUN = re.compile(r"_{3,}")


def normalize_text(raw: str) -> str:
    """Collapse whitespace runs, trim ends, canonicalize de-id underscores.

    Case and punctuation are preserved; runs of three or more underscores
    become the canonical ``___`` token. Idempotent and total. Whitespace is
    what ``str.isspace`` says it is, the same 29 code points as regex ``\\s``.
    """
    if "___" in raw:
        raw = _DEID_RUN.sub("___", raw)
    return " ".join(raw.split())


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


#: Distinct tokens a ``StemIndex`` keeps the ids of before it is cleared.
_TOKEN_CAP = 65_536


class StemIndex:
    """Which ids have a stem that matches some token of a text.

    A stem of 4+ characters matches a token it prefixes, a shorter one only
    an equal token, which keeps two-letter stems like "ap"/"pa" from firing
    inside ordinary words. Tokens are as ``tokenize`` splits them, so a stem
    that is not ``[a-z0-9]+`` never matches. The index maps each token it
    has seen to the ids it matches; tokens are few next to the texts that
    repeat them, so a text costs one tokenization and a lookup per token.
    Threads may share an index: a token two of them learn at once gets the
    same ids from each.
    """

    def __init__(self, stems: Iterable[tuple[Hashable, Iterable[str]]]):
        self._stems = []  # (id, long stems, short stems) per id
        for key, group in stems:
            group = tuple(group)
            self._stems.append((key, tuple(s for s in group if len(s) >= 4),
                                frozenset(s for s in group if len(s) < 4)))
        self._ids: dict[str, tuple] = {}  # token -> the ids it matches

    def ids(self, text: str) -> set:
        """The ids with a stem that matches a token of ``text``."""
        found = set()
        known = self._ids
        for token in tokenize(text):
            ids = known.get(token)
            if ids is None:
                ids = self._learn(token)
            if ids:
                found.update(ids)
        return found

    def _learn(self, token: str) -> tuple:
        ids = tuple(key for key, long, short in self._stems
                    if token in short or token.startswith(long))
        if len(self._ids) >= _TOKEN_CAP:
            self._ids.clear()
        self._ids[token] = ids
        return ids


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
