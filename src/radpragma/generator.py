"""Retrieval-based report generation driven by predicted positive conditions
and the indication, plus the prompt builder and request for an external
generation model.

The index maps each positive-condition set seen in a cleaned corpus to its
reports, and each condition to a pool of sentences that mention exactly that
condition, negatively. Generation retrieves a report matching the predicted
positive set and appends one pooled negative sentence for every
indication-mentioned condition that was not predicted positive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .corpus_io import expect, load_json, write_json
from .errors import InputError
from .labeler import (Lexicon, aggregate_labels, default_lexicon,
                      indication_mentions, label_normalized)
from .model import (CONDITIONS, SCORABLE_CONDITIONS, Condition, Frozen,
                    LabelValue, Report, join_sentences, normalize_text,
                    segment_sentences)

if TYPE_CHECKING:
    from .backends import RemoteEndpoint

INDEX_FORMAT_VERSION = 1


class GenerationRequest(Frozen):
    """What to generate for one study: indication plus predicted positives."""

    _fields = ("study_id", "indication", "predicted_positives")

    def __init__(self, study_id: str, indication: str,
                 predicted_positives: frozenset[Condition]):
        positives = frozenset(predicted_positives)
        if Condition.NO_FINDING in positives and len(positives) > 1:
            raise ValueError(
                "No Finding can only be predicted on its own, got "
                f"{sorted(c.value for c in positives)}")
        vars(self).update(study_id=study_id, indication=indication,
                          predicted_positives=positives)


class PooledSentence(NamedTuple):
    text: str
    study_id: str


def _key_repr(key: frozenset) -> tuple[str, ...]:
    return tuple(c.value for c in CONDITIONS if c in key)


def _corpus_digest(reports: Sequence[Report]) -> str:
    import hashlib  # only index builds need it
    hasher = hashlib.sha256()
    for report in reports:
        hasher.update(report.study_id.encode("utf-8"))
        hasher.update(b"\x1f")
        hasher.update(report.impression.encode("utf-8"))
        hasher.update(b"\x1e")
    return "sha256:" + hasher.hexdigest()


class RetrievalIndex:
    """Immutable-after-build retrieval structures for a cleaned corpus.
    Two indexes are equal when all their fields are."""

    def __init__(self, lexicon_version: str, corpus_digest: str,
                 report_count: int,
                 by_label_set: dict[frozenset, tuple[str, ...]],
                 impressions: dict[str, str],
                 negative_pool: dict[Condition, tuple[PooledSentence, ...]]):
        self.lexicon_version = lexicon_version
        self.corpus_digest = corpus_digest
        self.report_count = report_count
        self.by_label_set = by_label_set
        self.impressions = impressions
        self.negative_pool = negative_pool

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_dict(self) -> dict:
        return {
            "format_version": INDEX_FORMAT_VERSION,
            "lexicon_version": self.lexicon_version,
            "corpus_digest": self.corpus_digest,
            "report_count": self.report_count,
            "by_label_set": [
                {"conditions": list(_key_repr(key)),
                 "study_ids": list(ids)}
                for key, ids in sorted(self.by_label_set.items(),
                                       key=lambda item: _key_repr(item[0]))
            ],
            "impressions": dict(sorted(self.impressions.items())),
            "negative_pool": {
                condition.value: [{"text": s.text, "study_id": s.study_id}
                                  for s in pool]
                for condition, pool in self.negative_pool.items()
            },
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RetrievalIndex":
        version = obj.get("format_version")
        if version != INDEX_FORMAT_VERSION:
            raise InputError(
                f"unsupported index format version: {version!r}")
        try:
            impressions = {
                study_id: expect(text, str, f"impression of {study_id!r}")
                for study_id, text in expect(obj["impressions"], dict,
                                             "impressions").items()}
            by_label_set = dict(
                _label_set(entry, impressions)
                for entry in expect(obj["by_label_set"], list,
                                    "by_label_set"))
            negative_pool = {
                Condition.from_name(name): tuple(map(_pooled, expect(
                    entries, list, f"negative_pool {name!r}")))
                for name, entries in expect(obj["negative_pool"], dict,
                                            "negative_pool").items()}
            return cls(
                lexicon_version=expect(obj["lexicon_version"], str,
                                       "lexicon_version"),
                corpus_digest=expect(obj["corpus_digest"], str,
                                     "corpus_digest"),
                report_count=expect(obj["report_count"], int, "report_count"),
                by_label_set=by_label_set,
                impressions=impressions,
                negative_pool=negative_pool,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"invalid retrieval index: {exc}") from None

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str, lexicon: Lexicon) -> "RetrievalIndex":
        index = load_json(path, "retrieval index", cls.from_dict)
        if index.lexicon_version != lexicon.version:
            raise InputError(
                f"{path}: index lexicon version {index.lexicon_version!r} "
                f"does not match lexicon version {lexicon.version!r}")
        return index


def _pooled(entry) -> PooledSentence:
    """A negative-pool entry: an object with a string text and study_id."""
    entry = expect(entry, dict, "pool entry")
    return PooledSentence(expect(entry["text"], str, "pool text"),
                          expect(entry["study_id"], str, "pool study_id"))


def _label_set(entry, impressions: dict) -> tuple[frozenset, tuple]:
    """A by_label_set entry's key and its non-empty, indexed study_ids."""
    entry = expect(entry, dict, "by_label_set entry")
    names = expect(entry["conditions"], list, "by_label_set conditions")
    ids = expect(entry["study_ids"], list, "study_ids")
    if not ids:
        raise InputError("study_ids must be a non-empty list, got []")
    for study_id in ids:
        if expect(study_id, str, "study_ids entry") not in impressions:
            raise InputError(f"study_id {study_id!r} has no impression")
    return frozenset(
        Condition.from_name(expect(name, str, "by_label_set condition"))
        for name in names), tuple(ids)


def build_index(cleaned_corpus: Sequence[Report],
                lexicon: Optional[Lexicon] = None) -> RetrievalIndex:
    """Index a cleaned corpus for pragmatic retrieval.

    Reports under each positive-set key are ordered by (impression length,
    study_id); negative pools hold sentences whose labels are exactly one
    negative mention, ordered by (length, source study_id).
    """
    if not cleaned_corpus:
        raise InputError("cannot build an index from an empty corpus")
    lexicon = lexicon or default_lexicon()
    by_label_set: dict[frozenset, list[str]] = {}
    impressions: dict[str, str] = {}
    pools: dict[Condition, list[PooledSentence]] = {
        c: [] for c in SCORABLE_CONDITIONS}
    for report in cleaned_corpus:
        impression = normalize_text(report.impression)
        impressions[report.study_id] = impression
        sentences = segment_sentences(impression)
        vectors = [label_normalized(s.text, lexicon) for s in sentences]
        positives = aggregate_labels(vectors).positives()
        by_label_set.setdefault(positives, []).append(report.study_id)
        for sentence, vector in zip(sentences, vectors):
            mentioned = vector.mentions()
            if len(mentioned) != 1:
                continue
            condition = next(iter(mentioned))
            if vector.get(condition) is LabelValue.NEGATIVE:
                pools[condition].append(
                    PooledSentence(sentence.text, report.study_id))
    sorted_sets = {
        key: tuple(sorted(ids, key=lambda i: (len(impressions[i]), i)))
        for key, ids in by_label_set.items()}
    sorted_pools = {
        condition: tuple(sorted(pool, key=lambda s: (len(s.text), s.study_id)))
        for condition, pool in pools.items()}
    if not any(sorted_pools.values()):
        import logging  # only this warning needs it
        logging.getLogger(__name__).warning(
            "cleaned corpus contains no single-condition negative "
            "sentences; all negative pools are empty")
    return RetrievalIndex(
        lexicon_version=lexicon.version,
        corpus_digest=_corpus_digest(cleaned_corpus),
        report_count=len(cleaned_corpus),
        by_label_set=sorted_sets,
        impressions=impressions,
        negative_pool=sorted_pools,
    )


class GenerationResult(NamedTuple):
    """Generated text plus the audit trail of how it was assembled."""

    study_id: str
    text: str
    retrieved_study_id: str
    retrieval_key: frozenset
    exact_key_match: bool
    negatives_added: tuple[tuple[Condition, str], ...]
    pool_empty: tuple[Condition, ...]

    def audit_dict(self) -> dict:
        return {
            "study_id": self.study_id,
            "retrieved_study_id": self.retrieved_study_id,
            "retrieval_key": list(_key_repr(self.retrieval_key)),
            "exact_key_match": self.exact_key_match,
            "negatives_added": {c.value: s for c, s in self.negatives_added},
            "pool_empty": [c.value for c in self.pool_empty],
        }


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def _fallback_key(keys, target: frozenset) -> frozenset:
    return min(keys, key=lambda k: (-_jaccard(k, target),
                                    len(k ^ target), _key_repr(k)))


def generate_retrieval(request: GenerationRequest, index: RetrievalIndex,
                       lexicon: Optional[Lexicon] = None) -> GenerationResult:
    """Assemble a report from the index for one request.

    Steps: (1) find conditions mentioned in the indication; (2) for each one
    not predicted positive, take the first pooled negative sentence (empty
    pools are recorded, not fatal); (3) retrieve the first report whose
    positive set matches the prediction, falling back to the key with
    maximal Jaccard overlap (ties: smaller symmetric difference, then
    lexicographic key); (4) append the negative sentences in canonical
    condition order.
    """
    if not index.by_label_set:
        raise InputError("retrieval index is empty")
    mentioned = indication_mentions(request.indication, lexicon)
    negatives: list[tuple[Condition, str]] = []
    pool_empty: list[Condition] = []
    for condition in SCORABLE_CONDITIONS:
        if (condition not in mentioned
                or condition in request.predicted_positives):
            continue
        pool = index.negative_pool.get(condition, ())
        if pool:
            negatives.append((condition, pool[0].text))
        else:
            pool_empty.append(condition)

    target = request.predicted_positives
    if target in index.by_label_set:
        key, exact = target, True
    else:
        key, exact = _fallback_key(index.by_label_set, target), False
    retrieved_id = index.by_label_set[key][0]
    text = join_sentences([index.impressions[retrieved_id]]
                          + [sentence for _, sentence in negatives])
    return GenerationResult(
        study_id=request.study_id,
        text=text,
        retrieved_study_id=retrieved_id,
        retrieval_key=key,
        exact_key_match=exact,
        negatives_added=tuple(negatives),
        pool_empty=tuple(pool_empty),
    )


_GENERATION_PROMPT = (
    "Below is an instruction that describes a task, paired with an input "
    "that provides further context.\n"
    "Write a response that appropriately completes the request.\n"
    "\n"
    "### Instruction:\n"
    "Write a radiology report responding to the indication. Include all "
    "given positive labels.\n"
    "\n"
    "### Input:\n"
    "Indication: {indication}\n"
    "Positive labels: {labels}\n"
    "\n"
    "### Response:\n"
)


def render_positive_labels(positives: frozenset) -> str:
    """Condition names in canonical order; No Finding (or nothing) renders
    as "no finding"."""
    names = [("no finding" if c.is_no_finding else c.value)
             for c in CONDITIONS if c in positives]
    return ", ".join(names) if names else "no finding"


def build_generation_prompt(request: GenerationRequest) -> str:
    return _GENERATION_PROMPT.format(
        indication=request.indication,
        labels=render_positive_labels(request.predicted_positives))


class RemoteGeneration(NamedTuple):
    study_id: str
    text: str
    prompt: str

    def audit_dict(self) -> dict:
        return {"study_id": self.study_id, "prompt": self.prompt}


def generate_remote(request: GenerationRequest,
                    client: RemoteEndpoint) -> RemoteGeneration:
    """Send the generation prompt to an external endpoint through
    ``client``, one ``backends.RemoteEndpoint`` for a whole run.

    Protocol: POST ``{"study_id": str, "prompt": str}``, response
    ``{"completion": str}``. The completion is returned normalized but
    otherwise verbatim; validating its labels is the evaluator's job. Make
    the client without retries, so a flaky endpoint never produces
    duplicate generations.
    """
    prompt = build_generation_prompt(request)
    completion = client.post(
        {"study_id": request.study_id, "prompt": prompt}, "completion",
        noun="completion", suffix=f" for request {request.study_id!r}",
        study_id=request.study_id)
    return RemoteGeneration(study_id=request.study_id,
                            text=normalize_text(completion), prompt=prompt)
