"""The contracts of the package's records: NamedTuples and ``model.Frozen``
classes are immutable, equal and hashed alike when their fields are, and
caches or memos take no part in equality; ``RetrievalIndex`` and
``cli.Config`` stay mutable and unhashable."""

import re

import pytest

from synth import shipped_lexicon_json

from radpragma import backends, cleaning
from radpragma.cli import Config
from radpragma.generator import (GenerationRequest, GenerationResult,
                                 PooledSentence, RemoteGeneration,
                                 build_index)
from radpragma.labeler import Lexicon, indication_mentions, label_report
from radpragma.metrics import (ConditionF1, KeywordCatalog, MetricsReport,
                               evaluate_generation)
from radpragma.model import (Condition, LabelValue, LabelVector, Report,
                             Sentence)
from radpragma.stats import (ConditionStats, ContingencyTable2x2,
                             CorpusSummary, FieldDelta, SummaryShift,
                             summarize)

_NM = LabelValue.NOT_MENTIONED
_REPORT = Report("s1", "No edema. Small right pleural effusion.", "Edema?")


def _lexicon(v):
    return Lexicon.from_dict(shipped_lexicon_json() | {"version": f"v{v}"})


def _use_lexicon(lexicon):
    label_report(_REPORT.impression, lexicon)
    indication_mentions(_REPORT.indication, lexicon)
    assert lexicon.memo_counts()["misses"] > 0


def _summary(v):
    reports = [_REPORT._replace(study_id=f"s{i}") for i in range(1 + v)]
    labels = {r.study_id: label_report(r.impression) for r in reports}
    return summarize(reports, labels, {r.study_id: frozenset()
                                       for r in reports})


def _audit(v):
    return cleaning.SentenceAudit(
        "Compared to prior, no edema.", ("No edema.", "REMOVED")[v],
        (cleaning.RuleOutcome(1, "No edema.", True, "accepted"),))


def _ignore(record):
    pass


# Per class: a builder of an instance from a variant (0 or 1, which differ
# in ``field``), the field, what fills the instance's caches or memos, and
# whether instances are frozen.
RECORDS = {
    "LabelVector": (lambda v: LabelVector((_NM,) * 13 + (
        (_NM, LabelValue.POSITIVE)[v],)), "values", _ignore, True),
    "Lexicon": (_lexicon, "version", _use_lexicon, True),
    "KeywordCatalog": (
        lambda v: KeywordCatalog(f"v{v}", (("view", ("ap", "pa")),)),
        "version", lambda catalog: catalog.flags("AP view."), True),
    "GenerationRequest": (
        lambda v: GenerationRequest(f"s{v}", "Edema?", [Condition.EDEMA]),
        "study_id", _ignore, True),
    "ContingencyTable2x2": (lambda v: ContingencyTable2x2(1 + v, 2, 3, 4),
                            "a", _ignore, True),
    "CleaningRule": (
        lambda v: cleaning.CleaningRule(1 + v, "Rule", ("compar",),
                                        "Write REMOVED."),
        "rule_id", lambda rule: rule.triggered_by("Compared."), True),
    "SentenceAudit": (_audit, "final",
                      lambda audit: cleaning.audit_jsonl("s1", [audit]),
                      True),
    "Report": (lambda v: _REPORT._replace(study_id=f"s{v}"), "study_id",
               _ignore, True),
    "Sentence": (lambda v: Sentence("No edema.", v), "index", _ignore, True),
    "PooledSentence": (lambda v: PooledSentence("No edema.", f"s{v}"),
                       "study_id", _ignore, True),
    "GenerationResult": (
        lambda v: GenerationResult(
            "s1", "No edema.", f"s{v}", frozenset({Condition.EDEMA}), True,
            ((Condition.EDEMA, "No edema."),), ()),
        "retrieved_study_id", _ignore, True),
    "RemoteGeneration": (
        lambda v: RemoteGeneration("s1", "No edema.", f"p{v}"), "prompt",
        _ignore, True),
    "RuleOutcome": (lambda v: cleaning.RuleOutcome(1 + v, "No edema.", True,
                                                   "accepted"),
                    "rule_id", _ignore, True),
    "ConditionF1": (lambda v: ConditionF1(1 + v, 2, 3), "tp", _ignore, True),
    "MetricsReport": (
        lambda v: evaluate_generation([_REPORT], [_REPORT], [_REPORT],
                                      average=("macro", "micro")[v]),
        "average", _ignore, True),
    "ConditionStats": (lambda v: ConditionStats(1 + v, 2, None),
                       "negative_mentions", _ignore, True),
    "CorpusSummary": (_summary, "report_count", _ignore, True),
    "FieldDelta": (lambda v: FieldDelta("f", 1.0, 2.0 + v, 1.0, 1.0, True),
                   "b", _ignore, True),
    "SummaryShift": (lambda v: SummaryShift(0.25 + v, ()), "threshold",
                     _ignore, True),
    "_Production": (lambda v: backends._Production(re.compile("a"), "b", v),
                    "ensure_period", _ignore, True),
    "RetrievalIndex": (lambda v: build_index([_REPORT._replace(
        study_id=f"s{v}")]), "corpus_digest", _ignore, False),
    "Config": (lambda v: Config(jobs=1 + v), "jobs", _ignore, False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    make, field, use, frozen = RECORDS[name]
    used, fresh, other = make(0), make(0), make(1)
    use(used)
    assert used == fresh and not used != fresh
    assert used != other
    assert getattr(used, field) != getattr(other, field)
    if frozen:
        assert hash(used) == hash(fresh)
        with pytest.raises(AttributeError):
            setattr(used, field, getattr(other, field))
        assert used == fresh
    else:
        with pytest.raises(TypeError):
            hash(used)
        setattr(used, field, getattr(other, field))
        assert getattr(used, field) == getattr(other, field)

