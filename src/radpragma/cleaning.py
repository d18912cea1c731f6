"""Compositional report cleaning with a label-preservation guard.

Seven rewrite rules run one at a time, in rule-id order, over each sentence.
A rule only fires when one of its trigger cues appears in the sentence, so
the backend is never invoked on sentences the rule cannot apply to. After
every rule the candidate is relabeled: if any of the fourteen condition
labels differs from the sentence's pre-rule labels, the change is discarded.
A rule may delete a sentence by returning the literal token ``REMOVED``;
deletions are only accepted when the pre-rule sentence carried no mention of
any condition.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

from .errors import BackendError, InputError
from .labeler import Lexicon, label_normalized
from .model import (BoundedMemo, LabelVector, Report, join_sentences,
                    normalize_text, segment_sentences, stem_pattern)

#: Sentinel marking a sentence deleted by a cleaning rule.
REMOVED = "REMOVED"


@dataclass(frozen=True)
class CleaningRule:
    """One rewrite rule: id, trigger cues, and its backend prompt."""

    rule_id: int
    name: str
    trigger_cues: tuple[str, ...]
    prompt_template: str

    def __post_init__(self):
        if not 1 <= self.rule_id <= 7:
            raise ValueError(f"rule id out of range: {self.rule_id}")
        if REMOVED not in self.prompt_template:
            raise ValueError(
                f"rule {self.rule_id} prompt lacks the {REMOVED} contract")

    def triggered_by(self, sentence: str) -> bool:
        return stem_pattern(self.trigger_cues).search(sentence.lower()) \
            is not None


_PROMPT_1 = (
    'You will be given a sentence from a chest X-ray report. Remove ALL '
    'sentences that contain comparisons to the past, and rewrite sentences '
    'minimally to preserve meaning. If a sentence contains the word '
    '"compare", remove it. If a sentence is empty after cleaning, replace '
    'it with the token "REMOVED". If a sentence contains "REMOVED", do not '
    'change it.')
_PROMPT_2 = (
    'You will be given a sentence from a chest X-ray report. Remove ALL '
    'sentences that contain information about communication between medical '
    'professionals, such as between doctors or nurses. If a sentence is '
    'empty after cleaning, replace it with the token "REMOVED". If a '
    'sentence contains "REMOVED", do not change it.')
_PROMPT_3 = (
    'You will be given a sentence from a chest X-ray report. Remove ALL '
    'sentences that mention medical recommendations from doctors. Remove '
    'sentences that contain "recommend". If a sentence is empty after '
    'cleaning, replace it with the token "REMOVED". If a sentence contains '
    '"REMOVED", do not change it.')
_PROMPT_4 = (
    'You will be given a sentence from a chest X-ray report. Remove ALL '
    'sentences that mention the chest X-ray view (e.g. AP, PA, lateral) or '
    '"status post". Rewrite sentences minimally to preserve meaning. If a '
    'sentence is empty after cleaning, replace it with the token "REMOVED". '
    'If a sentence is empty or contains "REMOVED", do not change it.')
_PROMPT_5 = (
    'You will be given a sentence from a chest X-ray report. Remove all '
    'instances of "new", "increase", "greater", "worsen", etc. and rewrite '
    'the sentence to preserve meaning. If the sentence mentions changes to '
    'an organ (e.g. lung, heart), do not rewrite it. If a sentence contains '
    '"REMOVED", do not change it.')
_PROMPT_6 = (
    'You will be given a sentence from a chest X-ray report. If a sentence '
    'mentions that a positive medical condition is unchanged or improved '
    '(but still positive), remove words related to "unchanged" or "improve" '
    'and rewrite the sentence to only say the condition. Otherwise, keep it '
    'the same. If a sentence contains "REMOVED", do not change it.')
_PROMPT_7 = (
    'You will be given a sentence from a chest X-ray report. If the '
    'sentence mentions the resolution or disappearance of a condition, '
    'rewrite it to simply say the condition is negative. Otherwise, keep '
    'the sentence the same. If a sentence is empty or contains "REMOVED", '
    'do not change it.')

DEFAULT_RULES: tuple[CleaningRule, ...] = (
    CleaningRule(1, "Remove comparison to prior studies",
                 ("compar",), _PROMPT_1),
    CleaningRule(2, "Remove communication information",
                 ("commun", "convey", "relay", "notif", "paged", "telephone",
                  "phone", "discussed", "dashboard"), _PROMPT_2),
    CleaningRule(3, "Remove doctor recommendations",
                 ("recommend", "suggest", "should", "advis"), _PROMPT_3),
    CleaningRule(4, "Remove previous treatment and image view",
                 ("status", "view", "ap", "pa", "lateral", "frontal",
                  "portable", "upright", "supine"), _PROMPT_4),
    CleaningRule(5, "Rewrite new/increased conditions into positive",
                 ("new", "newly", "increas", "greater", "worse", "worsen",
                  "larger", "enlarg", "progress", "develop"), _PROMPT_5),
    CleaningRule(6, "Rewrite unchanged/partially-improved conditions into "
                    "positive",
                 ("unchanged", "improv", "stable", "persist"), _PROMPT_6),
    CleaningRule(7, "Rewrite resolved conditions into negative",
                 ("resolv", "resolut", "disappear", "cleared"), _PROMPT_7),
)


def build_rewrite_prompt(rule: CleaningRule, sentence: str) -> str:
    """Full prompt sent to a rewriting backend for one sentence."""
    return f"{rule.prompt_template}\n\nOriginal:\n{sentence}\nNew:\n"


class RewriteBackend(Protocol):
    """Given (rule, sentence), produce a rewritten sentence or REMOVED.

    Implementations must be deterministic per (rule, sentence) within a run.
    """

    def rewrite(self, rule: CleaningRule, sentence: str) -> str: ...


def apply_rule(sentence: str, rule: CleaningRule,
               backend: RewriteBackend) -> str:
    """Apply one rule to one sentence.

    Sentences without any trigger cue pass through without invoking the
    backend; REMOVED inputs are never changed. Output is normalized, with an
    empty rewrite mapped to REMOVED.
    """
    sentence = normalize_text(sentence)
    if sentence == REMOVED or not sentence:
        return sentence
    return _rewrite(sentence, rule, backend)


def _rewrite(sentence: str, rule: CleaningRule,
             backend: RewriteBackend) -> str:
    """``apply_rule`` on a normalized sentence, neither empty nor REMOVED."""
    if not rule.triggered_by(sentence):
        return sentence
    try:
        rewritten = backend.rewrite(rule, sentence)
    except BackendError as exc:
        exc.rule_id = rule.rule_id
        raise
    rewritten = normalize_text(rewritten)
    return rewritten if rewritten else REMOVED


@dataclass(frozen=True)
class RuleOutcome:
    """Audit record for one rule application within a sentence."""

    rule_id: int
    candidate: str
    accepted: bool
    reason: str  # accepted | no-change | removed | guard-discarded-rewrite |
    #              guard-discarded-removal

    def to_dict(self) -> dict:
        return {"rule_id": self.rule_id, "candidate": self.candidate,
                "accepted": self.accepted, "reason": self.reason}

    def _json(self) -> str:
        # ``_encode(self.to_dict())``: keys in sorted order, and a reason
        # that needs no escaping.
        return (f'{{"accepted": {"true" if self.accepted else "false"}, '
                f'"candidate": {_encode(self.candidate)}, '
                f'"reason": "{self.reason}", "rule_id": {self.rule_id}}}')


@dataclass(frozen=True)
class SentenceAudit:
    """Audit record of one sentence's fold. It depends only on the sentence
    text (for one backend and lexicon), so a fold memo shares one among the
    sentences with that text; a sentence's index is its position in its
    report's audit list."""

    original: str
    final: str
    outcomes: tuple[RuleOutcome, ...]

    def to_dict(self) -> dict:
        return {"original": self.original, "final": self.final,
                "outcomes": [o.to_dict() for o in self.outcomes]}

    @functools.cached_property
    def _json(self) -> tuple[str, str]:
        # This record as sorted-key JSON, split where a report adds its
        # keys: "index" sorts between "final" and "original", "study_id"
        # after "outcomes".
        return (f'{{"final": {_encode(self.final)}, "index": ',
                f', "original": {_encode(self.original)}, "outcomes": '
                f'[{", ".join(o._json() for o in self.outcomes)}], '
                f'"study_id": ')


#: ``json.dumps(value, ensure_ascii=False, sort_keys=True)``, without
#: making an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def audit_jsonl(study_id: str, audits: Sequence[SentenceAudit]) -> str:
    """A report's audit as JSON lines: line ``i`` is
    ``json.dumps({"study_id": study_id, "index": i, **audits[i].to_dict()},
    ensure_ascii=False, sort_keys=True)``, built from each audit's JSON,
    which is encoded once per ``SentenceAudit``."""
    end = f"{_encode(study_id)}}}\n"
    return "".join(f"{audit._json[0]}{index}{audit._json[1]}{end}"
                   for index, audit in enumerate(audits))


def clean_sentence_audited(sentence: str,
                           backend: RewriteBackend,
                           lexicon: Optional[Lexicon] = None,
                           ) -> SentenceAudit:
    """Fold DEFAULT_RULES, in rule-id order, over a sentence, normalized,
    under the label guard; keep an audit."""
    return _clean_normalized(sentence, normalize_text(sentence), backend,
                             lexicon)


def _clean_normalized(original: str, current: str, backend: RewriteBackend,
                      lexicon: Optional[Lexicon]) -> SentenceAudit:
    """``clean_sentence_audited(original)``, given ``current``, the
    normalized ``original``. The pre-rule labels are needed only once a rule
    changes the text; an accepted rewrite keeps them, so they are computed
    at most once."""
    outcomes: list[RuleOutcome] = []
    if current == REMOVED or not current:
        return SentenceAudit(original, current, ())
    current_labels = None
    for rule in DEFAULT_RULES:
        candidate = _rewrite(current, rule, backend)
        if candidate == current:
            outcomes.append(RuleOutcome(rule.rule_id, candidate, True,
                                        "no-change"))
            continue
        if current_labels is None:
            current_labels = label_normalized(current, lexicon)
        if candidate == REMOVED:
            if current_labels == LabelVector.all_not_mentioned():
                outcomes.append(RuleOutcome(rule.rule_id, candidate, True,
                                            "removed"))
                return SentenceAudit(original, REMOVED, tuple(outcomes))
            outcomes.append(RuleOutcome(rule.rule_id, candidate, False,
                                        "guard-discarded-removal"))
            continue
        if label_normalized(candidate, lexicon) == current_labels:
            outcomes.append(RuleOutcome(rule.rule_id, candidate, True,
                                        "accepted"))
            current = candidate
        else:
            outcomes.append(RuleOutcome(rule.rule_id, candidate, False,
                                        "guard-discarded-rewrite"))
    return SentenceAudit(original, current, tuple(outcomes))


def clean_sentence(sentence: str, backend: RewriteBackend,
                   lexicon: Optional[Lexicon] = None) -> str:
    return clean_sentence_audited(sentence, backend, lexicon).final


#: Distinct sentences a clean run's fold memo holds before it is cleared:
#: about 1.3 MB of typical report sentences without an audit.
FOLD_MEMO_CAP = 8_192


def _fold(text: str, backend: RewriteBackend, lexicon: Optional[Lexicon],
          audit: bool) -> SentenceAudit | str:
    """Segmented sentence ``text``'s audit, or without ``audit`` its final
    text."""
    folded = _clean_normalized(text, text, backend, lexicon)
    return folded if audit else folded.final


def clean_report_audited(report: Report, backend: RewriteBackend,
                         lexicon: Optional[Lexicon] = None,
                         memo: Optional[BoundedMemo] = None,
                         audit: bool = True,
                         ) -> tuple[Report, list[SentenceAudit]]:
    """Clean every sentence of a report's impression.

    REMOVED sentences are dropped; the rest are rejoined with single spaces.
    Indication, study_id, and findings pass through untouched. The guard
    holds per sentence: each cleaned sentence relabels as its original did.
    The rejoined impression need not, because a rewrite can drop a
    sentence's end mark, and a cue then scopes into the next sentence.

    Without ``audit`` no audits are returned. With a ``memo`` each distinct
    sentence is folded once per memo, which serves one backend, lexicon and
    ``audit`` setting, and without ``audit`` stores only final texts.
    """
    audits: list[SentenceAudit] = []
    kept: list[str] = []
    for sentence in segment_sentences(report.impression):
        text = sentence.text
        try:
            fold = (_fold(text, backend, lexicon, audit) if memo is None
                    else memo.get(text, _fold, text, backend, lexicon, audit))
        except BackendError as exc:
            exc.sentence_index = sentence.index
            exc.study_id = report.study_id
            raise
        if audit:
            audits.append(fold)
            fold = fold.final
        if fold != REMOVED:
            kept.append(fold)
    return replace(report, impression=join_sentences(kept)), audits


def clean_report(report: Report, backend: RewriteBackend,
                 lexicon: Optional[Lexicon] = None) -> Report:
    cleaned, _ = clean_report_audited(report, backend, lexicon, audit=False)
    return cleaned


def evaluate_cleaning(machine_cleaned: Sequence[str],
                      manual_cleaned: Sequence[str],
                      originals: Sequence[str],
                      lexicon: Optional[Lexicon] = None) -> dict[str, float]:
    """Sentence-level cleaning scores.

    Label preservation (pos_f1/neg_f1, micro-averaged) compares labels of
    the machine-cleaned sentences against the originals; exact-match
    accuracy and BLEU-2 compare machine output against the manual cleanings.
    """
    from .metrics import bleu2, exact_match_accuracy, negative_f1, positive_f1
    if not (len(machine_cleaned) == len(manual_cleaned) == len(originals)):
        raise InputError(
            f"cleaning evaluation inputs misaligned: "
            f"{len(machine_cleaned)} machine, {len(manual_cleaned)} manual, "
            f"{len(originals)} original sentences")

    def labels_of(text: str) -> LabelVector:
        text = normalize_text(text)
        if text == REMOVED:
            return LabelVector.all_not_mentioned()
        return label_normalized(text, lexicon)

    pred = {str(i): labels_of(s) for i, s in enumerate(machine_cleaned)}
    ref = {str(i): labels_of(s) for i, s in enumerate(originals)}
    pos, _ = positive_f1(pred, ref, average="micro")
    neg, _ = negative_f1(pred, ref, average="micro")
    return {
        "pos_f1": pos,
        "neg_f1": neg,
        "em_accuracy": exact_match_accuracy(machine_cleaned, manual_cleaned),
        "bleu2": bleu2(machine_cleaned, manual_cleaned),
    }
