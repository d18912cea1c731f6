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
from typing import NamedTuple, Optional, Protocol, Sequence

from .errors import BackendError, InputError
from .labeler import Lexicon, label_normalized
from .model import (BoundedMemo, Frozen, LabelVector, Report, StemIndex,
                    join_sentences, normalize_text, segment_sentences)

#: Sentinel marking a sentence deleted by a cleaning rule.
REMOVED = "REMOVED"


class CleaningRule(Frozen):
    """One rewrite rule: id, trigger cues, and its backend prompt."""

    _fields = ("rule_id", "name", "trigger_cues", "prompt_template")

    def __init__(self, rule_id: int, name: str, trigger_cues: tuple[str, ...],
                 prompt_template: str):
        if not 1 <= rule_id <= 7:
            raise ValueError(f"rule id out of range: {rule_id}")
        if REMOVED not in prompt_template:
            raise ValueError(
                f"rule {rule_id} prompt lacks the {REMOVED} contract")
        vars(self).update(rule_id=rule_id, name=name,
                          trigger_cues=trigger_cues,
                          prompt_template=prompt_template)

    @functools.cached_property
    def _triggers(self) -> StemIndex:
        return StemIndex(((self.rule_id, self.trigger_cues),))

    def triggered_by(self, sentence: str) -> bool:
        return bool(self._triggers.ids(sentence))


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
    if sentence == REMOVED or not sentence or not rule.triggered_by(sentence):
        return sentence
    return _rewrite(sentence, rule, backend)


def _rewrite(sentence: str, rule: CleaningRule,
             backend: RewriteBackend) -> str:
    """``apply_rule`` on a normalized sentence, neither empty nor REMOVED,
    that triggers ``rule``. The one place a backend's answer is normalized."""
    try:
        rewritten = backend.rewrite(rule, sentence)
    except BackendError as exc:
        exc.rule_id = rule.rule_id
        raise
    return normalize_text(rewritten) or REMOVED


#: The triggers of the rules a fold applies, by rule id.
_TRIGGERS = StemIndex((rule.rule_id, rule.trigger_cues)
                      for rule in DEFAULT_RULES)


class RuleOutcome(NamedTuple):
    """Audit record for one rule application within a sentence."""

    rule_id: int
    candidate: str
    accepted: bool
    reason: str  # accepted | no-change | removed | guard-discarded-rewrite |
    #              guard-discarded-removal

    def _json(self) -> str:
        # This record as sorted-key JSON; a reason needs no escaping.
        return (f'{{"accepted": {"true" if self.accepted else "false"}, '
                f'"candidate": {_encode(self.candidate)}, '
                f'"reason": "{self.reason}", "rule_id": {self.rule_id}}}')


#: A no-change outcome's JSON before its candidate, and after it by rule id.
_NO_CHANGE_HEAD = '{"accepted": true, "candidate": '
_NO_CHANGE_TAIL = {rule.rule_id: f', "reason": "no-change", '
                                 f'"rule_id": {rule.rule_id}}}'
                   for rule in DEFAULT_RULES}
#: The outcomes' JSON of a fold that no rule changed, around each candidate.
_UNCHANGED_JSON = (
    _NO_CHANGE_HEAD,
    *(f"{_NO_CHANGE_TAIL[rule.rule_id]}, {_NO_CHANGE_HEAD}"
      for rule in DEFAULT_RULES[:-1]),
    _NO_CHANGE_TAIL[DEFAULT_RULES[-1].rule_id])


class SentenceAudit(Frozen):
    """Audit record of one sentence's fold. It depends only on the sentence
    text (for one backend and lexicon), so a fold memo shares one among the
    sentences with that text; a sentence's index is its position in its
    report's audit list. It keeps only the ``changes``, the outcomes other
    than no-change; ``outcomes`` derives the rest, so two audits are equal
    exactly when their original, final and outcomes are."""

    _fields = ("original", "final", "changes")

    def __init__(self, original: str, final: str,
                 changes: tuple[RuleOutcome, ...]):
        vars(self).update(original=original, final=final, changes=changes)

    def _steps(self):
        """(rule id, its change or None, the text the rule saw) for each
        rule the fold applied, in rule-id order."""
        text = normalize_text(self.original)
        if text == REMOVED or not text:
            return
        changes = {change.rule_id: change for change in self.changes}
        for rule in DEFAULT_RULES:
            change = changes.get(rule.rule_id)
            yield rule.rule_id, change, text
            if change is not None and change.accepted:
                if change.candidate == REMOVED:
                    return
                text = change.candidate

    @property
    def outcomes(self) -> tuple[RuleOutcome, ...]:
        """One outcome per rule the fold applied, in rule-id order."""
        return tuple(change or RuleOutcome(rule_id, text, True, "no-change")
                     for rule_id, change, text in self._steps())

    @functools.cached_property
    def _json(self) -> tuple[str, str]:
        # This record as sorted-key JSON, split where a report adds its
        # keys: "index" sorts between "final" and "original", "study_id"
        # after "outcomes".
        final = _encode(self.final)
        original = (final if self.original == self.final
                    else _encode(self.original))
        if self.changes:
            outcomes = ", ".join(
                change._json() if change is not None else
                f"{_NO_CHANGE_HEAD}{_encode(text)}{_NO_CHANGE_TAIL[rule_id]}"
                for rule_id, change, text in self._steps())
        elif self.final == REMOVED or not self.final:  # no rule applied
            outcomes = ""
        else:  # every rule saw the final text and left it as it was
            outcomes = final.join(_UNCHANGED_JSON)
        return (f'{{"final": {final}, "index": ',
                f', "original": {original}, "outcomes": [{outcomes}], '
                f'"study_id": ')


#: ``json.dumps(value, ensure_ascii=False, sort_keys=True)``, without
#: making an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def audit_jsonl(study_id: str, audits: Sequence[SentenceAudit]) -> str:
    """A report's audit as JSON lines: line ``i`` is ``audits[i]`` as a
    record of ``study_id``, ``index`` (``i``), ``original``, ``final`` and
    ``outcomes`` (each with ``rule_id``, ``candidate``, ``accepted`` and
    ``reason``) in ``json.dumps(record, ensure_ascii=False,
    sort_keys=True)``, built from each audit's JSON, which is encoded once
    per ``SentenceAudit``."""
    end = f"{_encode(study_id)}}}\n"
    return "".join(f"{audit._json[0]}{index}{audit._json[1]}{end}"
                   for index, audit in enumerate(audits))


def clean_sentence_audited(sentence: str,
                           backend: RewriteBackend,
                           lexicon: Optional[Lexicon] = None,
                           ) -> SentenceAudit:
    """Fold DEFAULT_RULES, in rule-id order, over a sentence, normalized,
    under the label guard; keep an audit."""
    changes: list[tuple] = []
    final = _clean_normalized(normalize_text(sentence), backend, lexicon,
                              changes)
    return SentenceAudit(sentence, final,
                         tuple(RuleOutcome(*change) for change in changes))


def _final(text: str, backend: RewriteBackend,
           lexicon: Optional[Lexicon]) -> str:
    """The final text of the fold of normalized ``text``."""
    return _clean_normalized(text, backend, lexicon, [])


def _clean_normalized(text: str, backend: RewriteBackend,
                      lexicon: Optional[Lexicon], changes: list) -> str:
    """The final text of the fold of normalized ``text``. Each outcome
    other than no-change is appended to ``changes`` as a (rule id,
    candidate, accepted, reason) tuple.

    A rule runs only if it is triggered, which is worked out once for the
    text and again after each accepted rewrite. The pre-rule labels are
    needed only once a rule changes the text; an accepted rewrite keeps
    them, so they are computed at most once."""
    if text == REMOVED or not text:
        return text
    triggered = _TRIGGERS.ids(text)
    if not triggered:
        return text
    labels = None
    for rule in DEFAULT_RULES:
        if rule.rule_id not in triggered:
            continue
        candidate = _rewrite(text, rule, backend)
        if candidate == text:
            continue
        if labels is None:
            labels = label_normalized(text, lexicon)
        if candidate == REMOVED:
            if labels == LabelVector.all_not_mentioned():
                changes.append((rule.rule_id, candidate, True, "removed"))
                return REMOVED
            changes.append((rule.rule_id, candidate, False,
                            "guard-discarded-removal"))
        elif label_normalized(candidate, lexicon) == labels:
            changes.append((rule.rule_id, candidate, True, "accepted"))
            text = candidate
            triggered = _TRIGGERS.ids(text)
        else:
            changes.append((rule.rule_id, candidate, False,
                            "guard-discarded-rewrite"))
    return text


def clean_sentence(sentence: str, backend: RewriteBackend,
                   lexicon: Optional[Lexicon] = None) -> str:
    return _final(normalize_text(sentence), backend, lexicon)


#: Distinct sentences a clean run's fold memo holds before it is cleared:
#: about 1.3 MB of typical report sentences without an audit.
FOLD_MEMO_CAP = 8_192


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
    Segmentation output is normalized, so without ``audit`` a sentence is
    folded as it is. With ``audit`` the fold goes through the public
    ``clean_sentence_audited``, the span the benchmark's tracer times, which
    normalizes the sentence once more.
    """
    audits: list[SentenceAudit] = []
    kept: list[str] = []
    clean = clean_sentence_audited if audit else _final
    for sentence in segment_sentences(report.impression):
        text = sentence.text
        try:
            fold = (clean(text, backend, lexicon) if memo is None
                    else memo.get(text, clean, text, backend, lexicon))
        except BackendError as exc:
            exc.sentence_index = sentence.index
            exc.study_id = report.study_id
            raise
        if audit:
            audits.append(fold)
            fold = fold.final
        if fold != REMOVED:
            kept.append(fold)
    return report._replace(impression=join_sentences(kept)), audits


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
