import json
import os
import sys
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import (AdversarialBackend, guard_fixture_sentences,
                   shipped_lexicon_json)

from radpragma import cleaning, labeler
from radpragma.backends import (PatternBackend, RemoteEndpoint,
                                RemoteRewriteBackend)
from radpragma.cleaning import (DEFAULT_RULES, REMOVED, CleaningRule,
                                apply_rule, build_rewrite_prompt,
                                clean_report, clean_report_audited,
                                clean_sentence, clean_sentence_audited,
                                evaluate_cleaning)
from radpragma.cli import main
from radpragma.corpus_io import read_reports_jsonl, write_reports_jsonl
from radpragma.errors import BackendError, InputError
from radpragma.labeler import (Lexicon, default_lexicon,
                               indication_mentions, label_report,
                               label_sentence)
from radpragma.model import (BoundedMemo, LabelVector, Report,
                             normalize_text, segment_sentences)

RULES = {rule.rule_id: rule for rule in DEFAULT_RULES}


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="module")
def pattern():
    return PatternBackend()


class CountingBackend:
    def __init__(self, result=None):
        self.calls = []
        self.result = result

    def rewrite(self, rule, sentence):
        self.calls.append((rule.rule_id, sentence))
        return self.result if self.result is not None else sentence


class ScriptedBackend:
    """Returns a fixed rewrite for specific (rule_id, sentence) pairs."""

    def __init__(self, script):
        self.script = script

    def rewrite(self, rule, sentence):
        return self.script.get((rule.rule_id, sentence), sentence)


class TestRuleDefinitions:
    def test_seven_rules_with_unique_ids(self):
        assert [rule.rule_id for rule in DEFAULT_RULES] == list(range(1, 8))

    def test_every_prompt_carries_the_removed_contract(self):
        for rule in DEFAULT_RULES:
            assert '"REMOVED"' in rule.prompt_template

    def test_prompt_texts(self):
        assert RULES[1].prompt_template.startswith(
            "You will be given a sentence from a chest X-ray report. "
            "Remove ALL sentences that contain comparisons to the past")
        assert 'If a sentence contains the word "compare", remove it.' in \
            RULES[1].prompt_template
        assert 'Remove sentences that contain "recommend".' in \
            RULES[3].prompt_template
        assert '(e.g. AP, PA, lateral) or "status post"' in \
            RULES[4].prompt_template
        assert '"new", "increase", "greater", "worsen"' in \
            RULES[5].prompt_template

    def test_prompt_requires_removed_token(self):
        with pytest.raises(ValueError, match="REMOVED"):
            CleaningRule(1, "x", ("a",), "no token")

    def test_rewrite_prompt_embeds_sentence(self):
        prompt = build_rewrite_prompt(RULES[2], "No pneumothorax.")
        assert prompt.startswith(RULES[2].prompt_template)
        assert "Original:\nNo pneumothorax.\nNew:" in prompt


class TestApplyRule:
    def test_prior_comparison_phrase_removed(self, pattern):
        got = apply_rule(
            "In comparison with the study of ___, there are slightly "
            "improved lung volumes.", RULES[1], pattern)
        assert got == "There are slightly improved lung volumes."

    def test_resolved_rewritten_to_negative(self, pattern):
        got = apply_rule("Resolved opacities in the left mid lung.",
                         RULES[7], pattern)
        assert got == "No opacities in the left mid lung."

    def test_no_trigger_cue_is_identity_without_backend_call(self):
        backend = CountingBackend()
        assert apply_rule("No pneumothorax.", RULES[2], backend) == \
            "No pneumothorax."
        assert backend.calls == []

    def test_trigger_cue_invokes_backend(self):
        backend = CountingBackend()
        apply_rule("Findings were communicated by phone.", RULES[2], backend)
        assert backend.calls == [(2, "Findings were communicated by phone.")]

    def test_removed_passes_through_unchanged(self):
        backend = CountingBackend()
        assert apply_rule(REMOVED, RULES[2], backend) == REMOVED
        assert backend.calls == []

    def test_empty_rewrite_maps_to_removed(self):
        backend = ScriptedBackend({(3, "Recommend follow up."): ""})
        assert apply_rule("Recommend follow up.", RULES[3], backend) == REMOVED

    def test_backend_error_carries_rule_id(self):
        class FailingBackend:
            def rewrite(self, rule, sentence):
                raise BackendError("boom")

        with pytest.raises(BackendError) as info:
            apply_rule("Recommend follow up.", RULES[3], FailingBackend())
        assert info.value.rule_id == 3


class TestLabelGuard:
    def test_polarity_flip_is_discarded(self, lexicon):
        backend = ScriptedBackend({(1, "No pneumonia compared to prior.")
                                   : "Pneumonia."})
        got = clean_sentence("No pneumonia compared to prior.", backend,
                             lexicon=lexicon)
        assert got == "No pneumonia compared to prior."

    def test_label_preserving_change_is_kept(self, lexicon, pattern):
        got = clean_sentence("New large right pneumothorax", pattern,
                             lexicon=lexicon)
        assert got == "Large right pneumothorax"

    def test_removal_of_labeled_sentence_is_discarded(self, lexicon):
        backend = ScriptedBackend({(3, "No pneumonia, recommend follow up.")
                                   : REMOVED})
        got = clean_sentence("No pneumonia, recommend follow up.", backend,
                             lexicon=lexicon)
        assert got == "No pneumonia, recommend follow up."

    def test_removal_of_unlabeled_sentence_is_accepted(self, lexicon):
        backend = ScriptedBackend({(3, "Recommend clinical correlation.")
                                   : REMOVED})
        assert clean_sentence("Recommend clinical correlation.", backend,
                              lexicon=lexicon) == REMOVED

    def test_guard_checks_against_pre_rule_sentence(self, lexicon):
        # rule 5 legitimately rewrites; a later corrupted rule must be judged
        # against the rule-5 output, not the original
        script = {(5, "New pneumonia."): "Pneumonia, stable.",
                  (6, "Pneumonia, stable."): "No pneumonia."}
        backend = ScriptedBackend(script)
        got = clean_sentence("New pneumonia.", backend, lexicon=lexicon)
        assert got == "Pneumonia, stable."

    def test_guard_holds_against_adversarial_backend(self, lexicon):
        backend = AdversarialBackend()
        sentences = guard_fixture_sentences(count=120, seed=5)
        for sentence in sentences:
            before = label_sentence(sentence, lexicon)
            if before == LabelVector.all_not_mentioned():
                continue
            cleaned = clean_sentence(sentence, backend, lexicon=lexicon)
            assert cleaned != REMOVED
            assert label_sentence(cleaned, lexicon) == before, sentence


class TestCleanReport:
    def test_all_communication_impression_empties(self, lexicon, pattern):
        report = Report(
            study_id="s", indication="",
            impression="These findings were communicated to Dr. ___ by "
                       "phone. The team was notified at 9:00 a.m.")
        cleaned = clean_report(report, pattern, lexicon=lexicon)
        assert cleaned.impression == ""
        assert cleaned.study_id == "s"

    def test_already_clean_report_is_fixpoint(self, lexicon, pattern):
        report = Report(study_id="s", indication="cough",
                        impression="There is pneumonia. No pleural effusion.")
        cleaned = clean_report(report, pattern, lexicon=lexicon)
        assert cleaned == report

    def test_table_style_report(self, lexicon, pattern):
        impression = (
            "PA and lateral chest compared to ___: Lungs are hyperinflated, "
            "due to airway obstruction or emphysema. On the lateral view, "
            "aside from a granuloma, there is no pneumonia. The heart size "
            "is normal, no pulmonary edema related to CHF. Right pleural "
            "effusion is tiny status post pleural tube removal compared to "
            "large pleural effusions seen on prior chest radiographs. There "
            "are no findings to suggest intrathoracic malignancy. An urgent "
            "CT thorax is suggested given the rapid growth of granuloma. "
            "These findings were communicated to Dr. ___ at 4:00 p.m. by "
            "phone.")
        report = Report(study_id="t1", impression=impression)
        cleaned, audits = clean_report_audited(report, pattern,
                                               lexicon=lexicon)
        text = cleaned.impression
        assert "compared" not in text.lower()
        assert "communicated" not in text.lower()
        assert "suggested given" not in text
        assert "lateral" not in text.lower()
        assert "status post" not in text.lower()
        assert "there is no pneumonia" in text
        assert "no pulmonary edema related to CHF" in text
        assert "no findings to suggest intrathoracic malignancy" in text
        assert label_report(text, lexicon) == \
            label_report(impression, lexicon)
        assert [a.final for a in audits[-2:]] == [REMOVED, REMOVED]

    @pytest.mark.parametrize("impression, cleaned", [
        ("Small effusion, as compared with the prior exam.",
         "Small effusion."),
        ("Right effusion, status post CABG.", "Right effusion"),
        ("Stable cardiomegaly, as compared to prior; no effusion.",
         "Cardiomegaly; no effusion."),
        ("No pneumonia. New small right pleural effusion, compared to prior.",
         "No pneumonia. Small right pleural effusion.")])
    def test_no_comma_is_left_dangling(self, lexicon, pattern, impression,
                                       cleaned):
        report = Report(study_id="s", impression=impression)
        assert clean_report(report, pattern,
                            lexicon=lexicon).impression == cleaned

    def test_no_removed_token_in_output(self, lexicon, pattern):
        for sentence in guard_fixture_sentences(count=60, seed=9):
            report = Report(study_id="s", impression=sentence)
            assert REMOVED not in clean_report(report, pattern,
                                               lexicon=lexicon).impression

    def test_backend_error_carries_sentence_index_and_study(self, lexicon):
        class FailingBackend:
            def rewrite(self, rule, sentence):
                raise BackendError("transport down")

        report = Report(study_id="s9", impression="No edema. Recommend CT.")
        with pytest.raises(BackendError) as info:
            clean_report(report, FailingBackend(), lexicon=lexicon)
        assert info.value.sentence_index == 1
        assert info.value.study_id == "s9"
        assert info.value.rule_id == 3


#: Sentences the rules rewrite, remove or keep, and text that JSON must
#: escape or keep as it is: quotes, backslashes, control characters (NUL is
#: escaped; DEL and U+2028 are kept), non-ASCII, de-id runs.
_SENTENCES = guard_fixture_sentences(count=40, seed=15) + [
    "Findings discussed with Dr. ___ by phone.", "Recommend CT.",
    "Compared to ___, new small right pleural effusion.",
    'Pleural effusion has resolved, per "prior" \\ note.',
    "Stable cardiomégaly — unchanged.", "No pneumothorax 中.",
]
_AWKWARD = st.text(alphabet='aZ .,"\\\'é中😀_\t\x00\x7f\u2028', min_size=1,
                   max_size=12)


def _fold_all(corpus, backend, lexicon, workers, memo):
    """Each report's audits, folded through one memo by ``workers``
    threads, in report order."""
    results = [None] * len(corpus)

    def work(worker):
        for i in range(worker, len(corpus), workers):
            results[i] = clean_report_audited(corpus[i], backend, lexicon,
                                              memo)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestFoldMemo:
    """A clean run folds each distinct sentence once, through a fold memo
    (a ``BoundedMemo``)."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cap=st.sampled_from([3, cleaning.FOLD_MEMO_CAP]),
           audit=st.booleans())
    def test_cli_clean_writes_the_per_report_fold(self, data, cap, audit):
        bank = data.draw(st.lists(
            st.one_of(st.sampled_from(_SENTENCES), _AWKWARD,
                      st.tuples(st.sampled_from(_SENTENCES), _AWKWARD)
                      .map(" ".join)), min_size=1, max_size=6))
        pick = st.lists(st.sampled_from(bank), max_size=5).map(" ".join)
        reports = [Report(study_id=f"{i}{data.draw(_AWKWARD)}",
                          impression=data.draw(pick),
                          indication=data.draw(pick))
                   for i in range(data.draw(st.integers(1, 8)))]
        lexicon, pattern = default_lexicon(), PatternBackend()
        folded = [clean_report_audited(r, pattern, lexicon)
                  for r in reports]
        expected_audit = "".join(
            json.dumps({"study_id": r.study_id, "index": sentence.index,
                        "original": a.original, "final": a.final,
                        "outcomes": [{"rule_id": o.rule_id,
                                      "candidate": o.candidate,
                                      "accepted": o.accepted,
                                      "reason": o.reason}
                                     for o in a.outcomes]},
                       ensure_ascii=False, sort_keys=True)
            + "\n" for r, (_, audits) in zip(reports, folded)
            for sentence, a in zip(segment_sentences(r.impression), audits))
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out, audit_path, expected_out = (
                os.path.join(tmp, name) for name in (
                    "corpus.jsonl", "cleaned.jsonl", "audit.jsonl",
                    "expected.jsonl"))
            write_reports_jsonl(reports, corpus)
            write_reports_jsonl([cleaned for cleaned, _ in folded],
                                expected_out)
            argv = ["clean", "--in", corpus, "--out", out]
            if audit:
                argv += ["--audit", audit_path]
            with mock.patch.object(cleaning, "FOLD_MEMO_CAP", cap):
                assert main(argv) == 0
            with open(out, "rb") as got, open(expected_out, "rb") as want:
                assert got.read() == want.read()
            if audit:
                with open(audit_path, "rb") as got:
                    assert got.read() == expected_audit.encode("utf-8")
            else:
                assert not os.path.exists(audit_path)

    def test_segmented_sentences_are_not_normalized_again(
            self, monkeypatch, lexicon, pattern):
        # Segmentation output is normalized, so without an audit a sentence
        # that triggers no rule costs the fold no normalization.
        calls = []

        def counting(text):
            calls.append(text)
            return normalize_text(text)

        monkeypatch.setattr(cleaning, "normalize_text", counting)
        report = Report(study_id="s",
                        impression="No  edema. Heart size is normal.")
        cleaned, audits = clean_report_audited(
            report, pattern, lexicon, BoundedMemo(8), audit=False)
        assert (cleaned.impression, audits) == (
            "No edema. Heart size is normal.", [])
        assert calls == []

    def test_failing_fold_is_not_memoized(self, lexicon):
        class FlakyBackend:
            fail = True

            def rewrite(self, rule, sentence):
                if self.fail:
                    raise BackendError("transport down")
                return sentence

        backend, memo = FlakyBackend(), BoundedMemo(cleaning.FOLD_MEMO_CAP)
        report = Report(study_id="s9", impression="No edema. Recommend CT.")
        with pytest.raises(BackendError) as info:
            clean_report_audited(report, backend, lexicon, memo)
        assert (info.value.study_id, info.value.sentence_index,
                info.value.rule_id) == ("s9", 1, 3)
        assert list(memo.stored) == ["No edema."]
        backend.fail = False
        _, audits = clean_report_audited(report, backend, lexicon, memo)
        assert [a.final for a in audits] == ["No edema.", "Recommend CT."]
        assert memo.counts() == {"hits": 1, "misses": 3}

    def test_bounded_and_keeps_only_final_text_without_audit(
            self, monkeypatch, lexicon, pattern):
        monkeypatch.setattr(cleaning, "FOLD_MEMO_CAP", 3)
        report = Report(study_id="s", impression=" ".join(_SENTENCES[:8]))
        expected = clean_report(report, pattern, lexicon)
        memo = BoundedMemo(cleaning.FOLD_MEMO_CAP)
        for _ in range(2):
            assert clean_report_audited(report, pattern, lexicon, memo,
                                        audit=False) == (expected, [])
            assert 0 < len(memo.stored) <= 3
            assert all(type(final) is str for final in memo.stored.values())

    def test_threads_sharing_a_memo_get_single_thread_folds(
            self, monkeypatch, lexicon, pattern):
        corpus = [Report(study_id=str(i), impression=" ".join(
            _SENTENCES[(i * 7 + k) % len(_SENTENCES)] for k in range(4)))
            for i in range(30)] * 3
        expected = [clean_report_audited(r, pattern, lexicon)
                    for r in corpus]
        # A cap below the distinct sentence count, so that threads clear
        # the memo while others read and fill it.
        monkeypatch.setattr(cleaning, "FOLD_MEMO_CAP", 7)
        memo = BoundedMemo(cleaning.FOLD_MEMO_CAP)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _fold_all(corpus, pattern, lexicon, 4, memo)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert len(memo.stored) <= 7
        counts = memo.counts()
        assert counts["hits"] + counts["misses"] == sum(
            len(segment_sentences(r.impression)) for r in corpus)


class TestLazyGuard:
    """The guard labels a sentence only once a rule changes it."""

    def test_clean_without_a_triggered_rule_labels_nothing(self, tmp_path):
        # A lexicon loaded from a file has an empty memo.
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(shipped_lexicon_json()))
        reports = [Report("a", "Small right pleural effusion. No edema."),
                   Report("b", "Heart size is normal. No edema.")]
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "cleaned.jsonl"
        write_reports_jsonl(reports, str(corpus))
        assert main(["clean", "--in", str(corpus), "--lexicon", str(lexicon),
                     "--out", str(out), "--audit",
                     str(tmp_path / "audit.jsonl")]) == 0
        assert read_reports_jsonl(str(out)) == reports
        run = json.loads((tmp_path / "cleaned.jsonl.run.json").read_text())
        assert run["label_memo"] == {"hits": 0, "misses": 0}
        assert run["clean_memo"] == {"hits": 1, "misses": 3}

    def test_labels_the_pre_rule_text_once_and_each_candidate_once(
            self, monkeypatch, pattern):
        events = []
        real_label = labeler._label

        def label(text, lexicon):
            events.append(("label", text))
            return real_label(text, lexicon)

        class Recording:
            def rewrite(self, rule, sentence):
                events.append(("rewrite", rule.rule_id))
                return pattern.rewrite(rule, sentence)

        monkeypatch.setattr(labeler, "_label", label)
        lexicon = Lexicon.from_dict(shipped_lexicon_json())
        sentence = "Compared to ___, new right pleural effusion."
        audit = clean_sentence_audited(sentence, Recording(), lexicon)
        accepted = ["New right pleural effusion.", "Right pleural effusion."]
        assert [(o.rule_id, o.candidate) for o in audit.outcomes
                if o.reason == "accepted"] == [(1, accepted[0]),
                                               (5, accepted[1])]
        assert [text for kind, text in events if kind == "label"] == [
            sentence, *accepted]
        # Rule 1's rewrite, the only one before the first change, comes
        # before any label.
        assert events[:2] == [("rewrite", 1), ("label", sentence)]
        assert lexicon.memo_counts() == {"hits": 0, "misses": 3}


_RAW_SPACE = st.sampled_from([" ", "  ", "\t", " \t ", "\n", "\u2028"])
_RAW_DEID = st.sampled_from(["___", "____", "_________"])


@st.composite
def _raw_and_normalized(draw):
    """Text with whitespace runs, tabs and long de-id runs, and its
    normalized form."""
    text = normalize_text(" ".join(draw(st.lists(
        st.one_of(st.sampled_from(_SENTENCES), _AWKWARD), min_size=1,
        max_size=3))))
    # A normalized "___" is a whole underscore run, so a longer one in its
    # place normalizes back to it.
    words = [piece + "".join(draw(_RAW_DEID) + rest for rest in tail)
             for piece, *tail in (word.split("___")
                                  for word in text.split(" "))]
    raw = draw(_RAW_SPACE) + "".join(
        word + draw(_RAW_SPACE) for word in words)
    assert normalize_text(raw) == text
    return raw, text


@settings(max_examples=80, deadline=None)
@given(pair=_raw_and_normalized())
def test_raw_and_normalized_text_give_equal_results(pair):
    # Each public entry normalizes its input; internal callers pass text
    # that is normalized already. Separate lexicons, so that the raw text's
    # results come from its own memo.
    raw, text = pair
    by_raw, by_text = (Lexicon.from_dict(shipped_lexicon_json())
                       for _ in range(2))
    pattern = PatternBackend()
    assert label_sentence(raw, by_raw) == label_sentence(text, by_text)
    assert label_report(raw, by_raw) == label_report(text, by_text)
    assert (indication_mentions(raw, by_raw)
            == indication_mentions(text, by_text))
    for rule in DEFAULT_RULES:
        assert (apply_rule(raw, rule, pattern)
                == apply_rule(text, rule, pattern))
    from_raw = clean_sentence_audited(raw, pattern, by_raw)
    from_text = clean_sentence_audited(text, pattern, by_text)
    assert from_raw.original == raw
    assert (from_raw.final, from_raw.outcomes) == (from_text.final,
                                                   from_text.outcomes)
    assert (clean_report(Report("s", raw), pattern, by_raw).impression
            == clean_report(Report("s", text), pattern, by_text).impression)


#: Words the pattern productions, their keeps and the tidy-up steps match.
_RULE_WORDS = st.sampled_from(
    "in comparison with to the study of ___ , ; : . ? ! compared as when "
    "now prior new newly New increased increasing worsening enlarging "
    "decreased improved unchanged Unchanged worsened enlarged stable Stable "
    "persistent resolved Resolved resolving resolution has have is are "
    "appears remains probably likely essentially slightly partially "
    "interval increase development progression size since from heart "
    "lungs lung volumes mediastinum cardiac silhouette status post AP "
    "frontal lateral portable chest views radiograph on this shows "
    "effusion pneumonia edema Effusion disappeared cleared".split())


@st.composite
def _normalized_rule_text(draw):
    """Normalized, non-empty text built from rule words and awkward
    characters."""
    # Rule words are drawn twice as often as awkward text.
    text = normalize_text(" ".join(draw(st.lists(
        st.one_of(_RULE_WORDS, _RULE_WORDS, _AWKWARD), min_size=1,
        max_size=12))))
    return text or "x"


class TestPatternBackendProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=_normalized_rule_text(), rule=st.sampled_from(DEFAULT_RULES))
    def test_rewrite_of_normalized_text_is_normalized(self, text, rule):
        # cleaning._rewrite is the one normalizer of a backend's answer; the
        # pattern backend needs none of its own.
        rewritten = PatternBackend().rewrite(rule, text)
        assert normalize_text(rewritten) == rewritten

    @pytest.mark.parametrize("rule_id", [5, 6])
    @pytest.mark.parametrize("sentence", [
        "Heart size has increased.", "The lungs are unchanged.",
        "Lung volumes have decreased.", "Mediastinum is unchanged."])
    def test_organ_level_change_is_kept(self, pattern, rule_id, sentence):
        # Rules 5 and 6 rewrite changes in a finding, not in an organ.
        assert pattern.rewrite(RULES[rule_id], sentence) == sentence
        assert apply_rule(sentence, RULES[rule_id], pattern) == sentence

    def test_new_finding_becomes_plain_positive(self, pattern):
        assert apply_rule("New pneumonia.", RULES[5], pattern) == \
            "Pneumonia."

    def test_idempotent_on_fixture(self, lexicon, pattern):
        for sentence in guard_fixture_sentences(count=150, seed=3):
            once = clean_sentence(sentence, pattern, lexicon=lexicon)
            twice = clean_sentence(once, pattern, lexicon=lexicon)
            assert twice == once, sentence

    def test_disjoint_cue_rules_commute(self, lexicon, pattern):
        pairs = [
            ((RULES[1], RULES[4]),
             "In comparison with the study of ___, effusion is unchanged "
             "status post thoracentesis."),
            ((RULES[2], RULES[3]),
             "Findings were communicated by phone."),
            ((RULES[5], RULES[7]),
             "New small pneumothorax."),
        ]
        for (first, second), sentence in pairs:
            forward = apply_rule(apply_rule(sentence, first, pattern),
                                 second, pattern)
            backward = apply_rule(apply_rule(sentence, second, pattern),
                                  first, pattern)
            assert forward == backward


class TestEvaluateCleaning:
    def test_identity(self, lexicon):
        sentences = ["No pneumonia.", "There is edema.",
                     "Large pleural effusion."]
        scores = evaluate_cleaning(sentences, sentences, sentences, lexicon)
        assert scores["pos_f1"] == 1.0
        assert scores["neg_f1"] == 1.0
        assert scores["em_accuracy"] == 1.0
        assert scores["bleu2"] == 1.0

    def test_one_mismatch_in_four(self, lexicon):
        originals = ["No pneumonia.", "There is edema.", "No fracture.",
                     "Large pleural effusion."]
        machine = list(originals)
        machine[1] = "There is  edema."  # whitespace only: still a match
        scores = evaluate_cleaning(machine, originals, originals, lexicon)
        assert scores["em_accuracy"] == 1.0
        machine[1] = "Edema is seen."
        scores = evaluate_cleaning(machine, originals, originals, lexicon)
        assert scores["em_accuracy"] == 0.75

    def test_guarded_pipeline_scores_perfect_f1(self, lexicon):
        backend = AdversarialBackend()
        originals = guard_fixture_sentences(count=100, seed=13)
        machine = [clean_sentence(s, backend, lexicon=lexicon)
                   for s in originals]
        scores = evaluate_cleaning(machine, originals, originals, lexicon)
        assert scores["pos_f1"] == 1.0
        assert scores["neg_f1"] == 1.0

    def test_length_mismatch(self, lexicon):
        with pytest.raises(InputError, match="misaligned"):
            evaluate_cleaning(["a"], ["a", "b"], ["a"], lexicon)


class TestRemoteBackend:
    def test_protocol_and_payload(self, http_endpoint):
        seen = []

        def respond(body, handler):
            seen.append(body)
            return 200, {"rewritten": "Large right pneumothorax"}

        url = http_endpoint(respond)
        backend = RemoteRewriteBackend(url, auth_token="secret")
        got = apply_rule("New large right pneumothorax", RULES[5], backend)
        assert got == "Large right pneumothorax"
        (body,) = seen
        assert body["rule_id"] == 5
        assert body["sentence"] == "New large right pneumothorax"
        assert body["prompt"].startswith(RULES[5].prompt_template)

    def test_responses_are_memoized_within_a_run(self, http_endpoint):
        hits = []

        def respond(body, handler):
            hits.append(1)
            return 200, {"rewritten": body["sentence"]}

        url = http_endpoint(respond)
        backend = RemoteRewriteBackend(url)
        for _ in range(3):
            backend.rewrite(RULES[2], "Findings were communicated.")
        assert len(hits) == 1

    def test_threads_asking_for_one_rewrite_send_one_post(self,
                                                          http_endpoint):
        # Each POST answers "take N" for the Nth POST, slowly enough that
        # the second thread asks while the first POST is in flight.
        posts = []

        def respond(body, handler):
            posts.append(body)
            taken = len(posts)
            time.sleep(0.2)
            return 200, {"rewritten": f"take {taken}"}

        backend = RemoteRewriteBackend(http_endpoint(respond))
        got = [None, None]

        def ask(i):
            got[i] = backend.rewrite(RULES[2], "Findings were communicated.")

        threads = [threading.Thread(target=ask, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(posts) == 1
        assert got == ["take 1", "take 1"]

    def test_http_error_raises_backend_error(self, http_endpoint):
        url = http_endpoint(lambda body, handler: (500, {"error": "x"}))
        backend = RemoteRewriteBackend(url)
        with pytest.raises(BackendError, match="HTTP 500") as info:
            apply_rule("Recommend CT.", RULES[3], backend)
        assert info.value.rule_id == 3

    def test_missing_field_raises_backend_error(self, http_endpoint):
        url = http_endpoint(lambda body, handler: (200, {"nope": 1}))
        backend = RemoteRewriteBackend(url)
        with pytest.raises(BackendError, match="rewritten"):
            apply_rule("Recommend CT.", RULES[3], backend)

    @pytest.mark.parametrize("payload", [[1], "x", None])
    def test_non_object_payload_raises_backend_error(self, http_endpoint,
                                                     payload):
        url = http_endpoint(lambda body, handler: (200, payload))
        backend = RemoteRewriteBackend(url)
        with pytest.raises(BackendError, match="rewritten") as info:
            apply_rule("Recommend CT.", RULES[3], backend)
        assert info.value.rule_id == 3

    def test_unreachable_endpoint(self):
        backend = RemoteRewriteBackend("http://127.0.0.1:9/", timeout=0.2)
        with pytest.raises(BackendError, match="unreachable"):
            apply_rule("Recommend CT.", RULES[3], backend)

    def test_retries_then_success(self, http_endpoint):
        # first attempt is cut off by the handler, retry succeeds
        state = {"n": 0}

        def respond(body, handler):
            state["n"] += 1
            if state["n"] == 1:
                handler.wfile.close()
                raise ConnectionError
            return 200, {"rewritten": REMOVED}

        url = http_endpoint(respond)
        backend = RemoteRewriteBackend(url, retries=2)
        got = apply_rule("Recommend clinical correlation.", RULES[3], backend)
        assert got == REMOVED
        assert state["n"] == 2

    def test_reuses_one_connection_and_closes_it_on_exit(self,
                                                         http_endpoint):
        url = http_endpoint(
            lambda body, handler: (200, {"rewritten": body["sentence"]}),
            keep_alive=True)
        server = http_endpoint.servers[-1]
        with RemoteRewriteBackend(url, retries=0) as backend:
            for sentence in ("Recommend CT.", "Suggest MRI.", "Advise CT."):
                backend.rewrite(RULES[3], sentence)
            assert (server.opened, server.open) == (1, 1)
        assert server.open_after() == 0

    def test_reopens_a_connection_the_server_closed(self, http_endpoint):
        posts = []

        def respond(body, handler):
            posts.append(body["sentence"])
            return 200, {"rewritten": body["sentence"]}

        url = http_endpoint(respond, drop=True)
        with RemoteRewriteBackend(url, retries=0) as backend:
            for sentence in ("Recommend CT.", "Suggest MRI.", "Advise CT."):
                assert backend.rewrite(RULES[3], sentence) == sentence
        assert posts == ["Recommend CT.", "Suggest MRI.", "Advise CT."]
        assert http_endpoint.servers[-1].opened == 3

    def test_threads_never_share_a_connection(self, http_endpoint):
        # 8 threads on fewer cores, switching every microsecond: a
        # connection handed to two threads at once would cross answers.
        url = http_endpoint(lambda body, handler: (200, {"echo": body["n"]}),
                            keep_alive=True)
        server = http_endpoint.servers[-1]
        wrong = []

        def ask(client, first):
            for n in range(first, first + 25):
                try:
                    got = client.post({"n": str(n)}, "echo", noun="echo")
                except BackendError as exc:
                    got = exc
                if got != str(n):
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RemoteEndpoint(url, "test") as client:
                threads = [threading.Thread(target=ask, args=(client, i * 25))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert 1 <= server.opened <= 8
        assert server.open_after() == 0

    def test_malformed_endpoint_or_proxy_is_refused_at_once(self,
                                                           monkeypatch):
        for url in ("notaurl", "ftp://127.0.0.1/", "http://",
                    "http://127.0.0.1:99999/"):
            with pytest.raises(InputError, match="cleaning endpoint"):
                RemoteRewriteBackend(url)
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:99999")
        with pytest.raises(InputError, match="HTTP_PROXY"):
            RemoteRewriteBackend("http://127.0.0.1:9/")

    def test_clean_sentence_with_remote_backend(self, http_endpoint, lexicon):
        def respond(body, handler):
            if body["rule_id"] == 3 and "recommend" in body["sentence"].lower():
                return 200, {"rewritten": REMOVED}
            return 200, {"rewritten": body["sentence"]}

        url = http_endpoint(respond)
        backend = RemoteRewriteBackend(url)
        assert clean_sentence("Recommend clinical correlation.", backend,
                              lexicon=lexicon) == REMOVED
        assert clean_sentence("No pneumonia, recommend follow up.", backend,
                              lexicon=lexicon) == \
            "No pneumonia, recommend follow up."
