import json
import os
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeler_oracle import OracleLabeler
from labeler_oracle import aggregate_labels as oracle_aggregate
from synth import shipped_lexicon_json
from radpragma import labeler
from radpragma.cli import main
from radpragma.corpus_io import read_reports_jsonl
from radpragma.errors import InputError
from radpragma.labeler import (Lexicon, aggregate_labels, default_lexicon,
                               indication_mention_sets, indication_mentions,
                               label_report, label_sentence)
from radpragma.model import (CONDITIONS, Condition, LabelValue, LabelVector,
                             segment_sentences)

POS = LabelValue.POSITIVE
NEG = LabelValue.NEGATIVE
UNC = LabelValue.UNCERTAIN
NM = LabelValue.NOT_MENTIONED

CORPUS = os.path.join(os.path.dirname(__file__), "fixtures", "corpus.jsonl")


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


def mentioned(vector):
    return {c: v for c, v in vector.as_mapping().items() if v is not NM}


class TestLabelSentence:
    def test_simple_negation(self, lexicon):
        vector = label_sentence("there is no pneumonia", lexicon)
        assert mentioned(vector) == {Condition.PNEUMONIA: NEG}

    def test_simple_positive(self, lexicon):
        vector = label_sentence("Large right pneumothorax", lexicon)
        assert mentioned(vector) == {Condition.PNEUMOTHORAX: POS}

    def test_uncertainty_cue(self, lexicon):
        vector = label_sentence(
            "concern for pneumonia at the left lung base", lexicon)
        assert mentioned(vector) == {Condition.PNEUMONIA: UNC}

    def test_uncertainty_outranks_negation(self, lexicon):
        vector = label_sentence("possibly no pneumonia", lexicon)
        assert vector.get(Condition.PNEUMONIA) is UNC

    def test_question_mark_cue(self, lexicon):
        vector = label_sentence("?pneumothorax", lexicon)
        assert vector.get(Condition.PNEUMOTHORAX) is UNC

    def test_negation_beyond_window_does_not_flip(self, lexicon):
        # six tokens between the cue and the phrase, window is six
        text = "no one two three four five six pneumonia"
        vector = label_sentence(text, lexicon)
        assert vector.get(Condition.PNEUMONIA) is POS

    def test_negation_at_window_edge_flips(self, lexicon):
        text = "no one two three four five pneumonia"
        vector = label_sentence(text, lexicon)
        assert vector.get(Condition.PNEUMONIA) is NEG

    def test_cue_after_phrase_never_flips(self, lexicon):
        vector = label_sentence("pneumonia, but no effusion", lexicon)
        assert vector.get(Condition.PNEUMONIA) is POS
        assert vector.get(Condition.PLEURAL_EFFUSION) is NEG

    def test_no_finding_phrase(self, lexicon):
        vector = label_sentence("No acute cardiopulmonary process.", lexicon)
        assert vector.get(Condition.NO_FINDING) is POS

    def test_no_finding_ignores_cues(self, lexicon):
        # the leading "no" is part of the phrase, not a negation of it
        vector = label_sentence("no acute process", lexicon)
        assert vector.get(Condition.NO_FINDING) is POS

    def test_empty(self, lexicon):
        assert label_sentence("", lexicon) == LabelVector.all_not_mentioned()

    def test_multiword_cue(self, lexicon):
        vector = label_sentence("cannot exclude consolidation", lexicon)
        assert vector.get(Condition.CONSOLIDATION) is UNC

    def test_resolved_counts_as_negation(self, lexicon):
        vector = label_sentence("Resolved opacities in the left mid lung.",
                                lexicon)
        assert vector.get(Condition.LUNG_OPACITY) is NEG


class TestLabelReport:
    def test_two_sentences(self, lexicon):
        vector = label_report(
            "No pneumonia. Small right pleural effusion.", lexicon)
        assert mentioned(vector) == {Condition.PNEUMONIA: NEG,
                                     Condition.PLEURAL_EFFUSION: POS}

    def test_empty(self, lexicon):
        assert label_report("", lexicon) == LabelVector.all_not_mentioned()

    def test_no_finding_positive(self, lexicon):
        vector = label_report("No acute cardiopulmonary process.", lexicon)
        assert mentioned(vector) == {Condition.NO_FINDING: POS}

    def test_no_finding_blocked_by_positive(self, lexicon):
        vector = label_report(
            "No acute cardiopulmonary process. Small pleural effusion.",
            lexicon)
        assert vector.get(Condition.NO_FINDING) is NM
        assert vector.get(Condition.PLEURAL_EFFUSION) is POS

    def test_no_finding_survives_other_negatives(self, lexicon):
        vector = label_report(
            "No pneumonia. No acute cardiopulmonary process.", lexicon)
        assert vector.get(Condition.NO_FINDING) is POS
        assert vector.get(Condition.PNEUMONIA) is NEG

    def test_positive_beats_uncertain_beats_negative(self, lexicon):
        assert label_report("Possible pneumonia. No pneumonia.", lexicon) \
            .get(Condition.PNEUMONIA) is UNC
        assert label_report(
            "Possible pneumonia. No pneumonia. There is pneumonia.",
            lexicon).get(Condition.PNEUMONIA) is POS

    def test_determinism(self, lexicon):
        text = "Possible pneumonia. No edema. Large pneumothorax."
        assert label_report(text, lexicon) == label_report(text, lexicon)

    def test_monotone_locality(self, lexicon):
        bank = ["No pneumonia.", "There is pneumonia.", "Possible edema.",
                "No acute cardiopulmonary process.", "Large pneumothorax.",
                "No edema.", "Lungs are clear."]
        rng = random.Random(7)
        precedence = {NM: 0, NEG: 1, UNC: 2, POS: 3}
        for _ in range(50):
            part_a = " ".join(rng.choices(bank, k=rng.randrange(0, 4)))
            part_b = " ".join(rng.choices(bank, k=rng.randrange(0, 4)))
            joined = label_report((part_a + " " + part_b).strip(), lexicon)
            la, lb = label_report(part_a, lexicon), label_report(part_b, lexicon)
            for condition in CONDITIONS:
                if condition.is_no_finding:
                    continue
                expected = max(la.get(condition), lb.get(condition),
                               key=precedence.get)
                assert joined.get(condition) is expected


class TestIndicationMentions:
    def test_paper_style_indication(self, lexicon):
        mentions = indication_mentions(
            "An ___-year-old woman with previous aspiration pneumonia and a "
            "history of congestive heart failure (CHF).", lexicon)
        assert mentions == frozenset(
            {Condition.PNEUMONIA, Condition.CARDIOMEGALY})

    def test_empty(self, lexicon):
        assert indication_mentions("", lexicon) == frozenset()

    def test_single_phrase(self, lexicon):
        assert indication_mentions("evaluate for pneumothorax", lexicon) == \
            frozenset({Condition.PNEUMOTHORAX})

    def test_negative_mention_still_counts(self, lexicon):
        assert indication_mentions("no pneumothorax on prior", lexicon) == \
            frozenset({Condition.PNEUMOTHORAX})

    def test_no_finding_excluded(self, lexicon):
        assert indication_mentions("no acute process", lexicon) == frozenset()


class TestAggregation:
    def test_no_finding_needs_phrase_match(self, lexicon):
        vectors = [label_sentence("No pneumonia.", lexicon)]
        assert aggregate_labels(vectors).get(Condition.NO_FINDING) is NM


class TestLexicon:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(shipped_lexicon_json()), encoding="utf-8")
        assert Lexicon.load(str(path)) == default_lexicon()

    def test_every_condition_has_phrases(self, lexicon):
        phrases = dict(lexicon.phrases)
        assert set(phrases) == set(CONDITIONS)
        assert all(phrases[c] for c in CONDITIONS)

    def test_validation_rejects_window_zero(self, lexicon):
        with pytest.raises(InputError, match="scope window"):
            Lexicon(version="x", scope_window=0,
                    negation_cues=("no",), uncertainty_cues=("possible",),
                    phrases=lexicon.phrases)

    def test_validation_rejects_uppercase_phrase(self, lexicon):
        phrases = dict(lexicon.phrases)
        phrases[Condition.PNEUMONIA] = ("Pneumonia",)
        with pytest.raises(InputError, match="lowercase"):
            Lexicon(version="x", scope_window=6, negation_cues=("no",),
                    uncertainty_cues=("possible",),
                    phrases=tuple(phrases.items()))

    def test_validation_rejects_missing_condition(self, lexicon):
        phrases = tuple((c, p) for c, p in lexicon.phrases
                        if c is not Condition.EDEMA)
        with pytest.raises(InputError, match="Edema"):
            Lexicon(version="x", scope_window=6, negation_cues=("no",),
                    uncertainty_cues=("possible",), phrases=phrases)

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(negation_cues=["No", "not"]), "negation_cues"),
        (lambda d: d.update(uncertainty_cues=["possible", ""]),
         "uncertainty_cues"),
        (lambda d: d["conditions"]["Edema"].append(""), "Edema"),
        (lambda d: d.update(negation_cues="no"), "negation_cues"),
        (lambda d: d["conditions"].update(Edema="edema"), "Edema"),
        (lambda d: d.update(scope_window=True), "scope_window"),
        (lambda d: d.update(scope_window=6.5), "scope_window"),
        (lambda d: d.update(conditions=["Edema"]), "conditions"),
        (lambda d: d.update(conditions="Edema"), "conditions"),
    ])
    def test_from_dict_rejects_entries_that_cannot_work(self, edit, field):
        # A capitalised cue never fires on the lowercased text, an empty
        # entry matches everywhere, a string is not a list of entries, a
        # list or string is not an object of conditions, and True is not a
        # window size.
        obj = shipped_lexicon_json()
        edit(obj)
        with pytest.raises(InputError, match=field):
            Lexicon.from_dict(obj)

    @pytest.mark.parametrize("version", [[1], 1, None])
    def test_from_dict_refuses_a_version_that_is_not_a_string(self,
                                                              version):
        # It was read through str(), so [1] became '[1]'.
        obj = shipped_lexicon_json() | {"version": version}
        with pytest.raises(InputError,
                           match="lexicon version must be a string"):
            Lexicon.from_dict(obj)

    def test_building_compiles_no_regex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("re.compile called")

        monkeypatch.setattr(re, "compile", refuse)
        lexicon = Lexicon.from_dict(shipped_lexicon_json())
        monkeypatch.undo()
        assert mentioned(label_sentence("No pneumonia, ?edema", lexicon)) \
            == {Condition.PNEUMONIA: NEG, Condition.EDEMA: UNC}

    def test_cli_rejects_capitalised_cue(self, tmp_path, capsys):
        obj = shipped_lexicon_json()
        obj["negation_cues"] = [cue.capitalize()
                                for cue in obj["negation_cues"]]
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "labels.csv"
        code = main(["label", "--in", CORPUS, "--lexicon", str(path),
                     "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(path) in lines[0] and "negation_cues" in lines[0]
        assert not out.exists()


def _corpus_sentences():
    """The fixture corpus's impression and indication sentences, with
    repeats, in reading order."""
    return [s.text for r in read_reports_jsonl(CORPUS)
            for text in (r.impression, r.indication)
            for s in segment_sentences(text)]


class TestSentenceMemo:
    """Each Lexicon keeps a bounded memo of the sentences it labeled."""

    def test_labels_survive_clearing_and_memo_stays_bounded(
            self, monkeypatch):
        sentences = _corpus_sentences()
        expected = [label_sentence(s, Lexicon.from_dict(
            shipped_lexicon_json())) for s in sentences]
        monkeypatch.setattr(labeler, "_MEMO_CAP", 3)
        lexicon = Lexicon.from_dict(shipped_lexicon_json())
        for _ in range(2):
            for sentence, vector in zip(sentences, expected):
                assert label_sentence(sentence, lexicon) == vector
                assert len(lexicon._labels.stored) <= 3
        counts = lexicon.memo_counts()
        assert counts["hits"] + counts["misses"] == 2 * len(sentences)
        assert counts["misses"] > len(set(sentences))

    def test_equal_vectors_are_one_object(self):
        lexicon = Lexicon.from_dict(shipped_lexicon_json())
        first = label_sentence("No pneumothorax.", lexicon)
        assert label_sentence("There is no pneumothorax.", lexicon) is first
        assert label_sentence("No pneumothorax.", lexicon) is first

    def test_memo_leaves_equality_and_hash_alone(self):
        used = Lexicon.from_dict(shipped_lexicon_json())
        unused = Lexicon.from_dict(shipped_lexicon_json())
        label_report("No pneumothorax. Small effusion.", used)
        assert used.memo_counts()["misses"] == 2
        assert used == unused and hash(used) == hash(unused)

    def test_threads_sharing_a_lexicon_get_single_thread_labels(
            self, monkeypatch):
        sentences = _corpus_sentences()
        expected = [label_sentence(s, Lexicon.from_dict(
            shipped_lexicon_json())) for s in sentences]
        # A cap below the distinct sentence count, so that threads clear
        # the memo while others read and fill it.
        monkeypatch.setattr(labeler, "_MEMO_CAP", 7)
        lexicon = Lexicon.from_dict(shipped_lexicon_json())
        results = {}

        def work(worker):
            got = []
            for round_ in range(20):
                shift = (worker * 5 + round_) % len(sentences)
                order = list(range(shift, len(sentences))) + list(
                    range(shift))
                got.append({i: label_sentence(sentences[i], lexicon)
                            for i in order})
            results[worker] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(worker,))
                       for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for rounds in results.values():
            for got in rounds:
                assert [got[i] for i in range(len(sentences))] == expected
        assert len(lexicon._labels.stored) <= 7
        counts = lexicon.memo_counts()
        assert counts["hits"] + counts["misses"] == 4 * 20 * len(sentences)


    def test_each_distinct_indication_is_segmented_once(self, monkeypatch):
        reports = read_reports_jsonl(CORPUS)
        reports += [r._replace(study_id=r.study_id + "-again")
                    for r in reports]
        # A separate lexicon, whose memo would otherwise answer every call.
        fresh = Lexicon.from_dict(shipped_lexicon_json())
        expected = {r.study_id: indication_mentions(r.indication, fresh)
                    for r in reports}
        lexicon = Lexicon.from_dict(shipped_lexicon_json())
        segmented = []

        def counting(text):
            segmented.append(text)
            return segment_sentences(text)

        monkeypatch.setattr(labeler, "segment_sentences", counting)
        assert indication_mention_sets(reports, lexicon) == expected
        assert sorted(segmented) == sorted({r.indication for r in reports})

def _variant(window, negation=None, uncertainty=None, phrases=None):
    obj = shipped_lexicon_json()
    obj["scope_window"] = window
    if negation is not None:
        obj["negation_cues"] = negation
    if uncertainty is not None:
        obj["uncertainty_cues"] = uncertainty
    for name, extra in (phrases or {}).items():
        obj["conditions"][name] += extra
    return Lexicon.from_dict(obj)


def _lexicons():
    base = default_lexicon()
    # Cues that overlap another cue of their polarity, few enough that
    # random sentences often hit the overlaps; "no -" and "- free" share
    # no word but overlap on "-".
    negation = ["no -", "- free", "no", "no evidence of", "rule out",
                "out of", "of no"]
    uncertainty = ["?", "??", "may", "may be", "be"]
    return [
        base,
        _variant(1),
        _variant(1, negation, uncertainty),
        _variant(2, negation, uncertainty),
        # Phrases that overlap a phrase of another condition.
        _variant(3, phrases={"Lung Opacity": ["pulmonary"],
                             "Atelectasis": ["edema atelectasis"],
                             "Pneumonia": ["process"]}),
        # Phrases led by punctuation or made of it ("+" inside "(+)"), one
        # of them also right after a word character ("x1- thickening") or
        # after a cue inside a longer phrase of its condition ("no +"); a
        # phrase whose first token starts a longer phrase of another
        # condition; "no" as a cue of both polarities.
        _variant(2, negation=["no", "not", "- free"],
                 uncertainty=["?", "no", "may"],
                 phrases={"Pleural Other": ["- thickening", "(+)", "+",
                                            "no +"],
                          "Fracture": ["x1", "x1- thickening"],
                          "Lung Lesion": ["x1 edema"]}),
    ]


LEXICONS = _lexicons()
_ORACLES = [OracleLabeler(lexicon) for lexicon in LEXICONS]
_PHRASES = ["edema", "pneumonia", "effusion", "opacity", "atelectasis",
            "consolidative opacity", "pulmonary edema", "pulmonary",
            "edema atelectasis", "process", "infectious process",
            "no acute process", "pneumothorax", "chf", "- thickening",
            "(+)", "+", "no +", "x1", "x1- thickening", "x1 edema"]
_FILLERS = ["the", "left", "is", "and", "evidence", "out", "rule", "of",
            "x1", "2", "___", "-", "?", ","]
_SEPARATORS = [None, None, None, " ", " ", "  ", "", "\t", "?", ", ",
               ". ", "-", "/"]


@st.composite
def _sentence(draw, cues):
    """Cues, phrases and fillers joined by separators. Separator None lets
    the next entry share its first word with the end of the text, so that
    matches overlap ("rule out" then "out of" gives "rule out of")."""
    vocabulary = sorted(set(cues + _PHRASES + _FILLERS))
    entries = st.one_of(st.sampled_from(cues), st.sampled_from(cues),
                        st.sampled_from(_PHRASES), st.sampled_from(_FILLERS))
    text = ""
    for _ in range(draw(st.integers(0, 10))):
        sep = draw(st.sampled_from(_SEPARATORS))
        last = text.rpartition(" ")[2].lower()
        following = [e for e in vocabulary
                     if e.startswith(last + " ")] if last else []
        if sep is None and following:
            text += draw(st.sampled_from(following))[len(last):]
            continue
        entry = draw(entries)
        if draw(st.booleans()):
            entry = entry.capitalize()
        text += (" " if sep is None else sep) + entry
    return text


def _sentences(lexicon):
    cues = sorted(set(lexicon.negation_cues + lexicon.uncertainty_cues))
    return st.lists(_sentence(cues), min_size=1, max_size=4)


def _as_strings(vector):
    return tuple(value.value for value in vector.values)


class TestAgainstOracle:
    """The token index labels exactly as one regex per cue and per
    condition did."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.integers(0, len(LEXICONS) - 1))
    def test_labels_match_oracle(self, data, which):
        lexicon, oracle = LEXICONS[which], _ORACLES[which]
        sentences = data.draw(_sentences(lexicon))
        vectors = []
        expected = []
        for sentence in sentences:
            vectors.append(label_sentence(sentence, lexicon))
            expected.append(oracle.label_sentence(sentence))
            assert _as_strings(vectors[-1]) == expected[-1], sentence
        assert _as_strings(aggregate_labels(vectors)) == \
            oracle_aggregate(expected)

    def test_fixture_sentences_match_oracle(self, lexicon):
        oracle = OracleLabeler(lexicon)
        for report in read_reports_jsonl(CORPUS):
            for text in (report.impression, report.indication):
                for sentence in segment_sentences(text):
                    assert _as_strings(label_sentence(sentence.text,
                                                      lexicon)) \
                        == oracle.label_sentence(sentence.text)

    @pytest.mark.parametrize("which", range(len(LEXICONS)))
    def test_every_entry_and_overlapping_pair_matches_oracle(self, which):
        # Each cue or phrase, and each way the end of one can be the start
        # of another, followed by a phrase at distances around the window.
        lexicon, oracle = LEXICONS[which], _ORACLES[which]
        entries = sorted(set(lexicon.negation_cues + lexicon.uncertainty_cues
                             + tuple(_PHRASES)))
        joined = entries + [a + b[size:] for a in entries for b in entries
                            for size in range(1, min(len(a), len(b)))
                            if a.endswith(b[:size])]
        for text in joined:
            for tail in (" edema", "edema", " x edema", " x y pneumonia"):
                sentence = "the " + text + tail
                assert _as_strings(label_sentence(sentence, lexicon)) == \
                    oracle.label_sentence(sentence), sentence

    def test_overlapping_cues_keep_every_match(self):
        # One scan over "rule out|out of" finds "rule out" and skips the
        # "out of" that ends right before the phrase.
        overlapping = _variant(1, negation=["rule out", "out of"])
        vector = label_sentence("rule out of edema", overlapping)
        assert vector.get(Condition.EDEMA) is NEG

    def test_overlapping_phrases_label_both_conditions(self, lexicon):
        vector = label_sentence("consolidative opacity", lexicon)
        assert mentioned(vector) == {Condition.CONSOLIDATION: POS,
                                     Condition.LUNG_OPACITY: POS}
