import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import naive_stem_match
from synth import label_vector

from radpragma.cleaning import DEFAULT_RULES
from radpragma.corpus_io import (read_labels_csv, read_reports_jsonl,
                                 write_labels_csv, write_reports_jsonl)
from radpragma.errors import InputError
from radpragma.metrics import default_catalog
from radpragma.model import (CONDITIONS, BoundedMemo, Condition, LabelValue,
                             LabelVector, Report, normalize_text,
                             segment_sentences, stem_pattern, tokenize)


class TestNormalizeText:
    def test_collapses_whitespace(self):
        assert normalize_text("No  acute process. ") == "No acute process."

    def test_canonicalizes_deid_underscores(self):
        assert normalize_text("Compared to ____:") == "Compared to ___:"
        assert normalize_text("Compared to _________:") == "Compared to ___:"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_preserves_case_and_punctuation(self):
        assert normalize_text("PA and  Lateral;\tviews?") == \
            "PA and Lateral; views?"

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=200))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


class TestSegmentSentences:
    def test_canonical_split(self):
        sentences = segment_sentences(
            "There is no pneumonia. The heart size is normal.")
        assert [s.text for s in sentences] == [
            "There is no pneumonia.", "The heart size is normal."]
        assert [s.index for s in sentences] == [0, 1]

    def test_abbreviations_do_not_split(self):
        sentences = segment_sentences(
            "Communicated to Dr. ___ at 4:00 p.m. by phone.")
        assert len(sentences) == 1

    def test_abbreviation_before_uppercase(self):
        sentences = segment_sentences("Seen at 4:00 p.m. Today is fine.")
        assert len(sentences) == 1

    def test_no_terminal_punctuation(self):
        sentences = segment_sentences("No edema")
        assert [s.text for s in sentences] == ["No edema"]

    def test_single_initial_is_not_a_boundary(self):
        sentences = segment_sentences("Read by John Q. Public. No edema.")
        assert [s.text for s in sentences] == [
            "Read by John Q. Public.", "No edema."]

    def test_digit_starts_a_sentence(self):
        sentences = segment_sentences("Effusion is small. 2 views obtained.")
        assert len(sentences) == 2

    def test_lowercase_continuation_is_not_split(self):
        sentences = segment_sentences("No change vs. prior exam.")
        assert len(sentences) == 1

    def test_empty_text(self):
        assert segment_sentences("") == []
        assert segment_sentences("   ") == []

    @pytest.mark.parametrize("text", [
        "There is no pneumonia. The heart size is normal. No edema!",
        "Compared to ___: No effusion. Dr. ___ was paged. 3 views.",
        "One sentence only",
        "A? B! C. d stays put. E.g. here.",
    ])
    def test_partition_round_trip(self, text):
        normalized = normalize_text(text)
        sentences = segment_sentences(text)
        assert all(s.text for s in sentences)
        assert [s.index for s in sentences] == list(range(len(sentences)))
        assert " ".join(s.text for s in sentences) == normalized

    @given(st.lists(st.sampled_from(
        ["No edema.", "There is pneumonia.", "Heart size is normal!",
         "Is there any change?", "2 views were obtained."]),
        min_size=0, max_size=8))
    def test_partition_round_trip_generated(self, parts):
        text = " ".join(parts)
        sentences = segment_sentences(text)
        assert " ".join(s.text for s in sentences) == normalize_text(text)


class TestConditions:
    def test_fourteen_in_fixed_order(self):
        assert len(CONDITIONS) == 14
        assert CONDITIONS[0] is Condition.ATELECTASIS
        assert CONDITIONS[-1] is Condition.NO_FINDING
        assert Condition.from_name("Enlarged Cardiomediastinum") is \
            Condition.ENLARGED_CARDIOMEDIASTINUM

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown condition"):
            Condition.from_name("Emphysema")


class TestLabelValues:
    @pytest.mark.parametrize("value,cell", [
        (LabelValue.POSITIVE, "1.0"), (LabelValue.NEGATIVE, "0.0"),
        (LabelValue.UNCERTAIN, "-1.0"), (LabelValue.NOT_MENTIONED, ""),
    ])
    def test_csv_round_trip(self, value, cell):
        assert value.to_csv() == cell
        assert LabelValue.from_csv(cell) is value

    def test_bad_cell(self):
        with pytest.raises(ValueError, match="invalid label cell"):
            LabelValue.from_csv("2.0")

    def test_no_finding_constraint(self):
        with pytest.raises(ValueError, match="No Finding"):
            label_vector(
                {Condition.NO_FINDING: LabelValue.NEGATIVE})

    def test_vector_accessors(self):
        vector = label_vector({
            Condition.PNEUMONIA: LabelValue.NEGATIVE,
            Condition.EDEMA: LabelValue.POSITIVE})
        assert vector.get(Condition.PNEUMONIA) is LabelValue.NEGATIVE
        assert vector.positives() == frozenset({Condition.EDEMA})
        assert vector.mentions() == frozenset(
            {Condition.EDEMA, Condition.PNEUMONIA})


def _in_thread(target, *args):
    """A started thread running ``target(*args)``; ``outcome`` holds its
    return value, or the exception it raised, once it ends."""
    def run():
        try:
            thread.outcome = target(*args)
        except Exception as exc:
            thread.outcome = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestBoundedMemo:
    def test_computes_once_per_key_and_clears_when_full(self):
        memo, calls = BoundedMemo(2), []

        def compute(key):
            calls.append(key)
            return key.upper()

        got = [memo.get(key, compute, key) for key in "abac"]
        assert got == ["A", "B", "A", "C"]
        assert calls == ["a", "b", "c"]
        assert memo.stored == {"c": "C"}  # "c" found the memo full
        assert memo.counts() == {"hits": 1, "misses": 3}

    def test_stores_nothing_when_compute_raises(self):
        memo = BoundedMemo(None)

        def fail():
            raise KeyError("down")

        with pytest.raises(KeyError):
            memo.get("k", fail)
        assert memo.stored == {}
        assert memo.get("k", str, 7) == "7"
        assert memo.counts() == {"hits": 0, "misses": 2}

    def test_threads_compute_each_key_once(self):
        memo, computed = BoundedMemo(None), []

        def compute(key):
            computed.append(key)
            time.sleep(0.001)  # let other threads ask for the same key
            return -key

        def work(worker):
            for round_ in range(20):
                for key in range(50):
                    key = (key + worker * 7 + round_) % 50
                    assert memo.get(key, compute, key) == -key

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [_in_thread(work, worker) for worker in range(8)]
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [thread.outcome for thread in threads] == [None] * 8
        assert sorted(computed) == list(range(50))
        assert memo.counts() == {"hits": 8 * 20 * 50 - 50, "misses": 50}

    def test_a_waiting_caller_gets_the_running_result(self):
        memo, calls = BoundedMemo(None), []
        release = threading.Event()

        def slow(name):
            calls.append(name)
            release.wait(10)
            return f"from {name}"

        first = _in_thread(memo.get, "k", slow, "A")
        time.sleep(0.1)
        second = _in_thread(memo.get, "k", slow, "B")
        time.sleep(0.1)
        assert calls == ["A"]  # B waits rather than computes
        release.set()
        for thread in (first, second):
            thread.join(10)
        assert (first.outcome, second.outcome) == ("from A", "from A")
        assert calls == ["A"]
        assert memo.counts() == {"hits": 1, "misses": 1}

    def test_a_waiting_caller_computes_itself_when_the_running_one_raises(
            self):
        memo, calls = BoundedMemo(None), []
        release = threading.Event()

        def failing():
            calls.append("A")
            release.wait(10)
            raise RuntimeError("A failed")

        def succeeding():
            calls.append("B")
            return "from B"

        first = _in_thread(memo.get, "k", failing)
        time.sleep(0.1)
        second = _in_thread(memo.get, "k", succeeding)
        time.sleep(0.1)
        assert calls == ["A"]  # B waits for A
        assert memo.stored == {}
        release.set()
        for thread in (first, second):
            thread.join(10)
        assert str(first.outcome) == "A failed"
        assert second.outcome == "from B"
        assert calls == ["A", "B"]
        assert memo.stored == {"k": "from B"}
        assert memo.counts() == {"hits": 0, "misses": 2}
        assert memo.get("k", succeeding) == "from B"
        assert memo.counts() == {"hits": 1, "misses": 2}


class TestReportJsonl:
    def test_round_trip(self, tmp_path):
        reports = [
            Report(study_id="s1", impression="No acute process.",
                   indication="cough"),
            Report(study_id="s2", impression="Edema.", indication="",
                   findings="Vascular congestion."),
            Report(study_id="s3", impression="ünïcode pneumonia."),
        ]
        path = tmp_path / "corpus.jsonl"
        write_reports_jsonl(reports, str(path))
        assert read_reports_jsonl(str(path)) == reports

    def test_direct_mapping(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"study_id":"s1","indication":"cough",'
                        '"impression":"No acute process."}\n')
        (report,) = read_reports_jsonl(str(path))
        assert report == Report(study_id="s1", indication="cough",
                                impression="No acute process.")

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"study_id":"s1","impression":"ok"}\n{oops\n')
        with pytest.raises(InputError, match=r"bad\.jsonl:2"):
            read_reports_jsonl(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"study_id":"s1"}\n')
        with pytest.raises(InputError, match="impression"):
            read_reports_jsonl(str(path))

    def test_duplicate_study_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"study_id":"s1","impression":"x"}\n'
        path.write_text(line + line)
        with pytest.raises(InputError, match="duplicate study_id"):
            read_reports_jsonl(str(path))

    def test_deeply_nested_value_names_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"study_id":"s1","impression":"ok"}\n'
                        '{"study_id":"s2","impression":'
                        + "[" * 100000 + "]" * 100000 + "}\n")
        with pytest.raises(InputError,
                           match=r"deep\.jsonl:2: invalid JSON: nested"):
            read_reports_jsonl(str(path))

    @pytest.mark.parametrize("field", ["study_id", "impression",
                                       "indication"])
    def test_lone_surrogate_names_field(self, tmp_path, field):
        # UTF-8 cannot encode a lone surrogate, so writing it would fail.
        obj = {"study_id": "s1", "impression": "No edema.",
               "indication": "Cough."}
        obj[field] += "\ud800"
        path = tmp_path / "sur.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(InputError,
                           match=rf"sur\.jsonl:1: field '{field}' "):
            read_reports_jsonl(str(path))


def _vector(**kwargs):
    return label_vector(
        {Condition.from_name(k.replace("_", " ")): v
         for k, v in kwargs.items()})


class TestLabelCsv:
    def test_round_trip(self, tmp_path):
        labels = {
            "s1": _vector(Pneumonia=LabelValue.NEGATIVE,
                          Edema=LabelValue.POSITIVE),
            "s2": _vector(Pneumothorax=LabelValue.UNCERTAIN),
            "s3": LabelVector.all_not_mentioned(),
        }
        path = tmp_path / "labels.csv"
        write_labels_csv(labels, str(path))
        assert read_labels_csv(str(path)) == labels
        header = path.read_text().splitlines()[0]
        assert header == "study_id," + ",".join(c.value for c in CONDITIONS)

    def test_missing_condition_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        names = [c.value for c in CONDITIONS][:-1]  # 13 label columns
        path.write_text("study_id," + ",".join(names) + "\n")
        with pytest.raises(InputError, match="missing condition column"):
            read_labels_csv(str(path))

    def test_unknown_condition_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        names = [c.value for c in CONDITIONS] + ["Emphysema"]
        path.write_text("study_id," + ",".join(names) + "\n")
        with pytest.raises(InputError, match="unknown condition column"):
            read_labels_csv(str(path))

    def test_out_of_order_columns(self, tmp_path):
        path = tmp_path / "labels.csv"
        names = [c.value for c in reversed(CONDITIONS)]
        path.write_text("study_id," + ",".join(names) + "\n")
        with pytest.raises(InputError, match="canonical order"):
            read_labels_csv(str(path))

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        row = ["s1"] + [""] * 14
        row[1] = "7.5"
        path.write_text(
            "study_id," + ",".join(c.value for c in CONDITIONS) + "\n"
            + ",".join(row) + "\n")
        with pytest.raises(InputError, match=r"labels\.csv:2.*Atelectasis"):
            read_labels_csv(str(path))

    def test_no_finding_invariant_enforced(self, tmp_path):
        path = tmp_path / "labels.csv"
        row = ["s1"] + [""] * 14
        row[-1] = "0.0"  # No Finding cannot be negative
        path.write_text(
            "study_id," + ",".join(c.value for c in CONDITIONS) + "\n"
            + ",".join(row) + "\n")
        with pytest.raises(InputError, match="No Finding"):
            read_labels_csv(str(path))


def _hit(text, *stems):
    return stem_pattern(stems).search(text.lower()) is not None


# Text pieces around the shipped stems: the stems themselves, longer and
# shorter words, capitals, digits, punctuation, de-id underscores, and
# characters whose lowercase differs in kind (U+212A KELVIN SIGN lowers to
# ASCII "k"; "İ" lowers to two characters).
_PIECES = (" ", " ", ".", ",", "-", "/", "(", "___", "_", "1", "2", "a", "p",
           "e", "w", "n", "K", "\u212a", "\u0130", "\u00e9", "\u00df", "Ap",
           "AP", "pa", "new", "News", "newly", "stat", "status", "view",
           "compar", "COMPARED", "k1", "x-ray", "persist", "improv")
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)
_STEMS = st.lists(
    st.text(alphabet="apnewk12", min_size=1, max_size=6)
    | st.sampled_from(["", "x-ray", "AP", " ap", "\u212a", "ap1"]),
    max_size=5)


class TestStemMatching:
    def test_short_stems_exact(self):
        assert _hit("AP film.", "ap")
        assert not _hit("Apical scarring.", "ap")
        assert not _hit("Newly placed line.", "new")
        assert _hit("x/ap_", "ap")

    def test_long_stems_prefix(self):
        assert _hit("Comparison made.", "compar")
        assert _hit("status post", "status")
        assert not _hit("stat", "status")
        assert not _hit("incomparable", "compar")

    def test_no_valid_stem_never_matches(self):
        for stems in ((), ("",), ("x-ray",), ("AP",)):
            assert not _hit("x-ray AP ap", *stems)

    @settings(max_examples=500, deadline=None)
    @given(_TEXTS, _STEMS)
    def test_matches_token_loop(self, text, stems):
        assert _hit(text, *stems) == naive_stem_match(text, stems)

    @settings(max_examples=500, deadline=None)
    @given(_TEXTS)
    def test_shipped_stems_match_token_loop(self, text):
        for rule in DEFAULT_RULES:
            assert rule.triggered_by(text) == \
                naive_stem_match(text, rule.trigger_cues)
        catalog = default_catalog()
        assert catalog.flags(text) == {
            name for name, stems in catalog.categories
            if naive_stem_match(text, stems)}

    def test_tokenize(self):
        assert tokenize("Compared to ___, 2 views (AP/PA).") == \
            ["compared", "to", "2", "views", "ap", "pa"]
