import json
import os

import pytest

from synth import shipped_lexicon_json
from radpragma import labeler
from radpragma.backends import RemoteEndpoint
from radpragma.cli import main
from radpragma.corpus_io import read_reports_jsonl, write_reports_jsonl
from radpragma.errors import BackendError, InputError
from radpragma.generator import (GenerationRequest, RetrievalIndex,
                                 build_generation_prompt, build_index,
                                 generate_remote, generate_retrieval,
                                 render_positive_labels)
from radpragma.labeler import default_lexicon, label_report
from radpragma.model import Condition, Report, segment_sentences

PE = Condition.PLEURAL_EFFUSION
ED = Condition.EDEMA
PN = Condition.PNEUMONIA


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


def small_corpus():
    return [
        Report(study_id="r1", impression="There is a pleural effusion."),
        Report(study_id="r2",
               impression="There is a pleural effusion. No pneumonia."),
        Report(study_id="r3",
               impression="There is edema. There is a pleural effusion."),
    ]


@pytest.fixture(scope="module")
def index(lexicon):
    return build_index(small_corpus(), lexicon)


def request(study_id="q1", indication="", positives=frozenset()):
    return GenerationRequest(study_id=study_id, indication=indication,
                             predicted_positives=frozenset(positives))


class TestBuildIndex:
    def test_label_set_keys(self, index):
        assert set(index.by_label_set) == {frozenset({PE}),
                                           frozenset({ED, PE})}
        # two reports share {PE}; shortest impression first
        assert index.by_label_set[frozenset({PE})] == ("r1", "r2")

    def test_negative_pool_membership(self, index):
        (pooled,) = index.negative_pool[PN]
        assert pooled.text == "No pneumonia."
        assert pooled.study_id == "r2"

    def test_pool_requires_exactly_one_negative_mention(self, lexicon):
        corpus = [Report(study_id="x",
                         impression="No pneumonia or pleural effusion.")]
        built = build_index(corpus, lexicon)
        assert built.negative_pool[PN] == ()
        assert built.negative_pool[PE] == ()

    def test_empty_corpus_rejected(self, lexicon):
        with pytest.raises(InputError, match="empty"):
            build_index([], lexicon)

    def test_no_negative_sentences_warns_but_builds(self, lexicon, caplog):
        corpus = [Report(study_id="x", impression="There is edema.")]
        with caplog.at_level("WARNING"):
            built = build_index(corpus, lexicon)
        assert all(pool == () for pool in built.negative_pool.values())
        assert "negative pools are empty" in caplog.text

    def test_labels_each_sentence_once(self, lexicon, monkeypatch):
        import radpragma.generator as generator_module
        import radpragma.labeler as labeler_module

        labeled = []
        real = labeler_module.label_normalized

        def counting(sentence, lexicon=None):
            labeled.append(getattr(sentence, "text", sentence))
            return real(sentence, lexicon)

        monkeypatch.setattr(labeler_module, "label_normalized", counting)
        monkeypatch.setattr(generator_module, "label_normalized", counting)
        build_index(small_corpus(), lexicon)
        assert labeled == [sentence.text for report in small_corpus()
                           for sentence in segment_sentences(
                               report.impression)]

    def test_indexed_positive_sets_match_keys(self, index, lexicon):
        for key, ids in index.by_label_set.items():
            for study_id in ids:
                labeled = label_report(index.impressions[study_id], lexicon)
                assert labeled.positives() == key


class TestGenerateRetrieval:
    def test_negative_added_for_unpredicted_indication_condition(
            self, index, lexicon):
        result = generate_retrieval(
            request(indication="evaluate for pneumonia"), index, lexicon)
        assert "No pneumonia." in result.text
        assert result.negatives_added == ((PN, "No pneumonia."),)
        # no exact key for {}, falls back deterministically
        assert result.exact_key_match is False

    def test_empty_prediction_with_no_positive_report_available(self, lexicon):
        corpus = small_corpus() + [
            Report(study_id="r0", impression="Lungs are clear.")]
        idx = build_index(corpus, lexicon)
        result = generate_retrieval(
            request(indication="evaluate for pneumonia"), idx, lexicon)
        assert result.exact_key_match is True
        assert result.text == "Lungs are clear. No pneumonia."
        labeled = label_report(result.text, lexicon)
        assert labeled.positives() == frozenset()
        assert labeled.get(PN).value == "negative"

    def test_predicted_positive_suppresses_negative(self, index, lexicon):
        result = generate_retrieval(
            request(indication="?pleural effusion", positives={PE}),
            index, lexicon)
        assert result.exact_key_match is True
        assert result.negatives_added == ()
        assert result.text == "There is a pleural effusion."
        assert result.retrieved_study_id == "r1"

    def test_empty_indication_returns_retrieved_only(self, index, lexicon):
        result = generate_retrieval(request(positives={ED, PE}), index,
                                    lexicon)
        assert result.text == "There is edema. There is a pleural effusion."
        assert result.negatives_added == ()

    def test_pool_empty_is_recorded(self, index, lexicon):
        result = generate_retrieval(
            request(indication="evaluate for fracture", positives={PE}),
            index, lexicon)
        assert result.pool_empty == (Condition.FRACTURE,)
        assert "fracture" not in result.text.lower()

    def test_determinism(self, index, lexicon):
        req = request(indication="evaluate for pneumonia and edema",
                      positives={PE})
        first = generate_retrieval(req, index, lexicon)
        second = generate_retrieval(req, index, lexicon)
        assert first == second

    def test_label_soundness_on_exact_hit(self, index, lexicon):
        req = request(indication="evaluate for pneumonia", positives={ED, PE})
        result = generate_retrieval(req, index, lexicon)
        labeled = label_report(result.text, lexicon)
        assert labeled.positives() == {ED, PE}
        assert result.exact_key_match is True

    def test_fallback_prefers_max_jaccard(self, lexicon):
        corpus = [
            Report(study_id="a", impression="There is edema."),
            Report(study_id="b",
                   impression="There is edema. There is a pleural effusion."),
        ]
        idx = build_index(corpus, lexicon)
        result = generate_retrieval(
            request(positives={ED, PE, PN}), idx, lexicon)
        # Jaccard({ED,PE} vs target) = 2/3 beats {ED} at 1/3
        assert result.retrieval_key == frozenset({ED, PE})
        assert result.exact_key_match is False

    def test_fallback_tie_breaks_on_symmetric_difference(self, lexicon):
        corpus = [
            Report(study_id="a", impression="There is edema."),
            Report(study_id="b", impression=(
                "There is edema. There is a pleural effusion. "
                "There is pneumonia. There is a fracture.")),
        ]
        idx = build_index(corpus, lexicon)
        # target {ED, PE}: Jaccard is 1/2 for both keys; |symdiff| is 1 vs 2
        result = generate_retrieval(request(positives={ED, PE}), idx, lexicon)
        assert result.retrieval_key == frozenset({ED})

    def test_empty_index_rejected(self, lexicon):
        empty = RetrievalIndex(lexicon_version=lexicon.version,
                               corpus_digest="sha256:0", report_count=0,
                               by_label_set={}, impressions={},
                               negative_pool={})
        with pytest.raises(InputError, match="empty"):
            generate_retrieval(request(), empty, lexicon)


    def test_cli_generate_labels_each_distinct_indication_once(
            self, tmp_path, monkeypatch):
        corpus = os.path.join(os.path.dirname(__file__), "fixtures",
                              "corpus.jsonl")
        reports = read_reports_jsonl(corpus)
        requests = reports + [r._replace(study_id=r.study_id + "-again")
                              for r in reports]
        paths = {name: str(tmp_path / name) for name in (
            "requests.jsonl", "labels.csv", "index.json", "lexicon.json",
            "generated.jsonl")}
        write_reports_jsonl(requests, paths["requests.jsonl"])
        with open(paths["lexicon.json"], "w", encoding="utf-8") as handle:
            json.dump(shipped_lexicon_json(), handle)
        assert main(["label", "--in", paths["requests.jsonl"],
                     "--out", paths["labels.csv"]]) == 0
        assert main(["index", "--in", corpus, "--out",
                     paths["index.json"]]) == 0
        segmented = []

        def counting(text):
            segmented.append(text)
            return segment_sentences(text)

        # A lexicon loaded from a file starts with empty memos.
        monkeypatch.setattr(labeler, "segment_sentences", counting)
        assert main(["generate", "--requests", paths["requests.jsonl"],
                     "--predictions", paths["labels.csv"],
                     "--index", paths["index.json"],
                     "--lexicon", paths["lexicon.json"],
                     "--out", paths["generated.jsonl"]]) == 0
        indications = [r.indication for r in requests]
        assert len(set(indications)) < len(indications)
        assert sorted(segmented) == sorted(set(indications))


class TestGenerationRequest:
    def test_no_finding_must_be_alone(self):
        with pytest.raises(ValueError, match="No Finding"):
            GenerationRequest(study_id="x", indication="",
                              predicted_positives=frozenset(
                                  {Condition.NO_FINDING, PE}))

    def test_no_finding_alone_is_valid(self):
        req = GenerationRequest(study_id="x", indication="",
                                predicted_positives=frozenset(
                                    {Condition.NO_FINDING}))
        assert req.predicted_positives == frozenset({Condition.NO_FINDING})


class TestGenerationPrompt:
    def test_template_prefix(self):
        prompt = build_generation_prompt(request(indication="cough"))
        assert prompt.startswith("Below is an instruction that describes a "
                                 "task")

    def test_field_layout(self):
        prompt = build_generation_prompt(
            request(indication="cough", positives={PE}))
        assert "Indication: cough\n" in prompt
        assert "Positive labels: Pleural Effusion\n" in prompt
        assert prompt.endswith("### Response:\n")

    def test_full_template_bytes(self):
        prompt = build_generation_prompt(
            request(indication="cough", positives={PE}))
        assert prompt == (
            "Below is an instruction that describes a task, paired with an "
            "input that provides further context.\n"
            "Write a response that appropriately completes the request.\n"
            "\n"
            "### Instruction:\n"
            "Write a radiology report responding to the indication. "
            "Include all given positive labels.\n"
            "\n"
            "### Input:\n"
            "Indication: cough\n"
            "Positive labels: Pleural Effusion\n"
            "\n"
            "### Response:\n")

    def test_empty_positives_render_no_finding(self):
        assert render_positive_labels(frozenset()) == "no finding"
        assert render_positive_labels(frozenset({Condition.NO_FINDING})) == \
            "no finding"

    def test_labels_in_canonical_order(self):
        assert render_positive_labels(frozenset({PN, ED})) == \
            "Edema, Pneumonia"


class TestIndexSerialization:
    def test_round_trip(self, index, lexicon, tmp_path):
        path = tmp_path / "index.json"
        index.save(str(path))
        loaded = RetrievalIndex.load(str(path), lexicon)
        assert loaded == index

    def test_lexicon_version_mismatch(self, index, lexicon, tmp_path):
        path = tmp_path / "index.json"
        index.save(str(path))
        obj = json.loads(path.read_text())
        obj["lexicon_version"] = "different"
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match="lexicon version"):
            RetrievalIndex.load(str(path), lexicon)

    def test_format_version_checked(self, index, lexicon, tmp_path):
        path = tmp_path / "index.json"
        index.save(str(path))
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match="format version"):
            RetrievalIndex.load(str(path), lexicon)

    def test_generation_equal_after_round_trip(self, index, lexicon,
                                               tmp_path):
        path = tmp_path / "index.json"
        index.save(str(path))
        loaded = RetrievalIndex.load(str(path), lexicon)
        req = request(indication="evaluate for pneumonia", positives={PE})
        assert generate_retrieval(req, loaded, lexicon) == \
            generate_retrieval(req, index, lexicon)


class TestGenerateRemote:
    def test_completion_passthrough(self, http_endpoint):
        def respond(body, handler):
            assert body["study_id"] == "q1"
            assert body["prompt"].startswith("Below is an instruction")
            return 200, {"completion": "No acute process.\n"}

        url = http_endpoint(respond)
        with RemoteEndpoint(url, "generation") as client:
            result = generate_remote(request(indication="cough"), client)
        assert result.text == "No acute process."
        assert result.prompt.startswith("Below is an instruction")

    def test_unvalidated_passthrough(self, http_endpoint):
        # the generator does not filter; validation is the evaluator's job
        url = http_endpoint(
            lambda body, handler: (200, {"completion": "Recommend CT."}))
        with RemoteEndpoint(url, "generation") as client:
            result = generate_remote(request(), client)
        assert result.text == "Recommend CT."

    def test_unreachable_endpoint_names_it(self):
        with (RemoteEndpoint("http://127.0.0.1:9/", "generation",
                             timeout=0.2) as client,
              pytest.raises(BackendError, match="127.0.0.1:9") as info):
            generate_remote(request(study_id="q7"), client)
        assert info.value.study_id == "q7"

    def test_http_error(self, http_endpoint):
        url = http_endpoint(lambda body, handler: (503, {}))
        with (RemoteEndpoint(url, "generation") as client,
              pytest.raises(BackendError, match="HTTP 503")):
            generate_remote(request(), client)

    def test_bad_payload(self, http_endpoint):
        url = http_endpoint(lambda body, handler: (200, {"oops": True}))
        with (RemoteEndpoint(url, "generation") as client,
              pytest.raises(BackendError, match="completion")):
            generate_remote(request(), client)

    @pytest.mark.parametrize("payload", [[1], "x", None])
    def test_non_object_payload(self, http_endpoint, payload):
        url = http_endpoint(lambda body, handler: (200, payload))
        with (RemoteEndpoint(url, "generation") as client,
              pytest.raises(BackendError, match="completion") as info):
            generate_remote(request(study_id="q3"), client)
        assert info.value.study_id == "q3"
