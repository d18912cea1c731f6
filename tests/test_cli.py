import gc
import json
import os
import threading

import pytest

from pipeline import pipeline_steps, run_pipeline
from synth import shipped_lexicon_json

from radpragma import cleaning, corpus_io
from radpragma.cleaning import RuleOutcome, SentenceAudit
from radpragma.cli import main
from radpragma.corpus_io import read_labels_csv, read_reports_jsonl
from radpragma.model import segment_sentences

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CORPUS = os.path.join(FIXTURES, "corpus.jsonl")


# Each index defect returns the field its error must name.
def _pools_as_a_list(index):
    index["negative_pool"] = list(index["negative_pool"].values())
    return "negative_pool"


def _retrieved_ids_without_impression(index):
    for entry in index["by_label_set"]:
        del index["impressions"][entry["study_ids"][0]]
    return "has no impression"


def _study_ids_as_a_string(index):
    for entry in index["by_label_set"]:
        entry["study_ids"] = entry["study_ids"][0]
    return "study_ids"


def _study_ids_empty(index):
    for entry in index["by_label_set"]:
        entry["study_ids"] = []
    return "study_ids"


def _impressions_not_strings(index):
    index["impressions"] = dict.fromkeys(index["impressions"], 1)
    return "impression of"


def _pool_texts_not_strings(index):
    for pool in index["negative_pool"].values():
        for sentence in pool:
            sentence["text"] = 1
    return "pool text"


def _conditions_empty_string(index):
    # Iterated, "" would be the empty key.
    for entry in index["by_label_set"]:
        entry["conditions"] = ""
    return "by_label_set conditions"


def _conditions_a_string(index):
    # Iterated, "Edema" would be the conditions "E", "d", ...
    for entry in index["by_label_set"]:
        entry["conditions"] = "Edema"
    return "by_label_set conditions"


def _condition_not_a_string(index):
    for entry in index["by_label_set"]:
        entry["conditions"] = [entry["conditions"]]
    return "by_label_set condition must be a string"


def _pool_study_id_not_a_string(index):
    for pool in index["negative_pool"].values():
        for sentence in pool:
            sentence["study_id"] = 5
    return "pool study_id"


def _label_sets_as_an_object(index):
    index["by_label_set"] = dict(enumerate(index["by_label_set"]))
    return "by_label_set"


def _pool_as_a_string(index):
    pools = index["negative_pool"]
    pools.update((name, "No edema.") for name in pools)
    return "negative_pool"


#: A command reading each JSON input from the file BAD.
_JSON_INPUT_COMMANDS = {
    "lexicon": ["label", "--in", CORPUS, "--lexicon", "BAD"],
    "keywords": ["evaluate", "--generated", CORPUS, "--ref-original", CORPUS,
                 "--ref-clean", CORPUS, "--keywords", "BAD"],
    "index": ["generate", "--requests", CORPUS, "--index", "BAD"],
    "shift-a": ["shift", "--a", "BAD", "--b", "BAD"],
    "config": ["label", "--in", CORPUS, "--config", "BAD"],
}


def _single_error(capsys, *fragments):
    """Assert stderr is one ``error:`` line holding every fragment."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    for fragment in fragments:
        assert fragment in lines[0]


class TestParser:
    def test_unknown_subcommand_exits_1_with_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0


class TestInputErrors:
    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        code = main(["label", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "labels.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus_exits_1_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"study_id":"s1","impression":"ok"}\nnot json\n')
        code = main(["label", "--in", str(bad),
                     "--out", str(tmp_path / "labels.csv")])
        assert code == 1
        assert "bad.jsonl:2" in capsys.readouterr().err

    def test_non_utf8_corpus_exits_1_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"study_id":"a","impression":"No \xe9dema."}\n')
        code = main(["label", "--in", str(bad),
                     "--out", str(tmp_path / "labels.csv")])
        assert code == 1
        _single_error(capsys, "bad.jsonl", "UTF-8")

    def test_non_utf8_label_csv_exits_1_naming_file(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        assert main(["label", "--in", CORPUS, "--out", str(labels)]) == 0
        labels.write_bytes(labels.read_bytes() + b"s\xe9" + b"," * 14
                           + b"\n")
        code = main(["stats", "--in", CORPUS, "--labels", str(labels),
                     "--out", str(tmp_path / "stats.csv")])
        assert code == 1
        _single_error(capsys, "labels.csv", "UTF-8")

    def test_retrieval_generate_without_index_exits_1(self, tmp_path,
                                                      capsys):
        code = main(["generate", "--requests", CORPUS, "--mode", "retrieval",
                     "--out", str(tmp_path / "generated.jsonl")])
        assert code == 1
        _single_error(capsys, "retrieval generation requires --index")

    def test_env_value_of_wrong_type_exits_1(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("RADPRAGMA_JOBS", "abc")
        code = main(["label", "--in", CORPUS,
                     "--out", str(tmp_path / "labels.csv")])
        assert code == 1
        _single_error(capsys, "RADPRAGMA_JOBS", "'abc'")

    def test_unknown_env_variable_warns_and_changes_nothing(
            self, tmp_path, capsys, monkeypatch):
        plain = tmp_path / "plain.csv"
        assert main(["label", "--in", CORPUS, "--out", str(plain)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("RADPRAGMA_JOB", "4")
        out = tmp_path / "labels.csv"
        assert main(["label", "--in", CORPUS, "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:"), lines
        assert "RADPRAGMA_JOB " in lines[0]
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("values", [{"jobs": "4"}, {"timeout": None},
                                        {"retries": True}, [1]])
    def test_config_value_of_wrong_type_exits_1(self, tmp_path, capsys,
                                                values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        code = main(["clean", "--in", CORPUS, "--config", str(config),
                     "--out", str(tmp_path / "cleaned.jsonl")])
        assert code == 1
        _single_error(capsys, "config.json",
                      *(repr(key) for key in values if isinstance(key, str)))

    def _evaluate(self, tmp_path, *extra):
        return main(["evaluate", "--generated", CORPUS,
                     "--ref-original", CORPUS, "--ref-clean", CORPUS,
                     "--out", str(tmp_path / "metrics.json"), *extra])

    def test_env_value_not_allowed_exits_1(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("RADPRAGMA_F1_AVERAGE", "foo")
        assert self._evaluate(tmp_path) == 1
        _single_error(capsys, "RADPRAGMA_F1_AVERAGE", "'foo'", "macro")

    def test_config_value_not_allowed_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"f1_average": "foo"}))
        assert self._evaluate(tmp_path, "--config", str(config)) == 1
        _single_error(capsys, "config.json", "'f1_average'", "'foo'")
        assert not (tmp_path / "metrics.json").exists()

    def _clean_remote(self, tmp_path, *extra):
        return main(["clean", "--in", CORPUS, "--backend", "remote",
                     "--clean-endpoint", "http://127.0.0.1:9/",
                     "--out", str(tmp_path / "cleaned.jsonl"), *extra])

    @pytest.mark.parametrize("name, raw", [
        ("TIMEOUT", "0"), ("TIMEOUT", "-1"), ("TIMEOUT", "inf"),
        ("TIMEOUT", "nan"), ("RETRIES", "-1"), ("JOBS", "0")])
    def test_env_value_out_of_range_exits_1(self, tmp_path, capsys,
                                            monkeypatch, name, raw):
        monkeypatch.setenv("RADPRAGMA_" + name, raw)
        assert self._clean_remote(tmp_path) == 1
        _single_error(capsys, "RADPRAGMA_" + name, repr(raw))
        assert not (tmp_path / "cleaned.jsonl").exists()

    @pytest.mark.parametrize("values", [{"timeout": 0}, {"timeout": -0.5},
                                        {"retries": -1}, {"jobs": 0}])
    def test_config_value_out_of_range_exits_1(self, tmp_path, capsys,
                                               values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        assert self._clean_remote(tmp_path, "--config", str(config)) == 1
        _single_error(capsys, "config.json", *map(repr, values))

    def test_jobs_flag_out_of_range_exits_1(self, tmp_path, capsys):
        assert self._clean_remote(tmp_path, "--jobs", "0") == 1
        _single_error(capsys, "--jobs", ">= 1")

    @pytest.mark.parametrize("source", ["config", "env", "flag"])
    def test_jobs_zero_from_each_source_exits_1(self, tmp_path, capsys,
                                                monkeypatch, source):
        # Every source reports a bad value as <source>: expected <what>,
        # got <value>.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": 0}))
        extra, where = {
            "config": (["--config", str(config)],
                       f"{config}: config key 'jobs'"),
            "env": ([], "RADPRAGMA_JOBS"),
            "flag": (["--jobs", "0"], "--jobs"),
        }[source]
        if source == "env":
            monkeypatch.setenv("RADPRAGMA_JOBS", "0")
        assert self._clean_remote(tmp_path, *extra) == 1
        _single_error(capsys, f"error: {where}: expected an integer >= 1, "
                              "got ")

    @pytest.mark.parametrize("url", [
        "notaurl", "ftp://127.0.0.1/", "http://", "http://127.0.0.1:99999/"])
    @pytest.mark.parametrize("source", ["config", "env", "flag"])
    def test_malformed_endpoint_exits_1_naming_its_source(
            self, tmp_path, capsys, monkeypatch, source, url):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clean_endpoint": url}))
        extra, where = {
            "config": (["--config", str(config)],
                       f"{config}: config key 'clean_endpoint'"),
            "env": ([], "RADPRAGMA_CLEAN_ENDPOINT"),
            "flag": (["--clean-endpoint", url], "--clean-endpoint"),
        }[source]
        if source == "env":
            monkeypatch.setenv("RADPRAGMA_CLEAN_ENDPOINT", url)
        out = tmp_path / "cleaned.jsonl"
        assert main(["clean", "--in", CORPUS, "--backend", "remote",
                     "--out", str(out), *extra]) == 1
        _single_error(capsys, f"error: {where}: expected an http:// or "
                              f"https:// URL with a host, got {url!r}")
        assert not out.exists()

    def test_malformed_generation_endpoint_exits_1(self, tmp_path, capsys):
        assert main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--generation-endpoint", "127.0.0.1:8080/generate",
                     "--out", str(tmp_path / "generated.jsonl")]) == 1
        _single_error(capsys, "--generation-endpoint", "URL with a host")

    def test_empty_endpoint_still_means_unset(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("RADPRAGMA_CLEAN_ENDPOINT", "")
        assert main(["clean", "--in", CORPUS, "--backend", "remote",
                     "--out", str(tmp_path / "cleaned.jsonl")]) == 1
        _single_error(capsys, "requires an endpoint")

    @pytest.mark.parametrize("token", ["a\nb", "\u0442\u043e\u043a"])
    def test_auth_token_no_header_can_carry_exits_1_unshown(
            self, tmp_path, capsys, monkeypatch, token):
        monkeypatch.setenv("RADPRAGMA_AUTH_TOKEN", token)
        assert self._clean_remote(tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: RADPRAGMA_AUTH_TOKEN: expected printable ASCII text, "
            "got a value not shown\n")

    def test_generate_remote_zero_timeout_exits_1(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("RADPRAGMA_TIMEOUT", "0")
        code = main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--generation-endpoint", "http://127.0.0.1:9/g",
                     "--out", str(tmp_path / "generated.jsonl")])
        assert code == 1
        _single_error(capsys, "RADPRAGMA_TIMEOUT", "> 0")

    def test_allowed_f1_average_from_env_is_used(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("RADPRAGMA_F1_AVERAGE", "micro")
        assert self._evaluate(tmp_path) == 0
        scores = json.loads((tmp_path / "metrics.json").read_text())
        assert scores["average"] == "micro"

    def test_config_values_of_field_type_are_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"timeout": 5, "clean_endpoint": None,
                                      "jobs": 1, "f1_average": "macro"}))
        out = tmp_path / "labels.csv"
        assert main(["label", "--in", CORPUS, "--config", str(config),
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "labels.csv.run.json").read_text())
        assert sidecar["config"]["timeout"] == 5

    def test_outputs_follow_the_umask(self, tmp_path):
        out = tmp_path / "labels.csv"
        previous = os.umask(0o022)
        try:
            assert main(["label", "--in", CORPUS, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == 0o644
        assert sorted(os.listdir(tmp_path)) == ["labels.csv",
                                                "labels.csv.run.json"]

    @pytest.mark.parametrize("categories,named", [
        ([1], "categories"), ({"a": "ap"}, "'a'"), ({"a": [1]}, "'a'"),
        ({"a": [""]}, "'a'"), ({"a": [" ap"]}, "'a'"),
        ({"a": ["x-ray"]}, "'a'"), ({"a": ["\u212a"]}, "'a'")])
    def test_invalid_keyword_catalog_exits_1(self, tmp_path, capsys,
                                             categories, named):
        keywords = tmp_path / "kw.json"
        keywords.write_text(json.dumps({"version": "x",
                                        "categories": categories}))
        assert self._evaluate(tmp_path, "--keywords", str(keywords)) == 1
        _single_error(capsys, "kw.json", named)
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("defect", [
        _pools_as_a_list, _retrieved_ids_without_impression,
        _study_ids_as_a_string, _study_ids_empty, _impressions_not_strings,
        _pool_texts_not_strings, _conditions_empty_string,
        _conditions_a_string, _condition_not_a_string,
        _pool_study_id_not_a_string,
        _label_sets_as_an_object, _pool_as_a_string])
    def test_malformed_index_exits_1(self, tmp_path, capsys, defect):
        index = tmp_path / "index.json"
        assert main(["index", "--in", CORPUS, "--out", str(index)]) == 0
        obj = json.loads(index.read_text())
        field = defect(obj)
        index.write_text(json.dumps(obj))
        capsys.readouterr()
        out = tmp_path / "generated.jsonl"
        assert main(["generate", "--requests", CORPUS, "--index", str(index),
                     "--out", str(out)]) == 1
        _single_error(capsys, f"{index}: invalid retrieval index", field)
        assert not out.exists()

    @pytest.mark.parametrize("field, value, expected", [
        ("report_count", 2.5, "an integer"),
        ("report_count", True, "an integer"),
        ("report_count", "5", "an integer"),
        ("report_count", "abc", "an integer"),
        ("lexicon_version", 1, "a string"),
        ("corpus_digest", ["sha256:0"], "a string")])
    def test_index_scalar_of_the_wrong_type_exits_1(self, tmp_path, capsys,
                                                    field, value, expected):
        # They were read through int() and str(): 2.5 loaded as 2, True as
        # 1, "5" as 5, and "abc" failed naming no field.
        index = tmp_path / "index.json"
        assert main(["index", "--in", CORPUS, "--out", str(index)]) == 0
        obj = json.loads(index.read_text())
        obj[field] = value
        index.write_text(json.dumps(obj))
        capsys.readouterr()
        out = tmp_path / "generated.jsonl"
        assert main(["generate", "--requests", CORPUS, "--index", str(index),
                     "--out", str(out)]) == 1
        _single_error(capsys, f"{index}: invalid retrieval index",
                      f"{field} must be {expected}")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(_JSON_INPUT_COMMANDS))
    @pytest.mark.parametrize("content", ["[1, 2]", "truncated"])
    def test_bad_json_input_exits_1_naming_the_file(self, tmp_path, capsys,
                                                    command, content):
        bad = tmp_path / "input.json"
        if content == "truncated":
            content = json.dumps(shipped_lexicon_json())[:200]
        bad.write_text(content)
        out = tmp_path / "out"
        argv = [str(bad) if arg == "BAD" else arg
                for arg in _JSON_INPUT_COMMANDS[command]]
        assert main(argv + ["--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), \
            lines
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(_JSON_INPUT_COMMANDS))
    def test_deeply_nested_json_input_exits_1_naming_the_file(
            self, tmp_path, capsys, command):
        bad = tmp_path / "input.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "out"
        argv = [str(bad) if arg == "BAD" else arg
                for arg in _JSON_INPUT_COMMANDS[command]]
        assert main(argv + ["--out", str(out)]) == 1
        _single_error(capsys, f"error: {bad}: ", "nested too deeply")
        assert not out.exists()

    def test_deeply_nested_report_exits_1_naming_the_line(self, tmp_path,
                                                           capsys):
        bad = tmp_path / "deep.jsonl"
        bad.write_text('{"study_id": "a", "impression": '
                       + "[" * 100000 + "]" * 100000 + "}\n")
        out = tmp_path / "labels.csv"
        assert main(["label", "--in", str(bad), "--out", str(out)]) == 1
        _single_error(capsys, f"error: {bad}:1: ", "nested too deeply")
        assert not out.exists()

    def test_lone_surrogate_in_report_exits_1_naming_the_field(
            self, tmp_path, capsys):
        bad = tmp_path / "sur.jsonl"
        bad.write_text('{"study_id": "a", "impression": "No edema \\ud800."}'
                       '\n')
        out = tmp_path / "cleaned.jsonl"
        assert main(["clean", "--in", str(bad), "--out", str(out)]) == 1
        _single_error(capsys, f"error: {bad}:1: field 'impression' ")
        assert not out.exists()

    def test_unknown_condition_exits_1(self, tmp_path, capsys):
        code = main(["chi2", "--in", CORPUS, "--condition", "Emphysema",
                     "--out", str(tmp_path / "chi2.csv")])
        assert code == 1
        assert "unknown condition" in capsys.readouterr().err

    def test_no_finding_condition_exits_1_listing_the_findings(self, tmp_path,
                                                                capsys):
        # The chi-square test is undefined for No Finding.
        out = tmp_path / "chi2.csv"
        code = main(["chi2", "--in", CORPUS, "--condition", "No Finding",
                     "--out", str(out)])
        assert code == 1
        _single_error(capsys, "'No Finding'", "Atelectasis, Cardiomegaly, ",
                      ", Support Devices")
        assert not out.exists()

    def test_lone_surrogate_in_index_exits_1_naming_the_file(self, tmp_path,
                                                              capsys):
        index = tmp_path / "index.json"
        assert main(["index", "--in", CORPUS, "--out", str(index)]) == 0
        obj = json.loads(index.read_text())
        study_id = next(iter(obj["impressions"]))
        obj["impressions"][study_id] += "\ud800"
        index.write_text(json.dumps(obj))
        capsys.readouterr()
        out = tmp_path / "generated.jsonl"
        assert main(["generate", "--requests", CORPUS, "--index", str(index),
                     "--out", str(out)]) == 1
        _single_error(capsys, f"error: {index}: field 'impressions' ",
                      "surrogate")
        assert not out.exists()

    def test_missing_prediction_row_exits_1(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        assert main(["label", "--in", CORPUS, "--out", str(labels)]) == 0
        header, first, *rest = labels.read_text().splitlines(keepends=True)
        labels.write_text(header + "".join(rest))
        capsys.readouterr()
        out = tmp_path / "generated.jsonl"
        assert main(["generate", "--requests", CORPUS, "--predictions",
                     str(labels), "--index", "unused", "--out", str(out)]) == 1
        study_id = first.split(",", 1)[0]
        _single_error(capsys, "error: missing prediction row for study_id "
                      f"{study_id!r}")
        assert not out.exists()


class TestLabelCommand:
    def test_writes_labels_and_sidecar(self, tmp_path):
        out = tmp_path / "labels.csv"
        code = main(["label", "--in", CORPUS, "--out", str(out)])
        assert code == 0
        labels = read_labels_csv(str(out))
        assert set(labels) == {r.study_id
                               for r in read_reports_jsonl(CORPUS)}
        sidecar = json.loads((tmp_path / "labels.csv.run.json").read_text())
        assert sidecar["command"] == "label"

    def test_run_record_counts_memo_hits_and_misses(self, tmp_path):
        # A lexicon loaded from a file has an empty memo.
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(shipped_lexicon_json()))
        out = tmp_path / "labels.csv"
        assert main(["label", "--in", CORPUS, "--lexicon", str(lexicon),
                     "--out", str(out)]) == 0
        sentences = [s.text for r in read_reports_jsonl(CORPUS)
                     for s in segment_sentences(r.impression)]
        sidecar = json.loads((tmp_path / "labels.csv.run.json").read_text())
        counts = sidecar["label_memo"]
        assert counts["hits"] + counts["misses"] == len(sentences)
        assert counts["misses"] == len(set(sentences)) < len(sentences)


#: Each remote stage, less its endpoint URL, and its response's key.
_REMOTE_STAGES = [
    (["clean", "--in", CORPUS, "--backend", "remote", "--clean-endpoint"],
     "rewritten"),
    (["generate", "--requests", CORPUS, "--mode", "remote",
      "--generation-endpoint"], "completion"),
]


class TestRunRecord:
    #: The inputs each command records in its run.json.
    RUN_INPUTS = {
        "label": ["in"], "stats": ["in", "labels"], "chi2": ["in", "labels"],
        "clean": ["backend", "in"], "index": ["in"],
        "generate": ["index", "mode", "predictions", "requests"],
        "evaluate": ["generated", "ref_clean", "ref_original",
                     "ref_original_labels"],
        "shift": ["a", "b"], "clean-eval": ["machine", "manual", "original"]}

    def test_auth_token_is_written_to_no_file(self, tmp_path, monkeypatch,
                                              http_endpoint):
        token = "sekret-4d1e"
        monkeypatch.setenv("RADPRAGMA_AUTH_TOKEN", token)
        sent = []

        def respond(body, handler):
            sent.append(handler.headers["Authorization"])
            return 200, {"rewritten": body.get("sentence", ""),
                         "completion": "No acute process."}

        url = http_endpoint(respond)
        paths, steps = pipeline_steps(CORPUS, str(tmp_path))
        out = str(tmp_path / "out")
        lines = tmp_path / "lines.txt"
        lines.write_text("No pneumonia.\nREMOVED\n")
        steps += [
            ["clean", "--in", CORPUS, "--backend", "remote",
             "--clean-endpoint", url, "--out", out + "-clean.jsonl",
             "--audit", out + "-clean-audit.jsonl"],
            ["generate", "--requests", CORPUS, "--mode", "remote",
             "--generation-endpoint", url, "--out", out + "-gen.jsonl",
             "--audit", out + "-gen-audit.jsonl"],
            ["shift", "--a", paths["stats.json"], "--b",
             paths["stats.json"], "--out", out + "-shift.csv"],
            ["clean-eval", "--machine", str(lines), "--manual",
             str(lines), "--original", str(lines),
             "--out", out + "-clean-eval.json"]]
        for argv in steps:
            assert main(argv) == 0, argv[0]
        assert sent and set(sent) == {f"Bearer {token}"}
        written = [p for p in tmp_path.iterdir() if p.is_file()]
        assert len([p for p in written if p.name.endswith(".run.json")]) == 11
        for path in written:
            assert token.encode() not in path.read_bytes(), path.name
        for argv in steps:
            run_json = argv[argv.index("--out") + 1] + ".run.json"
            with open(run_json, encoding="utf-8") as handle:
                run = json.load(handle)
            assert run["command"] == argv[0]
            assert sorted(run["inputs"]) == self.RUN_INPUTS[argv[0]]
            assert ("label_memo" in run) == (argv[0] != "shift")
            assert ("clean_memo" in run) == (argv[0] == "clean")
            assert run["config"]["auth_token"] is True

    @pytest.mark.parametrize("argv, key", _REMOTE_STAGES)
    def test_empty_auth_token_is_neither_sent_nor_recorded(
            self, tmp_path, http_endpoint, monkeypatch, argv, key):
        sent = []

        def respond(body, handler):
            sent.append(handler.headers.get("Authorization"))
            return 200, {key: body.get("sentence", "No acute process.")}

        monkeypatch.setenv("RADPRAGMA_AUTH_TOKEN", "")
        out = tmp_path / "out.jsonl"
        assert main(argv + [http_endpoint(respond), "--out", str(out)]) == 0
        assert sent and set(sent) == {None}
        sidecar = json.loads((tmp_path / "out.jsonl.run.json").read_text())
        assert sidecar["config"]["auth_token"] is False


class TestPipeline:
    def test_full_pipeline_and_fixture_oracle(self, tmp_path):
        paths = run_pipeline(CORPUS, str(tmp_path))
        for path in paths.values():
            assert os.path.exists(path)
        cleaned = {r.study_id: r.impression
                   for r in read_reports_jsonl(paths["cleaned.jsonl"])}
        assert cleaned["s02"] == ("No pneumothorax. There are slightly "
                                  "improved lung volumes.")
        assert cleaned["s03"] == "Moderate pulmonary edema."
        assert cleaned["s05"] == "Large right pneumothorax. No pneumonia."
        assert cleaned["s11"] == "No opacities in the left mid lung."
        with open(paths["metrics.json"], encoding="utf-8") as handle:
            metrics = json.load(handle)
        assert 0.0 <= metrics["pos_f1"] <= 1.0

    def test_offline_jobs_run_in_one_thread(self, tmp_path, monkeypatch):
        index = str(tmp_path / "index.json")
        assert main(["index", "--in", CORPUS, "--out", index]) == 0

        def no_thread(thread):
            raise AssertionError("an offline stage started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        outs = [str(tmp_path / "cleaned.jsonl"),
                str(tmp_path / "generated.jsonl")]
        assert main(["clean", "--in", CORPUS, "--backend", "pattern",
                     "--jobs", "4", "--out", outs[0]]) == 0
        assert main(["generate", "--requests", CORPUS, "--index", index,
                     "--mode", "retrieval", "--jobs", "4",
                     "--out", outs[1]]) == 0
        for out in outs:
            with open(out + ".run.json", encoding="utf-8") as handle:
                assert json.load(handle)["config"]["jobs"] == 4

    def test_interrupted_audit_write_leaves_no_file(self, tmp_path,
                                                    monkeypatch):
        # The audit is written one report at a time into a temp file; an
        # interruption part way leaves neither the audit nor the temp file.
        from radpragma import cleaning
        real, written, seen = cleaning.audit_jsonl, [], []

        def interrupted(study_id, audits):
            if written:
                seen.extend(os.listdir(tmp_path))
                raise KeyboardInterrupt
            written.append(study_id)
            return real(study_id, audits)

        monkeypatch.setattr(cleaning, "audit_jsonl", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["clean", "--in", CORPUS, "--out",
                  str(tmp_path / "cleaned.jsonl"), "--audit",
                  str(tmp_path / "audit.jsonl")])
        assert len(written) == 1
        assert any(name.startswith(".tmp-") for name in seen)
        assert sorted(os.listdir(tmp_path)) == ["cleaned.jsonl"]

    def test_clean_without_audit_keeps_no_sentence_audit(self, tmp_path,
                                                         monkeypatch):
        def audits_alive():
            gc.collect()
            return sum(isinstance(o, (SentenceAudit, RuleOutcome))
                       for o in gc.get_objects())

        before = audits_alive()
        alive = []
        real_write = corpus_io.write_reports_jsonl

        def counting(*args, **kwargs):
            alive.append(audits_alive())
            return real_write(*args, **kwargs)

        monkeypatch.setattr(corpus_io, "write_reports_jsonl", counting)
        assert main(["clean", "--in", CORPUS, "--backend", "pattern",
                     "--out", str(tmp_path / "cleaned.jsonl")]) == 0
        assert alive == [before]
        assert audits_alive() == before

    def test_clean_builds_outcomes_only_for_an_audit(self, tmp_path,
                                                     monkeypatch):
        # Counted as they are made, not found with ``gc.get_objects``: the
        # GC does not track a tuple whose items are all atomic, such as the
        # changes a fold collects.
        built = []
        for record in (RuleOutcome, SentenceAudit):
            def counting(*args, _record=record):
                built.append(_record)
                return _record(*args)
            monkeypatch.setattr(cleaning, record.__name__, counting)
        out = str(tmp_path / "cleaned.jsonl")
        assert main(["clean", "--in", CORPUS, "--out", out]) == 0
        assert built == []
        assert main(["clean", "--in", CORPUS, "--out", out, "--audit",
                     str(tmp_path / "audit.jsonl")]) == 0
        assert {RuleOutcome, SentenceAudit} <= set(built)

    def test_run_record_counts_fold_memo_hits_and_misses(self, tmp_path):
        out = tmp_path / "cleaned.jsonl"
        assert main(["clean", "--in", CORPUS, "--out", str(out)]) == 0
        sentences = [s.text for r in read_reports_jsonl(CORPUS)
                     for s in segment_sentences(r.impression)]
        sidecar = json.loads((tmp_path / "cleaned.jsonl.run.json")
                             .read_text())
        counts = sidecar["clean_memo"]
        assert counts["hits"] + counts["misses"] == len(sentences)
        assert counts["misses"] == len(set(sentences)) < len(sentences)

    def test_evaluate_matches_bundled_oracle(self, tmp_path):
        out = tmp_path / "metrics.json"
        code = main([
            "evaluate",
            "--generated", os.path.join(FIXTURES, "generated.jsonl"),
            "--ref-original", os.path.join(FIXTURES, "ref_original.jsonl"),
            "--ref-clean", os.path.join(FIXTURES, "ref_clean.jsonl"),
            "--out", str(out)])
        assert code == 0
        got = json.loads(out.read_text())
        with open(os.path.join(FIXTURES, "evaluate_oracle.json"),
                  encoding="utf-8") as handle:
            oracle = json.load(handle)
        for key, expected in oracle.items():
            if isinstance(expected, float):
                assert got[key] == pytest.approx(expected, abs=1e-9), key
            else:
                assert got[key] == expected, key

    def test_stats_accepts_precomputed_labels(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        assert main(["label", "--in", CORPUS, "--out", str(labels)]) == 0
        code = main(["stats", "--in", CORPUS, "--labels", str(labels),
                     "--out", str(tmp_path / "stats.csv")])
        assert code == 0
        assert "avg negative mentions" in capsys.readouterr().out

    def test_chi2_output_shape(self, tmp_path):
        out = tmp_path / "chi2.csv"
        assert main(["chi2", "--in", CORPUS, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "condition,p_in,p_out,statistic,p_value,significant"
        assert len(lines) == 14  # header + 13 conditions

    def test_clean_eval_command(self, tmp_path, capsys):
        machine = tmp_path / "machine.txt"
        manual = tmp_path / "manual.txt"
        original = tmp_path / "original.txt"
        machine.write_text("No pneumonia.\nREMOVED\nThere is edema.\n")
        manual.write_text("No pneumonia.\nREMOVED\nThere is edema.\n")
        original.write_text("No pneumonia.\nRecommend follow up.\n"
                            "There is edema.\n")
        code = main(["clean-eval", "--machine", str(machine),
                     "--manual", str(manual), "--original", str(original)])
        assert code == 0
        scores = json.loads(capsys.readouterr().out)
        assert scores["pos_f1"] == 1.0
        assert scores["neg_f1"] == 1.0
        assert scores["em_accuracy"] == 1.0


class TestShiftCommand:
    def _write_summaries(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path, avg in ((a, 0.485), (b, 0.255)):
            assert main(["stats", "--in", CORPUS,
                         "--out", str(tmp_path / "unused.csv"),
                         "--json", str(tmp_path / "base.json")]) == 0
            summary = json.loads((tmp_path / "base.json").read_text())
            summary["avg_negative_mentions"] = avg
            path.write_text(json.dumps(summary))
        return a, b

    def test_flags_large_relative_delta(self, tmp_path, capsys):
        a, b = self._write_summaries(tmp_path)
        code = main(["shift", "--a", str(a), "--b", str(b),
                     "--out", str(tmp_path / "shift.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_negative_mentions" in out
        rows = (tmp_path / "shift.csv").read_text().splitlines()
        flagged = [r for r in rows if r.endswith(",true")]
        assert any("avg_negative_mentions" in r for r in flagged)

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        a, b = self._write_summaries(tmp_path)
        monkeypatch.setenv("RADPRAGMA_SHIFT_THRESHOLD", "0.9")
        assert main(["shift", "--a", str(a), "--b", str(b)]) == 0
        assert "0 field(s)" in capsys.readouterr().out
        assert main(["shift", "--a", str(a), "--b", str(b),
                     "--threshold", "0.1"]) == 0
        assert "0 field(s)" not in capsys.readouterr().out

    def test_env_overrides_config_file(self, tmp_path, capsys, monkeypatch):
        a, b = self._write_summaries(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shift_threshold": 0.1}))
        monkeypatch.setenv("RADPRAGMA_SHIFT_THRESHOLD", "0.9")
        assert main(["shift", "--a", str(a), "--b", str(b),
                     "--config", str(config)]) == 0
        assert "0 field(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["{bad", "[1]", '{"report_count": 1}'])
    def test_bad_summary_json_exits_1_naming_file(self, tmp_path, capsys,
                                                  text):
        a, _ = self._write_summaries(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["shift", "--a", str(a), "--b", str(bad)])
        assert code == 1
        _single_error(capsys, "bad.json")

    @pytest.mark.parametrize("field, value", [
        ("pct_no_finding", "x"), ("pct_no_finding", "1.5"),
        ("pct_no_finding", None), ("report_count", True),
        ("report_count", 1.5), ("Edema/negative_mentions", "2"),
        ("Edema/pct_reports_with_negative_given_indication", False)])
    def test_summary_value_of_wrong_type_exits_1(self, tmp_path, capsys,
                                                 field, value):
        a, b = self._write_summaries(tmp_path)
        summary = json.loads(b.read_text())
        if "/" in field:
            condition, name = field.split("/")
            summary["per_condition"][condition][name] = value
        else:
            summary[field] = value
        b.write_text(json.dumps(summary))
        code = main(["shift", "--a", str(a), "--b", str(b)])
        assert code == 1
        _single_error(capsys, "b.json", repr(field))

    @pytest.mark.parametrize("edit, named", [
        (lambda s: s.update(per_condition=list(s["per_condition"])),
         "per_condition must be an object"),
        (lambda s: s["per_condition"].update(Edema="2"),
         "per_condition 'Edema' must be an object")],
        ids=["list", "entry-string"])
    def test_summary_per_condition_not_an_object_exits_1(
            self, tmp_path, capsys, edit, named):
        a, b = self._write_summaries(tmp_path)
        summary = json.loads(b.read_text())
        edit(summary)
        b.write_text(json.dumps(summary))
        assert main(["shift", "--a", str(a), "--b", str(b)]) == 1
        _single_error(capsys, f"{b}: invalid corpus summary: {named}")

    def test_summary_null_in_optional_field_is_accepted(self, tmp_path,
                                                        capsys):
        a, b = self._write_summaries(tmp_path)
        summary = json.loads(b.read_text())
        summary["avg_positive_mentions_non_no_finding"] = None
        summary["per_condition"]["Edema"][
            "pct_reports_with_negative_given_indication"] = None
        b.write_text(json.dumps(summary))
        assert main(["shift", "--a", str(a), "--b", str(b)]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["-1", "nan", "inf"])
    def test_threshold_flag_out_of_range_exits_1(self, tmp_path, capsys,
                                                 raw):
        a, b = self._write_summaries(tmp_path)
        out = tmp_path / "shift.csv"
        code = main(["shift", "--a", str(a), "--b", str(b),
                     "--threshold", raw, "--out", str(out)])
        assert code == 1
        _single_error(capsys, "error: --threshold: ", ">= 0")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["-1", "nan", "-inf"])
    def test_threshold_env_out_of_range_exits_1(self, tmp_path, capsys,
                                                monkeypatch, raw):
        a, b = self._write_summaries(tmp_path)
        monkeypatch.setenv("RADPRAGMA_SHIFT_THRESHOLD", raw)
        assert main(["shift", "--a", str(a), "--b", str(b)]) == 1
        _single_error(capsys, "RADPRAGMA_SHIFT_THRESHOLD", repr(raw))

    @pytest.mark.parametrize("value", [-1, -0.5, float("inf")])
    def test_threshold_config_out_of_range_exits_1(self, tmp_path, capsys,
                                                   value):
        a, b = self._write_summaries(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shift_threshold": value}))
        code = main(["shift", "--a", str(a), "--b", str(b),
                     "--config", str(config)])
        assert code == 1
        _single_error(capsys, "config.json", "'shift_threshold'", ">= 0")

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        a, b = self._write_summaries(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        code = main(["shift", "--a", str(a), "--b", str(b),
                     "--config", str(config)])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err


class TestRemoteFailures:
    def test_clean_remote_without_endpoint_exits_1(self, tmp_path, capsys):
        code = main(["clean", "--in", CORPUS, "--backend", "remote",
                     "--out", str(tmp_path / "cleaned.jsonl")])
        assert code == 1
        assert "endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["clean", "--in", CORPUS, "--backend", "remote"],
         "error: remote cleaning backend requires an endpoint (flag "
         "--clean-endpoint, env RADPRAGMA_CLEAN_ENDPOINT, or config file)"),
        (["generate", "--requests", CORPUS, "--mode", "remote"],
         "error: remote generation requires an endpoint (flag "
         "--generation-endpoint, env RADPRAGMA_GENERATION_ENDPOINT, or "
         "config file)"),
    ])
    def test_missing_endpoint_message(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.jsonl"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", _REMOTE_STAGES)
    def test_deeply_nested_payload_exits_2(self, tmp_path, capsys,
                                           http_endpoint, argv, key):
        payload = (b'{"' + key.encode() + b'": ' + b"[" * 100000
                   + b"]" * 100000 + b"}")
        url = http_endpoint(lambda body, handler: (200, payload))
        out = tmp_path / "out.jsonl"
        assert main(argv + [url, "--out", str(out)]) == 2
        _single_error(capsys, url, f"without {key!r}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", _REMOTE_STAGES)
    def test_lone_surrogate_in_response_exits_2(self, tmp_path, capsys,
                                                http_endpoint, argv, key):
        # The label guard accepts the rewrite: the surrogate labels nothing.
        url = http_endpoint(lambda body, handler: (200, {
            key: body.get("sentence", "No acute process.") + " \ud800"}))
        out = tmp_path / "out.jsonl"
        assert main(argv + [url, "--out", str(out)]) == 2
        _single_error(capsys, url, "that UTF-8 cannot encode")
        assert not out.exists()

    def test_clean_remote_unreachable_exits_2_without_partial_output(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RADPRAGMA_CLEAN_ENDPOINT", "http://127.0.0.1:9/")
        monkeypatch.setenv("RADPRAGMA_TIMEOUT", "0.2")
        monkeypatch.setenv("RADPRAGMA_RETRIES", "0")
        out = tmp_path / "cleaned.jsonl"
        code = main(["clean", "--in", CORPUS, "--backend", "remote",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_generate_remote_unreachable_exits_2(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("RADPRAGMA_GENERATION_ENDPOINT",
                           "http://127.0.0.1:9/")
        monkeypatch.setenv("RADPRAGMA_TIMEOUT", "0.2")
        code = main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--out", str(tmp_path / "generated.jsonl")])
        assert code == 2
        assert not (tmp_path / "generated.jsonl").exists()

    def test_clean_remote_failure_names_study_sentence_and_rule(
            self, tmp_path, capsys, http_endpoint):
        url = http_endpoint(lambda body, handler: (500, {}))
        corpus = tmp_path / "corpus.jsonl"
        # Only the second sentence triggers a rule: rule 3, recommendations.
        corpus.write_text(json.dumps({"study_id": "s7", "impression":
                                      "No edema. Recommend CT."}) + "\n")
        out = tmp_path / "cleaned.jsonl"
        code = main(["clean", "--in", str(corpus), "--backend", "remote",
                     "--clean-endpoint", url, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        _single_error(capsys, url, "HTTP 500", "study_id 's7'",
                      "sentence 1", "rule 3")

    def test_generate_remote_failure_names_its_request_once(
            self, tmp_path, capsys, http_endpoint):
        url = http_endpoint(lambda body, handler: (500, {}))
        code = main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--generation-endpoint", url,
                     "--out", str(tmp_path / "generated.jsonl")])
        assert code == 2
        first = read_reports_jsonl(CORPUS)[0].study_id
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "HTTP 500" in lines[0], lines
        assert lines[0].count(repr(first)) == 1

    def test_generate_remote_against_mock_endpoint(self, tmp_path,
                                                   http_endpoint):
        url = http_endpoint(
            lambda body, handler: (200, {"completion": "No acute process."}))
        code = main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--generation-endpoint", url,
                     "--out", str(tmp_path / "generated.jsonl"),
                     "--audit", str(tmp_path / "audit.jsonl")])
        assert code == 0
        reports = read_reports_jsonl(str(tmp_path / "generated.jsonl"))
        assert all(r.impression == "No acute process." for r in reports)
        audit_lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        assert len(audit_lines) == len(reports)
        assert "latency_ms" not in json.loads(audit_lines[0])

    def test_generate_remote_audit_is_the_same_each_run(self, tmp_path,
                                                        http_endpoint):
        url = http_endpoint(
            lambda body, handler: (200, {"completion": "No acute process."}))
        audits = []
        for run in ("a", "b"):
            audit = tmp_path / f"audit_{run}.jsonl"
            assert main(["generate", "--requests", CORPUS, "--mode", "remote",
                         "--generation-endpoint", url, "--jobs", "2",
                         "--out", str(tmp_path / f"generated_{run}.jsonl"),
                         "--audit", str(audit)]) == 0
            audits.append(audit.read_bytes())
        assert audits[0] == audits[1]

    def test_generate_remote_never_retries(self, tmp_path, http_endpoint,
                                           monkeypatch):
        attempts = []

        def respond(body, handler):
            attempts.append(body["study_id"])
            handler.wfile.close()
            raise ConnectionError

        monkeypatch.setenv("RADPRAGMA_RETRIES", "2")
        out = tmp_path / "generated.jsonl"
        assert main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--generation-endpoint", http_endpoint(respond),
                     "--out", str(out)]) == 2
        assert len(attempts) == 1
        assert not out.exists()

    def test_generate_remote_non_object_payload_exits_2(self, tmp_path,
                                                        capsys,
                                                        http_endpoint):
        url = http_endpoint(lambda body, handler: (200, [1]))
        out = tmp_path / "generated.jsonl"
        code = main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--generation-endpoint", url, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        _single_error(capsys, url, "'completion'")

    @staticmethod
    def _run_keeping_clients(tmp_path, http_endpoint, monkeypatch, argv,
                             key):
        """Run a remote stage with --jobs 2 against a keep-alive server.

        Each client is kept alive past main(), so only its own close()
        can close its connections. Returns the clients made, the server
        and the requests it answered.
        """
        from radpragma.backends import RemoteEndpoint
        clients = []
        real_init = RemoteEndpoint.__init__

        def recording(client, *args, **kwargs):
            clients.append(client)
            real_init(client, *args, **kwargs)

        monkeypatch.setattr(RemoteEndpoint, "__init__", recording)
        posts = []

        def respond(body, handler):
            posts.append(body)
            return 200, {key: body.get("sentence", "No acute process.")}

        url = http_endpoint(respond, keep_alive=True)
        code = main(argv + [url, "--jobs", "2",
                            "--out", str(tmp_path / "out.jsonl")])
        assert code == 0
        return clients, http_endpoint.servers[-1], posts

    def test_generate_remote_shares_one_session(self, tmp_path,
                                                http_endpoint, monkeypatch):
        # One client for the run; it keeps at most one connection per job.
        argv, key = _REMOTE_STAGES[1]
        clients, server, posts = self._run_keeping_clients(
            tmp_path, http_endpoint, monkeypatch, argv, key)
        assert len(clients) == 1
        assert len(posts) == len(read_reports_jsonl(CORPUS))
        assert 1 <= server.opened <= 2 < len(posts)

    @pytest.mark.parametrize("argv, key", _REMOTE_STAGES)
    def test_remote_stage_closes_its_session(self, tmp_path, http_endpoint,
                                             monkeypatch, argv, key):
        clients, server, posts = self._run_keeping_clients(
            tmp_path, http_endpoint, monkeypatch, argv, key)
        assert len(clients) == 1 and server.opened >= 1
        assert server.open_after() == 0

    @pytest.mark.parametrize("argv, key", _REMOTE_STAGES)
    def test_remote_stage_reopens_connections_the_server_closed(
            self, tmp_path, http_endpoint, monkeypatch, argv, key):
        # The server closes each connection after one response, without
        # saying so; with no retries, every request still goes out once.
        monkeypatch.setenv("RADPRAGMA_RETRIES", "0")
        posts = []

        def respond(body, handler):
            posts.append(json.dumps(body, sort_keys=True))
            return 200, {key: body.get("sentence", "No acute process.")}

        url = http_endpoint(respond, drop=True)
        code = main(argv + [url, "--jobs", "2",
                            "--out", str(tmp_path / "out.jsonl")])
        assert code == 0
        assert len(posts) == len(set(posts)) == \
            http_endpoint.servers[-1].opened
        if key == "completion":
            assert len(posts) == len(read_reports_jsonl(CORPUS))

    @staticmethod
    def _only_proxy(monkeypatch, variable, proxy):
        for name in ("http_proxy", "https_proxy", "no_proxy", "NO_PROXY",
                     "REQUEST_METHOD"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(variable, proxy)

    @pytest.mark.parametrize("argv, key", _REMOTE_STAGES)
    def test_remote_stage_posts_through_http_proxy(
            self, tmp_path, http_endpoint, monkeypatch, argv, key):
        # Nothing listens on port 9: only the proxy can answer.
        seen = []

        def respond(body, handler):
            seen.append((handler.command, handler.path,
                         handler.headers["Host"]))
            return 200, {key: body.get("sentence", "No acute process.")}

        self._only_proxy(monkeypatch, "HTTP_PROXY", http_endpoint(respond))
        endpoint = "http://127.0.0.1:9/v1/run?x=1"
        assert main(argv + [endpoint, "--out",
                            str(tmp_path / "out.jsonl")]) == 0
        assert seen and set(seen) == {("POST", endpoint, "127.0.0.1:9")}

    def test_https_endpoint_tunnels_through_https_proxy(
            self, tmp_path, capsys, http_endpoint, monkeypatch):
        seen = []

        def respond(body, handler):
            seen.append((handler.command, handler.path))
            return 403, {}

        self._only_proxy(monkeypatch, "HTTPS_PROXY", http_endpoint(respond))
        endpoint = "https://127.0.0.1:9/generate"
        code = main(["generate", "--requests", CORPUS, "--mode", "remote",
                     "--generation-endpoint", endpoint,
                     "--out", str(tmp_path / "generated.jsonl")])
        assert code == 2
        assert seen == [("CONNECT", "127.0.0.1:9")]
        _single_error(capsys, endpoint, "unreachable", "403")

    def test_clean_remote_against_mock_endpoint(self, tmp_path,
                                                http_endpoint):
        url = http_endpoint(
            lambda body, handler: (200, {"rewritten": body["sentence"]}))
        out = tmp_path / "cleaned.jsonl"
        code = main(["clean", "--in", CORPUS, "--backend", "remote",
                     "--clean-endpoint", url, "--out", str(out),
                     "--jobs", "4"])
        assert code == 0
        assert len(read_reports_jsonl(str(out))) == 12

    def test_clean_remote_jobs_2_writes_what_jobs_1_writes(self, tmp_path,
                                                            http_endpoint):
        # The endpoint rewrites as the pattern backend does, so the label
        # guard has rewrites to check; the worker threads share one
        # lexicon and its memo, which starts empty.
        from radpragma.backends import PatternBackend
        from radpragma.cleaning import DEFAULT_RULES
        rules = {rule.rule_id: rule for rule in DEFAULT_RULES}
        backend = PatternBackend()
        url = http_endpoint(lambda body, handler: (200, {
            "rewritten": backend.rewrite(rules[body["rule_id"]],
                                         body["sentence"])}))
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(shipped_lexicon_json()))
        written = {}
        for jobs in ("1", "2", "pattern"):
            out, audit = tmp_path / f"{jobs}.jsonl", tmp_path / f"{jobs}.audit"
            argv = (["--backend", "pattern"] if jobs == "pattern" else
                    ["--backend", "remote", "--clean-endpoint", url,
                     "--jobs", jobs])
            assert main(["clean", "--in", CORPUS, "--lexicon", str(lexicon),
                         "--out", str(out), "--audit", str(audit)]
                        + argv) == 0
            written[jobs] = (out.read_bytes(), audit.read_bytes())
        assert written["2"] == written["1"] == written["pattern"]
        assert b"accepted" in written["1"][1]
