"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold; tolerances
and runtime budgets are pinned here and nowhere else.
"""

import filecmp
import itertools
import os
import time

import numpy as np
import pytest
from scipy import special

from oracles import naive_hallucination, naive_summary
from pipeline import PRIMARY_OUTPUTS, run_pipeline
from synth import (NEGATIVE_SENTENCE, POSITIVE_SENTENCE, SCORABLE,
                   AdversarialBackend, build_generator_fixture,
                   build_label_corpus, guard_fixture_sentences, label_vector)

from radpragma.backends import PatternBackend
from radpragma.cleaning import (DEFAULT_RULES, REMOVED, apply_rule,
                                clean_sentence, evaluate_cleaning)
from radpragma.generator import (GenerationRequest, RetrievalIndex,
                                 build_index, generate_retrieval)
from radpragma.labeler import (default_lexicon, indication_mentions,
                               label_report, label_sentence)
from radpragma.corpus_io import read_reports_jsonl, write_reports_jsonl
from radpragma.metrics import (bleu2, default_catalog, evaluate_generation,
                               hallucination_rate, negative_f1, positive_f1)
from radpragma.model import CONDITIONS, LabelVector, Report
from radpragma.stats import (ContingencyTable2x2, chi_square_test,
                             conditional_negative_rates, summarize)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
RULES = {rule.rule_id: rule for rule in DEFAULT_RULES}

# Every published original -> cleaned pair for the seven rules; rule 1 has
# two circulating originals differing only in the de-id blank, both covered.
CLEANING_PAIRS = [
    (1, "In comparison with the study of, there are slightly improved lung "
        "volumes.",
     "There are slightly improved lung volumes."),
    (1, "In comparison with the study of ___, there are slightly improved "
        "lung volumes.",
     "There are slightly improved lung volumes."),
    (2, "These findings were communicated via the radiology critical "
        "results dashboard at 12:57 p.m.",
     "REMOVED"),
    (3, "Recommend advising patient to avoid palpating the area to avoid "
        "irritating it.",
     "REMOVED"),
    (4, "Small lateral pneumothorax is present in this patient status post "
        "right first rib resection.",
     "Small lateral pneumothorax is present in this patient"),
    (4, "Lateral view raises concern for pneumonia at the left lung base",
     "Concern for pneumonia at the left lung base"),
    (5, "New large right pneumothorax",
     "Large right pneumothorax"),
    (5, "Mild interval increase in loculated right pleural effusion",
     "Loculated right pleural effusion."),
    (6, "Small right pleural effusion probably unchanged since",
     "Small right pleural effusion"),
    (6, "Mild pulmonary edema appears slightly improved",
     "Mild pulmonary edema"),
    (7, "Resolved opacities in the left mid lung.",
     "No opacities in the left mid lung."),
]


def test_acceptance_1_cleaning_examples():
    backend = PatternBackend()
    started = time.perf_counter()
    for rule_id, original, expected in CLEANING_PAIRS:
        got = apply_rule(original, RULES[rule_id], backend)
        assert got == expected, (rule_id, original, got)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"cleaning examples took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (cleaning examples, {len(CLEANING_PAIRS)} pairs "
          f"byte-exact, {elapsed * 1000:.0f} ms): PASS")


def test_acceptance_2_label_guard():
    lexicon = default_lexicon()
    backend = AdversarialBackend(flip_rate=0.2)
    sentences = guard_fixture_sentences(count=1000, seed=20230811)
    started = time.perf_counter()
    cleaned = [clean_sentence(s, backend, lexicon=lexicon)
               for s in sentences]
    checked = 0
    for original, final in zip(sentences, cleaned):
        before = label_sentence(original, lexicon)
        if before == LabelVector.all_not_mentioned():
            continue
        checked += 1
        assert final != REMOVED, original
        assert label_sentence(final, lexicon) == before, (original, final)
    scores = evaluate_cleaning(cleaned, sentences, sentences, lexicon)
    assert scores["pos_f1"] == 1.0
    assert scores["neg_f1"] == 1.0
    elapsed = time.perf_counter() - started
    assert checked >= 700, "fixture should be dominated by mention sentences"
    assert backend.corruptions > 50, "adversary should have fired"
    assert elapsed < 10.0, f"label guard run took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 (label guard, {checked}/{len(sentences)} mention "
          f"sentences preserved, Pos F1 1.000, Neg F1 1.000, "
          f"{elapsed:.1f} s): PASS")


def test_acceptance_3_chi_square_oracle():
    started = time.perf_counter()
    exact = chi_square_test(ContingencyTable2x2(10, 10, 10, 10))
    assert exact == (0.0, 1.0)

    size = 30 ** 4
    statistics = np.empty(size)
    p_values = np.empty(size)
    cells = np.empty((size, 4))
    for i, (a, b, c, d) in enumerate(
            itertools.product(range(1, 31), repeat=4)):
        statistic, p_value = chi_square_test(ContingencyTable2x2(a, b, c, d))
        statistics[i] = statistic
        p_values[i] = p_value
        cells[i] = (a, b, c, d)
    a, b, c, d = cells.T
    n = a + b + c + d
    closed_form = n * (a * d - b * c) ** 2 / ((a + b) * (c + d)
                                              * (a + c) * (b + d))
    stat_error = np.abs(statistics - closed_form).max()
    assert stat_error < 1e-9, stat_error
    oracle = special.gammaincc(0.5, statistics / 2.0)
    p_error = np.abs(p_values - oracle).max()
    assert p_error < 1e-8, p_error

    # spot-anchor the scipy oracle itself against mpmath (40-digit) values
    import mpmath as mp
    mp.mp.dps = 40
    for statistic in (0.5, 3.841458820694124, 20.0 / 3.0, 25.0):
        reference = float(mp.gammainc(mp.mpf(1) / 2, mp.mpf(statistic) / 2,
                                      mp.inf, regularized=True))
        assert abs(float(special.gammaincc(0.5, statistic / 2.0))
                   - reference) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"chi-square sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 (chi-square sweep over {size} tables, "
          f"max stat err {stat_error:.2e}, max p err {p_error:.2e}, "
          f"{elapsed:.1f} s): PASS")


def test_acceptance_4_conditional_rates_and_recount():
    from radpragma.model import Condition, LabelValue

    # planted contingency table (a, b, c, d) = (3, 1, 2, 14)
    rows = {}
    for i in range(3):
        rows[f"a{i}"] = ({Condition.PNEUMONIA: LabelValue.NEGATIVE},
                         {Condition.PNEUMONIA})
    rows["b0"] = ({}, {Condition.PNEUMONIA})
    for i in range(2):
        rows[f"c{i}"] = ({Condition.PNEUMONIA: LabelValue.NEGATIVE}, set())
    for i in range(14):
        rows[f"d{i}"] = ({}, set())
    reports = [Report(study_id=sid, impression="x") for sid in rows]
    labels = {sid: label_vector(mapping)
              for sid, (mapping, _) in rows.items()}
    mentions = {sid: frozenset(ms) for sid, (_, ms) in rows.items()}
    p_in, p_out, table = conditional_negative_rates(
        reports, labels, mentions, Condition.PNEUMONIA)
    assert (table.a, table.b, table.c, table.d) == (3, 1, 2, 14)
    assert p_in == 0.75
    assert p_out == 0.125

    corpus, corpus_labels, corpus_mentions = build_label_corpus(count=500)
    summary = summarize(corpus, corpus_labels, corpus_mentions).to_dict()
    recount = naive_summary(
        [r.study_id for r in corpus],
        {sid: {c: v.value for c, v in vec.as_mapping().items()}
         for sid, vec in corpus_labels.items()},
        corpus_mentions)
    assert summary["report_count"] == recount["report_count"]
    for key in ("pct_no_finding", "avg_positive_mentions",
                "avg_positive_mentions_non_no_finding",
                "avg_negative_mentions",
                "avg_negative_mentions_non_no_finding"):
        assert summary[key] == pytest.approx(recount[key], abs=1e-12), key
    for condition in CONDITIONS:
        have = summary["per_condition"][condition.value]
        want = recount["per_condition"][condition]
        assert have["negative_mentions"] == want["negative_mentions"]
        assert have["indication_mentions"] == want["indication_mentions"]
        pct = want["pct_reports_with_negative_given_indication"]
        if pct is None:
            assert have["pct_reports_with_negative_given_indication"] is None
        else:
            assert have["pct_reports_with_negative_given_indication"] == \
                pytest.approx(pct, abs=1e-12)
    print("\nACCEPTANCE 4 (conditional rates 0.75/0.125 exact, 500-report "
          "recount field-for-field): PASS")


def test_acceptance_5_metrics_identities():
    # identity corpus with positive and negative support for every condition
    reports = []
    for i, condition in enumerate(SCORABLE):
        other = SCORABLE[(i + 1) % len(SCORABLE)]
        reports.append(Report(
            study_id=f"s{i}",
            impression=POSITIVE_SENTENCE[condition] + " "
            + NEGATIVE_SENTENCE[other]))
    result = evaluate_generation(reports, reports, reports)
    assert result.pos_f1 == 1.0
    assert result.neg_f1 == 1.0
    assert result.bleu2 == 1.0
    assert result.clean_bleu2 == 1.0
    ref_rate, _ = hallucination_rate([r.impression for r in reports])
    assert result.hallucination_rate == ref_rate == 0.0

    # hand-computed BLEU-2: p1 = 1, p2 = 1/2, BP = exp(1 - 4/3)
    hand = bleu2(["no acute process"], ["no acute cardiopulmonary process"])
    assert hand == pytest.approx(0.5067, abs=1e-4)
    assert hand == pytest.approx(0.506664148639211, abs=1e-9)

    # hallucination detector flags exactly the planted reports
    planted = {
        "prior_comparisons": "Compared to prior, improved effusion.",
        "prior_procedures": "The patient is status post rib resection.",
        "communication": "These findings were conveyed to the team.",
        "image_view": "AP and lateral views were obtained.",
        "recommendations": "Follow up imaging should be considered.",
    }
    clean = ["There is pneumonia.", "No pneumothorax.", "Moderate edema."]
    texts = list(planted.values()) + clean
    rate, by_category = hallucination_rate(texts)
    assert rate == pytest.approx(5 / 8)
    for name, text in planted.items():
        assert by_category[name] >= 1 / 8, name
    catalog = {name: list(stems)
               for name, stems in default_catalog().categories}
    naive_rate, naive_by = naive_hallucination(texts, catalog)
    assert rate == pytest.approx(float(naive_rate), abs=1e-12)
    for name, value in by_category.items():
        assert value == pytest.approx(float(naive_by[name]), abs=1e-12)
    print("\nACCEPTANCE 5 (metric identities 1.0, BLEU-2 hand value "
          f"{hand:.6f}, hallucination fixture exact): PASS")


def test_acceptance_6_generator_soundness():
    lexicon = default_lexicon()
    started = time.perf_counter()
    corpus, requests, references = build_generator_fixture(count=500)
    index = build_index(corpus, lexicon)

    generated = []
    for spec in requests:
        request = GenerationRequest(study_id=spec["study_id"],
                                    indication=spec["indication"],
                                    predicted_positives=spec["positives"])
        result = generate_retrieval(request, index, lexicon)
        assert result.exact_key_match, spec
        assert result.pool_empty == (), spec
        labeled = label_report(result.text, lexicon)
        assert labeled.positives() == spec["positives"], spec  # soundness
        mentioned = indication_mentions(spec["indication"], lexicon)
        added = {c for c, _ in result.negatives_added}
        for condition in mentioned:  # coverage: exactly one of three
            assert (condition in spec["positives"]) ^ (condition in added) \
                ^ (condition in result.pool_empty), (spec, condition)
        generated.append(Report(study_id=spec["study_id"],
                                impression=result.text))

    rate, _ = hallucination_rate([r.impression for r in generated])
    assert rate == 0.0

    gen_labels = {r.study_id: label_report(r.impression, lexicon)
                  for r in generated}
    ref_labels = {r.study_id: label_report(r.impression, lexicon)
                  for r in references}
    full_neg_f1, _ = negative_f1(gen_labels, ref_labels)
    assert full_neg_f1 >= 0.9, full_neg_f1

    # ablation: drop the indication, keep everything else
    ablated = []
    for spec in requests:
        request = GenerationRequest(study_id=spec["study_id"], indication="",
                                    predicted_positives=spec["positives"])
        result = generate_retrieval(request, index, lexicon)
        ablated.append(Report(study_id=spec["study_id"],
                              impression=result.text))
    abl_labels = {r.study_id: label_report(r.impression, lexicon)
                  for r in ablated}
    ablated_neg_f1, _ = negative_f1(abl_labels, ref_labels)
    assert ablated_neg_f1 <= 0.2, ablated_neg_f1

    pos_f1_full, _ = positive_f1(gen_labels, ref_labels)
    assert pos_f1_full == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"generator fixture took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 (generator soundness 100%, coverage 100%, "
          f"hallucination 0.0, Neg F1 {full_neg_f1:.3f} vs ablation "
          f"{ablated_neg_f1:.3f}, {elapsed:.1f} s): PASS")


def test_acceptance_7_determinism_and_round_trip(tmp_path):
    corpus_path = os.path.join(FIXTURES, "corpus.jsonl")
    dir_a = tmp_path / "run_a"
    dir_b = tmp_path / "run_b"
    dir_a.mkdir()
    dir_b.mkdir()
    paths_a = run_pipeline(corpus_path, str(dir_a))
    paths_b = run_pipeline(corpus_path, str(dir_b))
    for name in PRIMARY_OUTPUTS:
        assert filecmp.cmp(paths_a[name], paths_b[name], shallow=False), \
            f"{name} differs between identical runs"

    # corpus serialization round-trip
    corpus = read_reports_jsonl(corpus_path)
    round_trip_path = tmp_path / "round_trip.jsonl"
    write_reports_jsonl(corpus, str(round_trip_path))
    assert read_reports_jsonl(str(round_trip_path)) == corpus

    # index serialization round-trip
    lexicon = default_lexicon()
    cleaned = read_reports_jsonl(paths_a["cleaned.jsonl"])
    index = build_index(cleaned, lexicon)
    index_path = tmp_path / "index.json"
    index.save(str(index_path))
    assert RetrievalIndex.load(str(index_path), lexicon) == index
    print("\nACCEPTANCE 7 (two pipeline runs byte-identical, corpus and "
          "index round-trips exact): PASS")
