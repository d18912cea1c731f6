import random

import pytest
from hypothesis import given, strategies as st

from oracles import naive_bleu2, naive_hallucination, naive_label_f1
from synth import (NEGATIVE_SENTENCE, POSITIVE_SENTENCE, SCORABLE,
                   label_vector)

from radpragma.errors import InputError
from radpragma.metrics import (NEGATIVE_F1_5, POSITIVE_F1_5_DEFAULT,
                               KeywordCatalog, _bleu2_scores, bleu2,
                               default_catalog, evaluate_generation,
                               exact_match_accuracy, hallucination_rate,
                               negative_f1, positive_f1)
from radpragma.model import Condition, LabelValue, LabelVector, Report

POS = LabelValue.POSITIVE
NEG = LabelValue.NEGATIVE
UNC = LabelValue.UNCERTAIN


def vectors(rows):
    return {sid: label_vector(mapping)
            for sid, mapping in rows.items()}


class TestPositiveF1:
    def test_identity_with_support_everywhere(self):
        ref = vectors({f"s{i}": {c: POS} for i, c in enumerate(SCORABLE)})
        score, _ = positive_f1(ref, ref)
        assert score == 1.0

    def test_all_not_mentioned_prediction(self):
        ref = vectors({"s1": {Condition.EDEMA: POS}})
        pred = vectors({"s1": {}})
        _, per = positive_f1(pred, ref)
        assert per[Condition.EDEMA].f1 == 0.0
        assert per[Condition.EDEMA].fn == 1

    def test_hand_confusion_matrix(self):
        # TP=2, FP=1, FN=1 for Edema -> F1 = 2/3
        ref = vectors({"a": {Condition.EDEMA: POS},
                       "b": {Condition.EDEMA: POS},
                       "c": {Condition.EDEMA: POS},
                       "d": {}})
        pred = vectors({"a": {Condition.EDEMA: POS},
                        "b": {Condition.EDEMA: POS},
                        "c": {},
                        "d": {Condition.EDEMA: POS}})
        _, per = positive_f1(pred, ref)
        assert per[Condition.EDEMA].f1 == pytest.approx(2.0 / 3.0)
        stats = per[Condition.EDEMA]
        assert (stats.tp, stats.fp, stats.fn) == (2, 1, 1)

    def test_macro_vs_micro(self):
        ref = vectors({"a": {Condition.EDEMA: POS, Condition.PNEUMONIA: POS},
                       "b": {Condition.EDEMA: POS}})
        pred = vectors({"a": {Condition.EDEMA: POS},
                        "b": {Condition.EDEMA: POS}})
        macro, _ = positive_f1(pred, ref, average="macro")
        micro, _ = positive_f1(pred, ref, average="micro")
        assert macro == pytest.approx(1 / 13)  # Edema 1.0; 12 others 0.0
        assert micro == pytest.approx(2 * 2 / (2 * 2 + 0 + 1))  # pooled

    def test_misalignment(self):
        ref = vectors({"a": {}})
        pred = vectors({"b": {}})
        with pytest.raises(InputError, match="misaligned"):
            positive_f1(pred, ref)

    def test_matches_naive_oracle_on_random_labels(self):
        rng = random.Random(77)
        choices = [POS, NEG, UNC, LabelValue.NOT_MENTIONED]
        ref_rows, pred_rows = {}, {}
        for i in range(60):
            ref_rows[f"s{i}"] = {c: rng.choice(choices) for c in SCORABLE}
            pred_rows[f"s{i}"] = {c: rng.choice(choices) for c in SCORABLE}
        ref, pred = vectors(ref_rows), vectors(pred_rows)
        for average in ("macro", "micro"):
            score, _ = positive_f1(pred, ref, average=average)
            naive = naive_label_f1(
                {s: {c: v.value for c, v in m.items()}
                 for s, m in pred_rows.items()},
                {s: {c: v.value for c, v in m.items()}
                 for s, m in ref_rows.items()},
                SCORABLE, "positive", average)
            assert score == pytest.approx(float(naive), abs=1e-12)


class TestNegativeF1:
    def test_never_mentions_negatives(self):
        ref = vectors({"a": {Condition.EDEMA: NEG}})
        pred = vectors({"a": {Condition.EDEMA: POS}})
        _, per = negative_f1(pred, ref)
        assert per[Condition.EDEMA].f1 == 0.0

    def test_identity(self):
        ref = vectors({f"s{i}": {c: NEG} for i, c in enumerate(SCORABLE)})
        score, _ = negative_f1(ref, ref)
        assert score == 1.0

    def test_hand_count(self):
        # TP=1, FP=0, FN=1 -> F1 = 2/3
        ref = vectors({"a": {Condition.PNEUMONIA: NEG},
                       "b": {Condition.PNEUMONIA: NEG}})
        pred = vectors({"a": {Condition.PNEUMONIA: NEG}, "b": {}})
        _, per = negative_f1(pred, ref)
        assert per[Condition.PNEUMONIA].f1 == pytest.approx(2.0 / 3.0)

    def test_depends_only_on_negative_projection(self):
        rng = random.Random(5)
        base_rows = {f"s{i}": {c: rng.choice([POS, NEG, UNC,
                                              LabelValue.NOT_MENTIONED])
                               for c in SCORABLE} for i in range(40)}
        ref = vectors(base_rows)
        flipped_rows = {
            sid: {c: (UNC if v is POS else POS if v is UNC else v)
                  for c, v in mapping.items()}
            for sid, mapping in base_rows.items()}
        flipped = vectors(flipped_rows)
        assert negative_f1(flipped, ref)[0] == \
            pytest.approx(negative_f1(ref, ref)[0])


class TestBleu2:
    def test_identity(self):
        texts = ["No acute process.", "There is a small pleural effusion."]
        assert bleu2(texts, texts) == 1.0

    def test_zero_bigram_overlap(self):
        assert bleu2(["alpha beta gamma"], ["delta epsilon zeta"]) == 0.0

    def test_hand_computed_example(self):
        # p1 = 3/3, p2 = 1/2, BP = exp(1 - 4/3)
        got = bleu2(["no acute process"], ["no acute cardiopulmonary process"])
        assert got == pytest.approx(0.506664148639211, abs=1e-9)

    def test_empty_hypothesis_corpus(self):
        assert bleu2([], []) == 0.0
        assert bleu2([""], ["no edema"]) == 0.0

    def test_brevity_penalty_only_when_shorter(self):
        # same n-gram precisions, hypothesis longer than reference
        assert bleu2(["no acute process here"], ["no acute process"]) < 1.0
        assert bleu2(["no acute process"], ["no acute process"]) == 1.0

    def test_corpus_permutation_invariance(self):
        hyps = ["no edema", "there is pneumonia", "small effusion remains"]
        refs = ["no edema now", "there is no pneumonia", "small effusion"]
        reordered = [2, 0, 1]
        assert bleu2(hyps, refs) == pytest.approx(
            bleu2([hyps[i] for i in reordered], [refs[i] for i in reordered]))

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="mismatch"):
            bleu2(["a"], ["a", "b"])

    def test_matches_naive_oracle(self):
        rng = random.Random(123)
        words = ["no", "acute", "pleural", "effusion", "edema", "small",
                 "right", "left", "is", "there"]
        hyps = [" ".join(rng.choices(words, k=rng.randrange(1, 9)))
                for _ in range(30)]
        refs = [" ".join(rng.choices(words, k=rng.randrange(1, 9)))
                for _ in range(30)]
        assert bleu2(hyps, refs) == pytest.approx(naive_bleu2(hyps, refs),
                                                  abs=1e-12)

    @given(st.data())
    def test_shared_pass_scores_each_reference_list_as_bleu2(self, data):
        # Hypotheses of zero, one or more tokens; each reference list as
        # long as the hypotheses, or (last draw) possibly not.
        texts = st.lists(st.sampled_from(["no", "acute", "edema", "Edema.",
                                          "small", "effusion"]),
                         max_size=4).map(" ".join)
        hyps = data.draw(st.lists(texts, max_size=6))
        refs = [data.draw(st.lists(texts, min_size=len(hyps),
                                   max_size=len(hyps))) for _ in range(2)]
        refs.append(data.draw(st.lists(texts, max_size=7)))
        if len(refs[2]) != len(hyps):
            with pytest.raises(InputError, match="mismatch"):
                _bleu2_scores(hyps, *refs)
            refs.pop()
        scores = _bleu2_scores(hyps, *refs)
        assert scores == [bleu2(hyps, r) for r in refs]
        for score, r in zip(scores, refs):
            assert score == pytest.approx(naive_bleu2(hyps, r), abs=1e-12)

    @given(st.lists(st.text(alphabet="abc XY.,", min_size=0, max_size=20),
                    min_size=0, max_size=6))
    def test_score_bounds(self, texts):
        assert 0.0 <= bleu2(texts, texts) <= 1.0


class TestExactMatch:
    def test_whitespace_only_difference_matches(self):
        assert exact_match_accuracy(["a  b"], ["a b"]) == 1.0

    def test_case_difference_does_not_match(self):
        assert exact_match_accuracy(["A b"], ["a b"]) == 0.0


class TestHallucination:
    def test_prior_comparison_keywords_flagged(self):
        rate, by_category = hallucination_rate(
            ["Compared to prior, improved effusion."])
        assert rate == 1.0
        assert by_category["prior_comparisons"] == 1.0
        assert by_category["recommendations"] == 0.0

    def test_clean_report_not_flagged(self):
        rate, by_category = hallucination_rate(["No pneumothorax."])
        assert rate == 0.0
        assert all(v == 0.0 for v in by_category.values())

    def test_rate_is_exact_fraction(self):
        texts = ["No edema.", "Recommend CT.", "No fracture.",
                 "There is pneumonia."]
        rate, _ = hallucination_rate(texts)
        assert rate == 0.25

    def test_one_report_per_category(self):
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
        for name in planted:
            assert by_category[name] >= 1 / 8
        catalog = {name: list(stems)
                   for name, stems in default_catalog().categories}
        naive_rate, naive_by = naive_hallucination(texts, catalog)
        assert rate == pytest.approx(float(naive_rate))
        for name, value in by_category.items():
            assert value == pytest.approx(float(naive_by[name]))

    def test_short_stems_need_exact_tokens(self):
        rate, by_category = hallucination_rate(
            ["Apical scarring in the pleural space."])
        assert by_category["image_view"] == 0.0  # "ap" must not hit "apical"
        rate, by_category = hallucination_rate(["AP film."])
        assert by_category["image_view"] == 1.0

    def test_new_is_exact_only(self):
        _, by_category = hallucination_rate(["Newly placed line."])
        assert by_category["prior_comparisons"] == 0.0
        _, by_category = hallucination_rate(["New opacity."])
        assert by_category["prior_comparisons"] == 1.0

    def test_monotone_in_reports_and_catalog(self):
        flagged = "Compared to prior, stable."
        clean = "No edema."
        rate_before, _ = hallucination_rate([clean, clean])
        rate_after, _ = hallucination_rate([clean, clean, flagged])
        assert rate_after >= rate_before
        full = default_catalog()
        subset = KeywordCatalog(
            version="sub", categories=(full.categories[0],))
        texts = [flagged, clean, "Recommend CT.", "AP view."]
        assert hallucination_rate(texts, subset)[0] <= \
            hallucination_rate(texts, full)[0]

    def test_catalog_validation(self):
        with pytest.raises(InputError, match="lowercase"):
            KeywordCatalog(version="x", categories=(("a", ("Bad",)),))
        with pytest.raises(InputError, match="empty"):
            KeywordCatalog(version="x", categories=(("a", ()),))

    def test_default_catalog_matches_published_lists(self):
        catalog = dict(default_catalog().categories)
        assert catalog["prior_procedures"] == ("status",)
        assert catalog["image_view"] == ("ap", "pa", "lateral", "view")
        assert catalog["recommendations"] == ("recommend", "suggest", "should")
        assert catalog["communication"] == (
            "findings", "commun", "report", "convey", "relay", "enter",
            "submit")
        assert len(catalog["prior_comparisons"]) == 21
        assert {"compar", "interval", "new", "redemonstrate"} <= \
            set(catalog["prior_comparisons"])


def identity_corpus():
    reports = []
    for i, condition in enumerate(SCORABLE):
        other = SCORABLE[(i + 1) % len(SCORABLE)]
        impression = (POSITIVE_SENTENCE[condition] + " "
                      + NEGATIVE_SENTENCE[other])
        reports.append(Report(study_id=f"s{i}", impression=impression))
    return reports


class TestEvaluateGeneration:
    def test_identity_scores_perfect(self):
        reports = identity_corpus()
        result = evaluate_generation(reports, reports, reports)
        assert result.pos_f1 == 1.0
        assert result.neg_f1 == 1.0
        assert result.pos_f1_5 == 1.0
        assert result.neg_f1_5 == 1.0
        assert result.bleu2 == 1.0
        assert result.clean_bleu2 == 1.0
        assert result.hallucination_rate == 0.0
        assert result.neg_f1_5_conditions == NEGATIVE_F1_5

    def test_misalignment(self):
        reports = identity_corpus()
        with pytest.raises(InputError, match="misaligned"):
            evaluate_generation(reports, reports[:-1] + [
                Report(study_id="zz", impression="x")], reports)

    def test_support_counts(self):
        reports = identity_corpus()
        result = evaluate_generation(reports, reports, reports)
        pos = dict(result.per_condition_pos)
        neg = dict(result.per_condition_neg)
        per_condition = result.to_dict()["per_condition"]
        for condition in SCORABLE:
            assert (pos[condition].support, neg[condition].support) == (1, 1)
            row = per_condition[condition.value]
            assert (row["support_positive"], row["support_negative"]) == (1, 1)

    def test_planted_errors_match_independent_oracle(self):
        rng = random.Random(42)
        gen, orig = [], []
        gen_rows, ref_rows = {}, {}
        for i in range(20):
            sid = f"p{i}"
            ref_cond = rng.choice(SCORABLE)
            ref_neg = rng.choice([c for c in SCORABLE if c is not ref_cond])
            orig_text = (POSITIVE_SENTENCE[ref_cond] + " "
                         + NEGATIVE_SENTENCE[ref_neg])
            if i % 4 == 0:  # drop the negative mention
                gen_text = POSITIVE_SENTENCE[ref_cond]
                gen_rows[sid] = {ref_cond: "positive"}
            elif i % 4 == 1:  # wrong positive condition
                wrong = rng.choice([c for c in SCORABLE
                                    if c not in (ref_cond, ref_neg)])
                gen_text = (POSITIVE_SENTENCE[wrong] + " "
                            + NEGATIVE_SENTENCE[ref_neg])
                gen_rows[sid] = {wrong: "positive", ref_neg: "negative"}
            else:  # exact
                gen_text = orig_text
                gen_rows[sid] = {ref_cond: "positive", ref_neg: "negative"}
            ref_rows[sid] = {ref_cond: "positive", ref_neg: "negative"}
            gen.append(Report(study_id=sid, impression=gen_text))
            orig.append(Report(study_id=sid, impression=orig_text))
        result = evaluate_generation(gen, orig, orig)
        naive_pos = naive_label_f1(gen_rows, ref_rows, SCORABLE, "positive")
        naive_neg = naive_label_f1(gen_rows, ref_rows, SCORABLE, "negative")
        assert result.pos_f1 == pytest.approx(float(naive_pos), abs=1e-12)
        assert result.neg_f1 == pytest.approx(float(naive_neg), abs=1e-12)
        naive_b = naive_bleu2([r.impression for r in gen],
                              [r.impression for r in orig])
        assert result.bleu2 == pytest.approx(naive_b, abs=1e-12)

    def test_reference_labels_override_labeler(self):
        reports = identity_corpus()
        override = {r.study_id: LabelVector.all_not_mentioned()
                    for r in reports}
        result = evaluate_generation(reports, reports, reports,
                                     reference_labels=override)
        assert result.pos_f1 == 0.0

    def test_pos_five_selection_prefers_frequency(self):
        rows = {}
        for i in range(6):
            rows[f"a{i}"] = {Condition.PNEUMOTHORAX: POS}
        for i in range(4):
            rows[f"b{i}"] = {Condition.FRACTURE: POS}
        ref = vectors(rows)
        reports = [Report(study_id=sid, impression="") for sid in ref]
        five = evaluate_generation(reports, reports, reports,
                                   reference_labels=ref).pos_f1_5_conditions
        assert five[0] is Condition.PNEUMOTHORAX
        assert five[1] is Condition.FRACTURE
        # remaining slots fill by canonical order among zero-count conditions
        assert five[2:] == (Condition.ATELECTASIS, Condition.CARDIOMEGALY,
                            Condition.CONSOLIDATION)

    def test_pos_five_default_when_no_positives(self):
        ref = vectors({"a": {}})
        reports = [Report(study_id="a", impression="")]
        five = evaluate_generation(reports, reports, reports,
                                   reference_labels=ref).pos_f1_5_conditions
        assert five == POSITIVE_F1_5_DEFAULT

    def test_clean_bleu_of_guard_cleaned_corpus_against_itself(self):
        from radpragma.backends import PatternBackend
        from radpragma.cleaning import clean_report

        originals = [
            Report(study_id="a", impression=(
                "New large right pneumothorax. Recommend follow up.")),
            Report(study_id="b", impression=(
                "In comparison with the study of ___, there is edema.")),
            Report(study_id="c", impression="No pneumonia."),
        ]
        cleaned = [clean_report(r, PatternBackend()) for r in originals]
        result = evaluate_generation(cleaned, originals, cleaned)
        assert result.clean_bleu2 == 1.0
