import itertools
import math
import random

import pytest

from oracles import naive_summary
from synth import build_label_corpus, label_vector

from radpragma.errors import DegenerateTableError, InputError
from radpragma.model import Condition, LabelValue, Report
from radpragma.stats import (ContingencyTable2x2, CorpusSummary,
                             chi_square_test, conditional_negative_rates,
                             shift_report, summarize)

POS = LabelValue.POSITIVE
NEG = LabelValue.NEGATIVE
NM = LabelValue.NOT_MENTIONED


class TestChiSquare:
    def test_perfect_independence_is_exact(self):
        statistic, p_value = chi_square_test(ContingencyTable2x2(10, 10, 10, 10))
        assert statistic == 0.0
        assert p_value == 1.0

    def test_hand_computed_table(self):
        # N(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)) = 60*300^2/30^4 = 20/3
        statistic, p_value = chi_square_test(ContingencyTable2x2(20, 10, 10, 20))
        assert statistic == pytest.approx(20.0 / 3.0, abs=1e-12)
        # frozen from mpmath.gammainc(0.5, stat/2, inf, regularized=True)
        assert p_value == pytest.approx(0.009823274507519248, abs=1e-10)

    @pytest.mark.parametrize("table", [
        ContingencyTable2x2(0, 0, 5, 5),
        ContingencyTable2x2(5, 0, 5, 0),
        ContingencyTable2x2(0, 5, 0, 5),
    ])
    def test_degenerate_marginal(self, table):
        with pytest.raises(DegenerateTableError, match="degenerate table"):
            chi_square_test(table)

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ContingencyTable2x2(-1, 1, 1, 1)

    def test_closed_form_small_sweep(self):
        for a, b, c, d in itertools.product(range(1, 7), repeat=4):
            statistic, _ = chi_square_test(ContingencyTable2x2(a, b, c, d))
            n = a + b + c + d
            closed = (n * (a * d - b * c) ** 2
                      / ((a + b) * (c + d) * (a + c) * (b + d)))
            assert abs(statistic - closed) < 1e-9

    def test_closed_form_random_tables_up_to_50(self):
        rng = random.Random(17)
        for _ in range(2000):
            a, b, c, d = (rng.randrange(1, 51) for _ in range(4))
            statistic, _ = chi_square_test(ContingencyTable2x2(a, b, c, d))
            n = a + b + c + d
            closed = (n * (a * d - b * c) ** 2
                      / ((a + b) * (c + d) * (a + c) * (b + d)))
            assert abs(statistic - closed) < 1e-9

    def test_p_value_monotone_in_statistic(self):
        rng = random.Random(3)
        tables = [ContingencyTable2x2(rng.randrange(1, 40), rng.randrange(1, 40),
                                      rng.randrange(1, 40), rng.randrange(1, 40))
                  for _ in range(300)]
        results = sorted(chi_square_test(t) for t in tables)
        for (s1, p1), (s2, p2) in zip(results, results[1:]):
            if s2 > s1:
                assert p2 <= p1


class TestChiSquarePValue:
    # frozen from mpmath at 40 digits: erfc(sqrt(s / 2)) for the table's
    # exact rational statistic s
    ANCHORS = {
        (11, 9, 9, 11): 0.5270892568655381,
        (20, 10, 10, 20): 0.009823274507519249,
        (30, 10, 10, 30): 7.744216431044084e-06,
        (40, 5, 5, 40): 1.5990512424004002e-13,
        (90, 10, 10, 90): 1.1224297172982926e-29,
        (200, 1, 1, 200): 1.0924942315173735e-87,
    }

    def test_against_high_precision_anchors(self):
        for cells, expected in self.ANCHORS.items():
            _, p_value = chi_square_test(ContingencyTable2x2(*cells))
            assert p_value == pytest.approx(expected, abs=1e-12), cells
            # the absolute bound says nothing about the tiny tails
            assert math.isclose(p_value, expected, rel_tol=1e-12), cells

    def test_bounds(self):
        assert chi_square_test(ContingencyTable2x2(7, 7, 7, 7))[1] == 1.0
        for cells in ((200, 1, 1, 200), (5000, 1, 1, 5000)):
            _, p_value = chi_square_test(ContingencyTable2x2(*cells))
            assert 0.0 <= p_value < 1e-80


def _corpus(rows):
    """rows: {study_id: (label mapping, mention set)}"""
    reports = [Report(study_id=sid, impression="x") for sid in rows]
    labels = {sid: label_vector(mapping)
              for sid, (mapping, _) in rows.items()}
    mentions = {sid: frozenset(ms) for sid, (_, ms) in rows.items()}
    return reports, labels, mentions


class TestConditionalRates:
    def test_planted_table(self):
        # a=3, b=1, c=2, d=14 for Pneumonia
        rows = {}
        for i in range(3):
            rows[f"a{i}"] = ({Condition.PNEUMONIA: NEG}, {Condition.PNEUMONIA})
        rows["b0"] = ({}, {Condition.PNEUMONIA})
        for i in range(2):
            rows[f"c{i}"] = ({Condition.PNEUMONIA: NEG}, set())
        for i in range(14):
            rows[f"d{i}"] = ({}, set())
        reports, labels, mentions = _corpus(rows)
        p_in, p_out, table = conditional_negative_rates(
            reports, labels, mentions, Condition.PNEUMONIA)
        assert (table.a, table.b, table.c, table.d) == (3, 1, 2, 14)
        assert p_in == 0.75
        assert p_out == 0.125

    def test_positive_reports_excluded_from_population(self):
        rows = {
            "p": ({Condition.EDEMA: POS}, {Condition.EDEMA}),
            "n": ({Condition.EDEMA: NEG}, {Condition.EDEMA}),
            "m": ({}, set()),
        }
        reports, labels, mentions = _corpus(rows)
        _, _, table = conditional_negative_rates(
            reports, labels, mentions, Condition.EDEMA)
        assert table.total == 2  # the positive report is ignored

    def test_never_in_indication_is_undefined(self):
        rows = {"x": ({Condition.EDEMA: NEG}, set()), "y": ({}, set())}
        reports, labels, mentions = _corpus(rows)
        p_in, p_out, _ = conditional_negative_rates(
            reports, labels, mentions, Condition.EDEMA)
        assert p_in is None
        assert p_out == 0.5

    def test_no_finding_rejected(self):
        reports, labels, mentions = _corpus({"x": ({}, set())})
        with pytest.raises(ValueError, match="No Finding"):
            conditional_negative_rates(reports, labels, mentions,
                                       Condition.NO_FINDING)


class TestSummarize:
    def test_single_silent_report(self):
        reports, labels, mentions = _corpus({"s": ({}, set())})
        summary = summarize(reports, labels, mentions)
        assert summary.report_count == 1
        assert summary.avg_positive_mentions == 0.0
        assert summary.avg_negative_mentions == 0.0
        assert summary.pct_no_finding == 0.0

    def test_hand_planted_counts(self):
        rows = {
            "s1": ({Condition.PNEUMONIA: POS, Condition.EDEMA: NEG},
                   {Condition.EDEMA}),
            "s2": ({Condition.NO_FINDING: POS}, set()),
            "s3": ({Condition.EDEMA: NEG, Condition.PNEUMOTHORAX: NEG,
                    Condition.PLEURAL_EFFUSION: POS},
                   {Condition.PNEUMOTHORAX, Condition.PNEUMONIA}),
        }
        reports, labels, mentions = _corpus(rows)
        summary = summarize(reports, labels, mentions)
        assert summary.report_count == 3
        assert summary.pct_no_finding == pytest.approx(100.0 / 3.0)
        assert summary.avg_positive_mentions == pytest.approx(2.0 / 3.0)
        assert summary.avg_negative_mentions == pytest.approx(1.0)
        assert summary.avg_negative_mentions_non_no_finding == \
            pytest.approx(1.5)
        stats_by = dict(summary.per_condition)
        assert stats_by[Condition.EDEMA].negative_mentions == 2
        assert stats_by[Condition.EDEMA].indication_mentions == 1
        assert stats_by[Condition.EDEMA] \
            .pct_reports_with_negative_given_indication == 100.0
        assert stats_by[Condition.PNEUMONIA] \
            .pct_reports_with_negative_given_indication == 100.0
        assert stats_by[Condition.FRACTURE] \
            .pct_reports_with_negative_given_indication is None

    def test_matches_brute_force_recount(self):
        reports, labels, mentions = build_label_corpus(count=200, seed=11)
        summary = summarize(reports, labels, mentions)
        expected = naive_summary(
            [r.study_id for r in reports],
            {sid: {c: v.value for c, v in vec.as_mapping().items()}
             for sid, vec in labels.items()},
            mentions)
        got = summary.to_dict()
        assert got["report_count"] == expected["report_count"]
        for key in ("pct_no_finding", "avg_positive_mentions",
                    "avg_positive_mentions_non_no_finding",
                    "avg_negative_mentions",
                    "avg_negative_mentions_non_no_finding"):
            assert got[key] == pytest.approx(expected[key]), key
        for condition, want in expected["per_condition"].items():
            have = got["per_condition"][condition.value]
            assert have["negative_mentions"] == want["negative_mentions"]
            assert have["indication_mentions"] == want["indication_mentions"]
            if want["pct_reports_with_negative_given_indication"] is None:
                assert have["pct_reports_with_negative_given_indication"] \
                    is None
            else:
                assert have["pct_reports_with_negative_given_indication"] == \
                    pytest.approx(
                        want["pct_reports_with_negative_given_indication"])

    def test_missing_labels_name_the_id(self):
        reports = [Report(study_id="ghost", impression="x")]
        with pytest.raises(InputError, match="ghost"):
            summarize(reports, {}, {"ghost": frozenset()})

    def test_summary_json_round_trip(self):
        reports, labels, mentions = build_label_corpus(count=40, seed=5)
        summary = summarize(reports, labels, mentions)
        assert CorpusSummary.from_dict(summary.to_dict()) == summary


class TestShiftReport:
    def _summary_with(self, **overrides):
        reports, labels, mentions = build_label_corpus(count=30, seed=2)
        summary = summarize(reports, labels, mentions)
        if not overrides:
            return summary
        return summary._replace(**overrides)

    def test_identical_summaries_have_no_flags(self):
        summary = self._summary_with()
        shift = shift_report(summary, summary)
        assert shift.flagged_fields() == ()

    def test_single_planted_delta_yields_one_flag(self):
        summary = self._summary_with()
        moved = self._summary_with(
            avg_negative_mentions=summary.avg_negative_mentions * 1.3)
        shift = shift_report(summary, moved)
        flagged = shift.flagged_fields()
        assert [f.field for f in flagged] == ["avg_negative_mentions"]
        assert flagged[0].relative == pytest.approx(0.3)

    def test_train_test_negative_shift_is_flagged(self):
        summary = self._summary_with(avg_negative_mentions=0.485)
        moved = self._summary_with(avg_negative_mentions=0.255)
        shift = shift_report(summary, moved)
        (flag,) = [f for f in shift.flagged_fields()
                   if f.field == "avg_negative_mentions"]
        assert flag.relative == pytest.approx(0.4742268041237113)

    def test_threshold_is_configurable(self):
        summary = self._summary_with()
        moved = self._summary_with(
            avg_negative_mentions=summary.avg_negative_mentions * 1.3)
        assert shift_report(summary, moved, threshold=0.5).flagged_fields() \
            == ()

    def test_zero_baseline_with_change_flags_infinite_delta(self):
        summary = self._summary_with(avg_negative_mentions=0.0)
        moved = self._summary_with(avg_negative_mentions=0.1)
        (flag,) = [f for f in shift_report(summary, moved).flagged_fields()
                   if f.field == "avg_negative_mentions"]
        assert flag.relative == math.inf
