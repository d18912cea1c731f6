"""Corpus statistics, indication-conditioned negative-mention rates, and the
Pearson chi-square independence test (1 dof, closed-form p-value).

The conditional rates compare how often a condition is explicitly negated
when it is asked about in the indication versus when it is not, restricted
to reports where the condition is negative or not mentioned:

    p_in  = |{R : R_X = negative and X in I(R)}|
            / |{R : R_X in {negative, not-mentioned} and X in I(R)}|
    p_out = analogous with X not in I(R)

Undefined rates (zero denominator) surface as ``None``, never as 0.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional, Sequence

from .corpus_io import expect, fits, lookup
from .errors import DegenerateTableError, InputError
from .model import (CONDITIONS, SCORABLE_CONDITIONS, Condition, Frozen,
                    LabelValue, LabelVector, Report)


class ContingencyTable2x2(Frozen):
    """Counts for one condition X over reports with R_X in {negative, not-mentioned}.

    Rows: X in indication vs not. Columns: R_X negative vs not-mentioned.
    ``a``: X in I(R), R_X negative; ``b``: X in I(R), R_X not-mentioned;
    ``c``: X not in I(R), R_X negative; ``d``: X not in I(R), R_X
    not-mentioned.
    """

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        cells = {"a": a, "b": b, "c": c, "d": d}
        for name, value in cells.items():
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"cell {name} must be a non-negative "
                                 f"integer, got {value!r}")
        vars(self).update(cells)

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


def chi_square_test(table: ContingencyTable2x2) -> tuple[float, float]:
    """Pearson chi-square statistic (1 dof, no continuity correction) and its
    upper-tail p-value.

    The statistic is computed from observed-vs-expected cell counts. With
    one degree of freedom the chi-square upper tail has the closed form
    ``erfc(sqrt(statistic / 2))`` (Abramowitz & Stegun, ch. 26).
    """
    row1 = table.a + table.b
    row2 = table.c + table.d
    col1 = table.a + table.c
    col2 = table.b + table.d
    if min(row1, row2, col1, col2) == 0:
        raise DegenerateTableError("degenerate table: zero marginal")
    n = float(table.total)
    statistic = 0.0
    for observed, row, col in ((table.a, row1, col1), (table.b, row1, col2),
                               (table.c, row2, col1), (table.d, row2, col2)):
        expected = row * col / n
        diff = observed - expected
        statistic += diff * diff / expected
    return statistic, math.erfc(math.sqrt(statistic / 2.0))


class ConditionStats(NamedTuple):
    negative_mentions: int
    indication_mentions: int
    pct_reports_with_negative_given_indication: Optional[float]


class CorpusSummary(NamedTuple):
    report_count: int
    pct_no_finding: float
    avg_positive_mentions: float
    avg_positive_mentions_non_no_finding: Optional[float]
    avg_negative_mentions: float
    avg_negative_mentions_non_no_finding: Optional[float]
    per_condition: tuple[tuple[Condition, ConditionStats], ...]

    def scalar_fields(self) -> dict[str, Optional[float]]:
        out = {name: _as_float(getattr(self, name))
               for name in _SUMMARY_SCALARS}
        for condition, stats in self.per_condition:
            for name in _CONDITION_FIELDS:
                out[f"{condition.value}/{name}"] = \
                    _as_float(getattr(stats, name))
        return out

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in _SUMMARY_SCALARS}
        out["per_condition"] = {c.value: s._asdict()
                                for c, s in self.per_condition}
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "CorpusSummary":
        try:
            stats = expect(obj["per_condition"], dict, "per_condition")
            per_condition = tuple(
                (condition, ConditionStats(**_numbers(
                    expect(stats[condition.value], dict,
                           f"per_condition {condition.value!r}"),
                    _CONDITION_FIELDS, f"{condition.value}/")))
                for condition in CONDITIONS)
            return cls(per_condition=per_condition,
                       **_numbers(obj, _SUMMARY_SCALARS, ""))
        except KeyError as exc:
            raise InputError(f"invalid corpus summary: missing {exc}") from None
        except InputError as exc:
            raise InputError(f"invalid corpus summary: {exc}") from None


_SUMMARY_SCALARS = CorpusSummary._fields[:-1]  # all but per_condition
_CONDITION_FIELDS = ConditionStats._fields
#: Each field's annotation, as text.
_FIELD_TYPES = {name: annotation.__forward_arg__
                for cls in (CorpusSummary, ConditionStats)
                for name, annotation in cls.__annotations__.items()}


def _numbers(record: dict, names: Sequence[str], prefix: str) -> dict:
    """``record``'s values for ``names``, each checked against its field's
    type (``corpus_io.fits``)."""
    out = {}
    for name in names:
        value = out[name] = record[name]
        declared = _FIELD_TYPES[name]
        if not fits(declared, value):
            raise InputError(f"field {prefix + name!r} expects {declared}, "
                             f"got {value!r}")
    return out


def _as_float(value) -> Optional[float]:
    return None if value is None else float(value)


def summarize(corpus: Sequence[Report],
              labels: Mapping[str, LabelVector],
              indication_mention_sets: Mapping[str, frozenset],
              ) -> CorpusSummary:
    """Corpus-level mention statistics.

    Positive and negative mention counts exclude No Finding; the
    "non-No-Finding" averages restrict to reports whose No Finding label is
    not positive. The per-condition block conditions on the condition
    appearing in the report's indication mention set.
    """
    n = len(corpus)
    nf_reports = 0
    total_pos = total_neg = 0
    non_nf_reports = 0
    non_nf_pos = non_nf_neg = 0
    neg_mentions = {c: 0 for c in CONDITIONS}
    ind_mentions = {c: 0 for c in CONDITIONS}
    neg_given_ind = {c: 0 for c in CONDITIONS}

    for report in corpus:
        vector = lookup(labels, report.study_id, "labels")
        mentioned = lookup(indication_mention_sets, report.study_id,
                           "indication mentions")
        is_nf = vector.get(Condition.NO_FINDING) is LabelValue.POSITIVE
        pos = neg = 0
        for condition in SCORABLE_CONDITIONS:
            value = vector.get(condition)
            if value is LabelValue.POSITIVE:
                pos += 1
            elif value is LabelValue.NEGATIVE:
                neg += 1
                neg_mentions[condition] += 1
        total_pos += pos
        total_neg += neg
        if is_nf:
            nf_reports += 1
        else:
            non_nf_reports += 1
            non_nf_pos += pos
            non_nf_neg += neg
        for condition in mentioned:
            ind_mentions[condition] += 1
            if neg >= 1:
                neg_given_ind[condition] += 1

    per_condition = tuple(
        (c, ConditionStats(
            negative_mentions=neg_mentions[c],
            indication_mentions=ind_mentions[c],
            pct_reports_with_negative_given_indication=(
                100.0 * neg_given_ind[c] / ind_mentions[c]
                if ind_mentions[c] else None),
        ))
        for c in CONDITIONS)
    return CorpusSummary(
        report_count=n,
        pct_no_finding=(100.0 * nf_reports / n) if n else 0.0,
        avg_positive_mentions=(total_pos / n) if n else 0.0,
        avg_positive_mentions_non_no_finding=(
            non_nf_pos / non_nf_reports if non_nf_reports else None),
        avg_negative_mentions=(total_neg / n) if n else 0.0,
        avg_negative_mentions_non_no_finding=(
            non_nf_neg / non_nf_reports if non_nf_reports else None),
        per_condition=per_condition,
    )


def conditional_negative_rates(corpus: Sequence[Report],
                               labels: Mapping[str, LabelVector],
                               indication_mention_sets: Mapping[str, frozenset],
                               condition: Condition,
                               ) -> tuple[Optional[float], Optional[float],
                                          ContingencyTable2x2]:
    """P(negative | in indication) and P(negative | not in indication).

    Restricted to reports where the condition is negative or not mentioned.
    A zero denominator yields ``None`` for that rate.
    """
    if condition.is_no_finding:
        raise ValueError("conditional rates are undefined for No Finding")
    a = b = c = d = 0
    for report in corpus:
        vector = lookup(labels, report.study_id, "labels")
        mentioned = lookup(indication_mention_sets, report.study_id,
                           "indication mentions")
        value = vector.get(condition)
        if value not in (LabelValue.NEGATIVE, LabelValue.NOT_MENTIONED):
            continue
        negative = value is LabelValue.NEGATIVE
        if condition in mentioned:
            if negative:
                a += 1
            else:
                b += 1
        else:
            if negative:
                c += 1
            else:
                d += 1
    table = ContingencyTable2x2(a, b, c, d)
    p_in = a / (a + b) if (a + b) else None
    p_out = c / (c + d) if (c + d) else None
    return p_in, p_out, table


class FieldDelta(NamedTuple):
    field: str
    a: Optional[float]
    b: Optional[float]
    delta: Optional[float]
    relative: Optional[float]
    flagged: bool


class SummaryShift(NamedTuple):
    threshold: float
    fields: tuple[FieldDelta, ...]

    def flagged_fields(self) -> tuple[FieldDelta, ...]:
        return tuple(f for f in self.fields if f.flagged)


def shift_report(split_a: CorpusSummary, split_b: CorpusSummary,
                 threshold: float = 0.25) -> SummaryShift:
    """Field-by-field diff of two corpus summaries.

    Relative deltas are measured against split_a; fields whose relative
    delta exceeds the threshold are flagged. Fields undefined on either side
    are reported but never flagged.
    """
    fields_a = split_a.scalar_fields()
    fields_b = split_b.scalar_fields()
    deltas = []
    for name in fields_a:
        va = fields_a[name]
        vb = fields_b.get(name)
        if va is None or vb is None:
            deltas.append(FieldDelta(name, va, vb, None, None, False))
            continue
        delta = vb - va
        if va == 0.0:
            relative = 0.0 if vb == 0.0 else math.inf
        else:
            relative = abs(delta) / abs(va)
        deltas.append(FieldDelta(name, va, vb, delta, relative,
                                 relative > threshold))
    return SummaryShift(threshold=threshold, fields=tuple(deltas))
