"""Independent brute-force oracles used to check package output.

Everything here recomputes results from first principles (plain loops,
exact fractions) and deliberately shares no code with the package beyond
the enum types used as dictionary keys. Label values are plain strings:
"positive", "negative", "uncertain", "not-mentioned".
"""

import math
from collections import Counter
from fractions import Fraction

from radpragma.model import CONDITIONS, Condition

POS, NEG, UNC, NM = "positive", "negative", "uncertain", "not-mentioned"


def naive_f1(tp, fp, fn):
    if tp == 0:
        return Fraction(0)
    precision = Fraction(tp, tp + fp)
    recall = Fraction(tp, tp + fn)
    return 2 * precision * recall / (precision + recall)


def naive_label_f1(pred, ref, conditions, target, average="macro"):
    """pred/ref: {study_id: {Condition: value-string}}."""
    per_condition = {}
    for condition in conditions:
        tp = fp = fn = 0
        for study_id in ref:
            p = pred[study_id].get(condition, NM) == target
            r = ref[study_id].get(condition, NM) == target
            if p and r:
                tp += 1
            elif p:
                fp += 1
            elif r:
                fn += 1
        per_condition[condition] = (tp, fp, fn)
    if average == "macro":
        total = sum(naive_f1(*per_condition[c]) for c in conditions)
        return total / len(conditions)
    tp = sum(v[0] for v in per_condition.values())
    fp = sum(v[1] for v in per_condition.values())
    fn = sum(v[2] for v in per_condition.values())
    return naive_f1(tp, fp, fn)


def _tokens(text):
    out = []
    word = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
        elif word:
            out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    return out


def naive_bleu2(hypotheses, references):
    clipped1 = total1 = clipped2 = total2 = 0
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = _tokens(hyp)
        r = _tokens(ref)
        hyp_len += len(h)
        ref_len += len(r)
        hc1, rc1 = Counter(h), Counter(r)
        total1 += sum(hc1.values())
        clipped1 += sum(min(n, rc1[g]) for g, n in hc1.items())
        hb = Counter(zip(h, h[1:]))
        rb = Counter(zip(r, r[1:]))
        total2 += sum(hb.values())
        clipped2 += sum(min(n, rb[g]) for g, n in hb.items())
    if hyp_len == 0 or 0 in (total1, total2, clipped1, clipped2):
        return 0.0
    p1 = Fraction(clipped1, total1)
    p2 = Fraction(clipped2, total2)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return brevity * math.sqrt(float(p1 * p2))


def naive_stem_hit(token, stem):
    if len(stem) <= 3:
        return token == stem
    return token[:len(stem)] == stem


_TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


def naive_stem_match(text, stems):
    """Whether a stem hits a token of ``text``: a run of a-z and 0-9 in the
    lowercased text, found by a character loop."""
    tokens = []
    word = []
    for ch in text.lower() + " ":
        if ch in _TOKEN_CHARS:
            word.append(ch)
        elif word:
            tokens.append("".join(word))
            word = []
    return any(naive_stem_hit(t, s) for t in tokens for s in stems)


def naive_hallucination(texts, categories):
    """categories: {name: [stems]}. Returns (rate, per-category rates)."""
    flagged_any = 0
    flagged = {name: 0 for name in categories}
    for text in texts:
        tokens = _tokens(text)
        hit_any = False
        for name, stems in categories.items():
            if any(naive_stem_hit(t, s) for t in tokens for s in stems):
                flagged[name] += 1
                hit_any = True
        if hit_any:
            flagged_any += 1
    n = len(texts)
    if n == 0:
        return 0.0, {name: 0.0 for name in categories}
    return (Fraction(flagged_any, n),
            {name: Fraction(flagged[name], n) for name in categories})


def naive_summary(study_ids, labels, mention_sets):
    """Recount of the corpus summary. labels: {id: {Condition: value}}."""
    n = len(study_ids)
    nf = 0
    pos_total = neg_total = 0
    non_nf = non_nf_pos = non_nf_neg = 0
    per_neg = {c: 0 for c in CONDITIONS}
    per_ind = {c: 0 for c in CONDITIONS}
    per_neg_given_ind = {c: 0 for c in CONDITIONS}
    for study_id in study_ids:
        row = labels[study_id]
        mentioned = mention_sets[study_id]
        pos = sum(1 for c in CONDITIONS
                  if c is not Condition.NO_FINDING and row.get(c, NM) == POS)
        neg = sum(1 for c in CONDITIONS
                  if c is not Condition.NO_FINDING and row.get(c, NM) == NEG)
        pos_total += pos
        neg_total += neg
        for c in CONDITIONS:
            if c is not Condition.NO_FINDING and row.get(c, NM) == NEG:
                per_neg[c] += 1
        if row.get(Condition.NO_FINDING, NM) == POS:
            nf += 1
        else:
            non_nf += 1
            non_nf_pos += pos
            non_nf_neg += neg
        for c in mentioned:
            per_ind[c] += 1
            if neg >= 1:
                per_neg_given_ind[c] += 1
    return {
        "report_count": n,
        "pct_no_finding": float(Fraction(100 * nf, n)) if n else 0.0,
        "avg_positive_mentions": float(Fraction(pos_total, n)) if n else 0.0,
        "avg_positive_mentions_non_no_finding": (
            float(Fraction(non_nf_pos, non_nf)) if non_nf else None),
        "avg_negative_mentions": float(Fraction(neg_total, n)) if n else 0.0,
        "avg_negative_mentions_non_no_finding": (
            float(Fraction(non_nf_neg, non_nf)) if non_nf else None),
        "per_condition": {
            c: {
                "negative_mentions": per_neg[c],
                "indication_mentions": per_ind[c],
                "pct_reports_with_negative_given_indication": (
                    float(Fraction(100 * per_neg_given_ind[c], per_ind[c]))
                    if per_ind[c] else None),
            }
            for c in CONDITIONS
        },
    }
