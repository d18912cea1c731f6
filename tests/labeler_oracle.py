"""The cue-scope labeler as it stood before the cue scans were merged, kept
as a reference for the package's ``label_sentence`` and ``aggregate_labels``.

It runs one regex per cue and one per condition, and computes every word
offset of every sentence. It reads only the lexicon's data fields (version,
window, cues, phrases) and shares no regex or normalization code with the
package. Label values are plain strings, as in ``oracles.py``.
"""

import re
from bisect import bisect_left, bisect_right

from radpragma.model import CONDITIONS

POS, NEG, UNC, NM = "positive", "negative", "uncertain", "not-mentioned"
_RANK = {NM: 0, NEG: 1, UNC: 2, POS: 3}

_WORD = re.compile(r"[a-z0-9]+")


def _normalize(raw):
    text = re.sub(r"_{3,}", "___", raw)
    return re.sub(r"\s+", " ", text).strip()


def _phrase_regex(phrases):
    parts = sorted((re.escape(p) for p in phrases), key=len, reverse=True)
    return re.compile(r"(?<![a-z0-9])(?:" + "|".join(parts) + r")(?![a-z0-9])")


def _cue_regex(cue):
    if not _WORD.search(cue):
        return re.compile(re.escape(cue))
    return re.compile(r"(?<![a-z0-9])" + re.escape(cue) + r"(?![a-z0-9])")


class OracleLabeler:
    def __init__(self, lexicon):
        self.window = lexicon.scope_window
        self.negation = [_cue_regex(c) for c in lexicon.negation_cues]
        self.uncertainty = [_cue_regex(c) for c in lexicon.uncertainty_cues]
        self.phrases = {c: _phrase_regex(ps) for c, ps in lexicon.phrases}

    def label_sentence(self, text):
        """Value strings of the conditions, in CONDITIONS order."""
        low = _normalize(text).lower()
        values = {c: NM for c in CONDITIONS}
        if not low:
            return tuple(values.values())
        word_starts = [m.start() for m in _WORD.finditer(low)]
        word_ends = [m.end() for m in _WORD.finditer(low)]
        negation = [m.span() for r in self.negation for m in r.finditer(low)]
        uncertainty = [m.span() for r in self.uncertainty
                       for m in r.finditer(low)]

        def in_scope(spans, phrase_start):
            for _, cue_end in spans:
                if cue_end > phrase_start:
                    continue
                first = bisect_left(word_starts, cue_end)
                last = bisect_right(word_ends, phrase_start)
                if max(0, last - first) < self.window:
                    return True
            return False

        for condition, regex in self.phrases.items():
            starts = [m.start() for m in regex.finditer(low)]
            if not starts:
                continue
            if condition.is_no_finding:
                values[condition] = POS
            elif any(in_scope(uncertainty, s) for s in starts):
                values[condition] = UNC
            elif any(in_scope(negation, s) for s in starts):
                values[condition] = NEG
            else:
                values[condition] = POS
        return tuple(values[c] for c in CONDITIONS)


def aggregate_labels(sentence_values):
    """Report values from sentence value tuples, in CONDITIONS order."""
    best = {c: NM for c in CONDITIONS}
    nf_matched = False
    for values in sentence_values:
        for condition, value in zip(CONDITIONS, values):
            if condition.is_no_finding:
                nf_matched = nf_matched or value == POS
            elif _RANK[value] > _RANK[best[condition]]:
                best[condition] = value
    asserted = any(best[c] in (POS, UNC)
                   for c in CONDITIONS if not c.is_no_finding)
    for condition in CONDITIONS:
        if condition.is_no_finding:
            best[condition] = POS if nf_matched and not asserted else NM
    return tuple(best[c] for c in CONDITIONS)
