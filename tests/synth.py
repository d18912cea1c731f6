"""Synthetic fixture builders shared by unit and acceptance tests.

The sentence banks stick to phrases whose labels are unambiguous under the
default lexicon, and (for the generator fixtures) avoid every hallucination
keyword so retrieval outputs can be asserted hallucination-free.
"""

import hashlib
import random

from radpragma.cleaning import REMOVED
from radpragma.backends import PatternBackend
from radpragma.model import (CONDITIONS, Condition, LabelValue, LabelVector,
                             Report)

SCORABLE = tuple(c for c in CONDITIONS if c is not Condition.NO_FINDING)


def label_vector(mapping):
    """A LabelVector from {Condition: LabelValue}; the rest not mentioned."""
    return LabelVector(tuple(mapping.get(c, LabelValue.NOT_MENTIONED)
                             for c in CONDITIONS))


POSITIVE_SENTENCE = {
    Condition.ATELECTASIS: "There is atelectasis.",
    Condition.CARDIOMEGALY: "There is cardiomegaly.",
    Condition.CONSOLIDATION: "There is consolidation.",
    Condition.EDEMA: "There is edema.",
    Condition.ENLARGED_CARDIOMEDIASTINUM:
        "There is an enlarged cardiomediastinum.",
    Condition.FRACTURE: "There is a fracture.",
    Condition.LUNG_LESION: "There is a lung lesion.",
    Condition.LUNG_OPACITY: "There are opacities.",
    Condition.PLEURAL_EFFUSION: "There is a pleural effusion.",
    Condition.PLEURAL_OTHER: "There is pleural thickening.",
    Condition.PNEUMONIA: "There is pneumonia.",
    Condition.PNEUMOTHORAX: "There is a pneumothorax.",
    Condition.SUPPORT_DEVICES: "Central line in place.",
}

NEGATIVE_SENTENCE = {
    Condition.ATELECTASIS: "No atelectasis.",
    Condition.CARDIOMEGALY: "No cardiomegaly.",
    Condition.CONSOLIDATION: "No consolidation.",
    Condition.EDEMA: "No edema.",
    Condition.ENLARGED_CARDIOMEDIASTINUM: "No enlarged cardiomediastinum.",
    Condition.FRACTURE: "No fracture.",
    Condition.LUNG_LESION: "No lung lesion.",
    Condition.LUNG_OPACITY: "No opacities.",
    Condition.PLEURAL_EFFUSION: "No pleural effusion.",
    Condition.PLEURAL_OTHER: "No pleural thickening.",
    Condition.PNEUMONIA: "No pneumonia.",
    Condition.PNEUMOTHORAX: "No pneumothorax.",
    Condition.SUPPORT_DEVICES: "No central line.",
}

INDICATION_PHRASE = {
    Condition.ATELECTASIS: "atelectasis",
    Condition.CARDIOMEGALY: "cardiomegaly",
    Condition.CONSOLIDATION: "consolidation",
    Condition.EDEMA: "edema",
    Condition.ENLARGED_CARDIOMEDIASTINUM: "enlarged cardiomediastinum",
    Condition.FRACTURE: "fracture",
    Condition.LUNG_LESION: "lung lesion",
    Condition.LUNG_OPACITY: "opacities",
    Condition.PLEURAL_EFFUSION: "pleural effusion",
    Condition.PLEURAL_OTHER: "pleural thickening",
    Condition.PNEUMONIA: "pneumonia",
    Condition.PNEUMOTHORAX: "pneumothorax",
    Condition.SUPPORT_DEVICES: "central line",
}


def canonical(conditions):
    order = {c: i for i, c in enumerate(CONDITIONS)}
    return sorted(conditions, key=order.get)


# ---------------------------------------------------------------------------
# Label-guard fixture (randomized sentences plus an adversarial backend)
# ---------------------------------------------------------------------------

_CLUTTER = [
    "In comparison with the study of ___, lung volumes are low.",
    "These findings were communicated to Dr. ___ at 4:00 p.m. by phone.",
    "Recommend clinical correlation.",
    "AP and lateral views were obtained.",
    "The heart has increased in size.",
    "Lungs are hyperinflated.",
    "An urgent CT thorax is suggested.",
    "Compared to prior, lung volumes are improved.",
]

_MENTION_TEMPLATES = [
    "{positive}",
    "{negative}",
    "Possible {phrase}.",
    "Concern for {phrase}.",
    "New {phrase_low}.",
    "Compared to the prior study, {phrase_low} is unchanged.",
    "Resolved {phrase_low}.",
    "{positive} Status post rib resection.",
    "Lateral view shows {phrase_low}.",
    "{negative} Recommend follow up imaging.",
    "Mild {phrase_low} appears slightly improved.",
    "Small {phrase_low} probably unchanged since ___.",
]


def guard_fixture_sentences(count=1000, seed=20230811):
    rng = random.Random(seed)
    sentences = []
    for i in range(count):
        if rng.random() < 0.2:
            sentences.append(rng.choice(_CLUTTER))
            continue
        condition = rng.choice(SCORABLE)
        template = rng.choice(_MENTION_TEMPLATES)
        phrase = INDICATION_PHRASE[condition]
        sentences.append(template.format(
            positive=POSITIVE_SENTENCE[condition],
            negative=NEGATIVE_SENTENCE[condition],
            phrase=phrase, phrase_low=phrase))
    return sentences


class AdversarialBackend:
    """Wraps the pattern backend but corrupts a deterministic 20% of calls.

    Corruption is a pure function of (rule_id, sentence), as the backend
    contract requires, so runs are reproducible.
    """

    def __init__(self, flip_rate=0.2):
        self.flip_rate = flip_rate
        self._inner = PatternBackend()
        self.calls = 0
        self.corruptions = 0

    def rewrite(self, rule, sentence):
        self.calls += 1
        digest = hashlib.sha256(
            f"{rule.rule_id}|{sentence}".encode("utf-8")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        if rng.random() < self.flip_rate:
            self.corruptions += 1
            mode = rng.randrange(4)
            if mode == 0:
                return REMOVED
            if mode == 1:
                if sentence.lower().startswith("no "):
                    rest = sentence[3:]
                    return rest[0].upper() + rest[1:] if rest else REMOVED
                return "No " + sentence[0].lower() + sentence[1:]
            if mode == 2:
                return sentence + " Possible pneumonia."
            return "Unremarkable examination."
        return self._inner.rewrite(rule, sentence)


# ---------------------------------------------------------------------------
# Generator fixture (pure-positive retrieval targets plus negative pools)
# ---------------------------------------------------------------------------

def build_generator_fixture(count=500, seed=20230812):
    """Cleaned corpus plus aligned requests and reference reports.

    Every request's predicted positive set exists as an exact index key via
    a pure-positive report; every condition has a pooled negative sentence;
    each reference impression is exactly what a sound generator should emit.
    """
    rng = random.Random(seed)
    corpus = []
    for condition in SCORABLE:
        corpus.append(Report(study_id=f"pool-{condition.name.lower()}",
                             impression=NEGATIVE_SENTENCE[condition]))
    requests = []
    references = []
    for i in range(count):
        positives = canonical(rng.sample(SCORABLE, rng.choice((1, 1, 2))))
        remaining = [c for c in SCORABLE if c not in positives]
        negatives = set(rng.sample(remaining, rng.choice((1, 2))))
        forced = SCORABLE[i % len(SCORABLE)]
        if forced in remaining:
            negatives.add(forced)
        negatives = canonical(negatives)
        positive_text = " ".join(POSITIVE_SENTENCE[c] for c in positives)
        corpus.append(Report(study_id=f"train-{i:04d}",
                             impression=positive_text))
        indication = "Evaluate for " + " and ".join(
            INDICATION_PHRASE[c] for c in canonical(positives + negatives)) + "."
        reference_text = " ".join(
            [positive_text] + [NEGATIVE_SENTENCE[c] for c in negatives])
        requests.append({"study_id": f"case-{i:04d}",
                         "indication": indication,
                         "positives": frozenset(positives),
                         "negatives": frozenset(negatives)})
        references.append(Report(study_id=f"case-{i:04d}",
                                 indication=indication,
                                 impression=reference_text))
    return corpus, requests, references


# ---------------------------------------------------------------------------
# Random label corpus for the summarize recount
# ---------------------------------------------------------------------------

def build_label_corpus(count=500, seed=20230813):
    """Reports with randomized planted labels and indication mention sets."""
    rng = random.Random(seed)
    values = [LabelValue.POSITIVE, LabelValue.NEGATIVE, LabelValue.UNCERTAIN,
              LabelValue.NOT_MENTIONED]
    weights = [0.15, 0.2, 0.1, 0.55]
    reports = []
    labels = {}
    mention_sets = {}
    for i in range(count):
        study_id = f"r{i:04d}"
        mapping = {}
        for condition in SCORABLE:
            mapping[condition] = rng.choices(values, weights)[0]
        mapping[Condition.NO_FINDING] = (
            LabelValue.POSITIVE if rng.random() < 0.3
            else LabelValue.NOT_MENTIONED)
        labels[study_id] = label_vector(mapping)
        mention_sets[study_id] = frozenset(
            rng.sample(SCORABLE, rng.randrange(0, 4)))
        reports.append(Report(study_id=study_id, impression="unused"))
    return reports, labels, mention_sets
