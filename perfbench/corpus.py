"""Seeded synthetic report corpora with planted labels.

Every sentence is built from a template whose label under cue-scope rules
(NegEx, Chapman et al. 2001; CheXpert labeler, Irvin et al. 2019) is known
by construction: a negation or uncertainty cue placed before a condition
phrase, within fewer than six words, scopes it; uncertainty outranks
negation. The planted labels are computed here, with no code from the
package under test, so the benchmark can check the labeler against them.

Two corpus kinds:

* ``unique``: size, side, location and level modifiers make nearly every
  sentence distinct.
* ``repeat``: reports are drawn from a small bank of sentences, as real
  reports repeat boilerplate, so nearly every sentence recurs.

Every corpus also holds the same seed-independent block of reports
(``FIXED_REPORTS``): anchors that guarantee some retrieval keys and pool
sentences exist, and the two fault patterns the checks expect to fail.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: The fourteen conditions in the label CSV's column order.
CONDITIONS = (
    "Atelectasis", "Cardiomegaly", "Consolidation", "Edema",
    "Enlarged Cardiomediastinum", "Fracture", "Lung Lesion", "Lung Opacity",
    "Pleural Effusion", "Pleural Other", "Pneumonia", "Pneumothorax",
    "Support Devices", "No Finding")
SCORABLE = CONDITIONS[:-1]
NO_FINDING = "No Finding"

POS, NEG, UNC = "positive", "negative", "uncertain"
_RANK = {NEG: 1, UNC: 2, POS: 3}

# Phrases per condition that the shipped lexicon matches as whole words and
# that contain no other condition's phrase. Each may take a size, side and
# location modifier in front.
PHRASES = {
    "Atelectasis": ("atelectasis", "atelectatic changes"),
    "Cardiomegaly": ("cardiomegaly",),
    "Consolidation": ("consolidation",),
    "Edema": ("pulmonary edema", "edema", "vascular congestion"),
    "Enlarged Cardiomediastinum": ("widened mediastinum",
                                   "mediastinal widening"),
    "Fracture": ("rib fracture", "fracture"),
    "Lung Lesion": ("nodule", "lung lesion", "mass"),
    "Lung Opacity": ("opacity", "opacities", "airspace disease"),
    "Pleural Effusion": ("pleural effusion", "effusion", "pleural fluid"),
    "Pleural Other": ("pleural thickening", "pleural scarring"),
    "Pneumonia": ("pneumonia", "infectious process"),
    "Pneumothorax": ("pneumothorax", "apical pneumothorax"),
    "Support Devices": ("central line", "endotracheal tube", "picc",
                        "nasogastric tube", "pacemaker"),
}
# Conditions a side or location modifier reads sensibly with.
_SIDED = {"Atelectasis", "Consolidation", "Fracture", "Lung Lesion",
          "Lung Opacity", "Pleural Effusion", "Pleural Other", "Pneumonia",
          "Pneumothorax"}
_SIZES = ("small", "moderate", "large", "mild", "minimal", "trace", "tiny",
          "severe", "patchy", "focal", "subtle", "layering", "dense",
          "streaky", "faint", "extensive")
_SIDES = ("right", "left", "bilateral")
_LOCATIONS = ("basilar", "apical", "perihilar", "retrocardiac", "lingular",
              "lower lobe", "upper lobe", "middle lobe", "subpleural",
              "peripheral", "infrahilar", "suprahilar")
_LEVELS = tuple(f"{n}th posterior rib" for n in range(4, 12)) + tuple(
    f"{n}th anterior rib" for n in range(4, 9))
_DEVICE_TIPS = ("mid SVC", "cavoatrial junction", "right atrium",
                "brachiocephalic vein", "lower SVC")

# Sentences with no condition mention that the cleaning rules must delete.
_VIEWS = ("AP", "PA", "Frontal", "Portable", "Upright", "Supine")


def _communication(rng: random.Random) -> str:
    who = rng.choice(("Dr. ___", "the referring physician", "the covering "
                      "resident", "the ICU team", "the emergency physician"))
    how = rng.choice(("discussed with", "communicated to", "relayed to",
                      "conveyed to"))
    return (f"These findings were {how} {who} by telephone at "
            f"{rng.randrange(1, 13)}:{rng.randrange(60):02d}.")


def _recommendation(rng: random.Random) -> str:
    return rng.choice((
        f"Recommend follow-up chest radiograph in {rng.randrange(2, 61)} "
        f"days.",
        f"Recommend chest CT in {rng.randrange(2, 61)} days.",
        f"Follow-up imaging in {rng.randrange(2, 61)} days is suggested.",
        f"Clinical correlation is recommended within {rng.randrange(2, 49)} "
        f"hours.",
        f"CT of the chest should be considered within "
        f"{rng.randrange(2, 61)} days."))


def _view(rng: random.Random) -> str:
    first, second = rng.sample(_VIEWS, 2)
    return rng.choice((
        f"{first} chest radiograph.",
        f"{first} and {second.lower()} chest radiographs were obtained.",
        f"{first} and {second.lower()} views were reviewed.",
        f"{first} chest image.",
    ))


_FILLERS = (
    "The lungs are hyperinflated.", "Lung volumes are low.",
    "Heart size is normal.", "The mediastinal contours are normal.",
    "Osseous structures are intact.", "The hila are unremarkable.",
    "Degenerative changes of the thoracic spine.",
    "Surgical clips project over the upper abdomen.",
)

_SYMPTOMS = ("cough", "fever", "shortness of breath", "chest pain",
             "hypoxia", "dyspnea", "fall", "tachycardia", "leukocytosis",
             "weakness", "hemoptysis", "sepsis")


@dataclass
class Sentence:
    """A sentence and its planted per-condition labels."""

    text: str
    labels: dict = field(default_factory=dict)  # condition -> value
    no_finding: bool = False
    boilerplate: bool = False


@dataclass
class PlantedReport:
    study_id: str
    indication: str
    mentions: frozenset          # conditions mentioned in the indication
    sentences: list              # list[Sentence]
    fault: str = ""              # "", "guard" or "join"

    @property
    def impression(self) -> str:
        return " ".join(s.text for s in self.sentences)

    def labels(self) -> dict:
        """Report labels: per condition the strongest sentence value wins;
        No Finding holds only when a sentence asserts it and no condition is
        positive or uncertain."""
        best: dict = {}
        for sentence in self.sentences:
            for condition, value in sentence.labels.items():
                if _RANK[value] > _RANK.get(best.get(condition), 0):
                    best[condition] = value
        if (any(s.no_finding for s in self.sentences)
                and not any(v in (POS, UNC) for v in best.values())):
            best[NO_FINDING] = POS
        return best

    def to_json(self) -> str:
        return json.dumps({"study_id": self.study_id,
                           "indication": self.indication,
                           "impression": self.impression})


def _day(rng: random.Random, unique: bool, share: float = 0.85) -> str:
    """A cue-free suffix that makes short sentences distinct."""
    if unique and rng.random() < share:
        return f" on hospital day {rng.randrange(1, 401)}"
    return ""


def _cap(text: str) -> str:
    return text[0].upper() + text[1:]


def _modified(rng: random.Random, condition: str, phrase: str,
              unique: bool) -> str:
    """Phrase with up to three modifier words in front, plus (unique mode)
    a level or tip suffix that carries no cue and no condition phrase."""
    words = []
    if condition != "Support Devices" and rng.random() < 0.8:
        words.append(rng.choice(_SIZES))
    if condition in _SIDED:
        if rng.random() < 0.8:
            words.append(rng.choice(_SIDES))
        if rng.random() < 0.6 and not phrase.startswith("apical"):
            words.append(rng.choice(_LOCATIONS))
    text = " ".join(words + [phrase])
    if unique:
        if condition == "Support Devices":
            text += (f" with tip in the {rng.choice(_DEVICE_TIPS)}, "
                     f"{rng.randrange(1, 9)} cm above the carina")
        elif rng.random() < 0.7:
            text += f" at the level of the {rng.choice(_LEVELS)}"
    return text


def positive_sentence(rng: random.Random, condition: str,
                      unique: bool) -> Sentence:
    body = _modified(rng, condition, rng.choice(PHRASES[condition]), unique)
    form = rng.randrange(9)
    if form == 0:
        text = f"There is {body}."
    elif form == 1:
        # Rule 1 strips the comparison prefix.
        text = f"Compared to the prior study, there is {body}."
    elif form == 2:
        text = f"New {body}."                        # rule 5
    elif form == 3:
        text = f"{_cap(body)} is unchanged."         # rule 6
    elif form == 4:
        text = f"Stable {body}."                     # rule 6
    elif form == 5:
        text = f"{_cap(body)} has increased."        # rule 5
    else:
        text = f"{_cap(body)}."
    return Sentence(text, {condition: POS})


def negative_sentence(rng: random.Random, condition: str,
                      unique: bool) -> Sentence:
    phrase = rng.choice(PHRASES[condition])
    side = ""
    if unique and condition in _SIDED and rng.random() < 0.6:
        side = rng.choice(_SIDES) + " "
        if rng.random() < 0.5:
            side += rng.choice(_LOCATIONS) + " "
    day = _day(rng, unique)
    form = rng.randrange(7)
    if form == 0:
        text = f"No {side}{phrase}{day}."
    elif form == 1:
        # Keep within the cue's six-word scope.
        side = side.split(" ")[0] + " " if side else ""
        text = f"No evidence of {side}{phrase}{day}."
    elif form == 2:
        text = f"There is no {side}{phrase}{day}."
    elif form == 3:
        text = f"Resolved {side}{phrase}{day}."           # rule 7
    elif form == 4:
        text = f"No new {side}{phrase}{day}."             # rule 5
    elif form == 5:
        text = f"Negative for {phrase}{day}."
    else:
        text = f"Interval resolution of {side}{phrase}{day}."  # rule 7
    return Sentence(text, {condition: NEG})


def double_negative_sentence(rng: random.Random, first: str,
                             second: str) -> Sentence:
    a = rng.choice(PHRASES[first])
    b = rng.choice(PHRASES[second])
    return Sentence(f"No {a} or {b}.", {first: NEG, second: NEG})


def uncertain_sentence(rng: random.Random, condition: str,
                       unique: bool) -> Sentence:
    phrase = rng.choice(PHRASES[condition])
    side = ""
    if condition in _SIDED and rng.random() < 0.6:
        side = rng.choice(_SIDES) + " "
    cue = rng.choice(("Possible", "Cannot exclude", "Findings concerning for",
                      "Suspected", "Questionable", "Possible new"))
    text = f"{cue} {side}{phrase}"
    if unique and rng.random() < 0.7:
        text += f" at the level of the {rng.choice(_LEVELS)}"
    return Sentence(text + ".", {condition: UNC})


def no_finding_sentence(rng: random.Random, unique: bool) -> Sentence:
    text = rng.choice(("No acute cardiopulmonary process",
                       "No acute cardiopulmonary abnormality",
                       "No acute intrathoracic process"))
    return Sentence(text + _day(rng, unique, 1.0) + ".", {}, no_finding=True)


def indication(rng: random.Random, conditions) -> str:
    age = rng.randrange(21, 95)
    who = rng.choice(("man", "woman", "patient"))
    symptom = rng.choice(_SYMPTOMS)
    if not conditions:
        return rng.choice((f"{age}-year-old {who} with {symptom}.",
                           f"{_cap(symptom)}.",
                           f"{age}-year-old {who} with {symptom}, "
                           f"preoperative evaluation."))
    phrases = [rng.choice(PHRASES[c]) for c in conditions]
    asked = " and ".join(phrases)
    return rng.choice((
        f"{age}-year-old {who} with {symptom}. Evaluate for {asked}.",
        f"{_cap(symptom)}, rule out {asked}.",
        f"{age}-year-old {who} with {symptom}, ? {asked}.",
        f"Eval for {asked}."))


# ---------------------------------------------------------------------------
# Seed-independent block
# ---------------------------------------------------------------------------

def _fixed_reports() -> list:
    eff, atel, card = "Pleural Effusion", "Atelectasis", "Cardiomegaly"
    out = []
    # Anchors: these retrieval keys and the "No edema." pool sentence exist
    # whatever the seed, so the fault reports below always retrieve the same
    # way.
    out.append(PlantedReport("fx-anchor-1", "", frozenset(), [
        Sentence("No edema.", {"Edema": NEG}),
        Sentence("Small right pleural effusion.", {eff: POS})]))
    out.append(PlantedReport("fx-anchor-2", "", frozenset(), [
        Sentence("Moderate atelectasis.", {atel: POS})]))
    out.append(PlantedReport("fx-anchor-3", "", frozenset(), [
        Sentence("Mild cardiomegaly.", {card: POS})]))
    # Report-level guard fault: rule 4 drops "status post ..." with its
    # period, the two sentences merge, and the negation cue scopes into the
    # next one.
    guard = [
        ("No edema status post CABG.", {"Edema": NEG},
         "Small right pleural effusion.", {eff: POS}),
        ("No pneumothorax status post biopsy.", {"Pneumothorax": NEG},
         "Moderate atelectasis.", {atel: POS}),
        ("No pneumonia status post thoracentesis.", {"Pneumonia": NEG},
         "Mild cardiomegaly.", {card: POS}),
        ("No pleural effusion status post extubation.", {eff: NEG},
         "Patchy left basilar atelectasis.", {atel: POS}),
    ]
    for i, (first, first_labels, second, second_labels) in enumerate(guard):
        out.append(PlantedReport(
            f"fx-guard-{i + 1}", "", frozenset(),
            [Sentence(first, first_labels), Sentence(second, second_labels)],
            fault="guard"))
    # Generator join fault: cleaning leaves the last sentence unterminated
    # ("... may be chronic"), and the negative appended after it falls in
    # the scope of "may". The key {Fracture, Pleural Other} occurs nowhere
    # else, so exactly these requests retrieve such a report.
    for i, rib in enumerate(("Rib", "Left rib", "Right rib")):
        out.append(PlantedReport(
            f"fx-join-{i + 1}", "Evaluate for edema.", frozenset({"Edema"}),
            [Sentence(f"{rib} fracture.", {"Fracture": POS}),
             Sentence("Pleural thickening may be chronic status post "
                      "thoracotomy.", {"Pleural Other": POS})],
            fault="join"))
    return out


FIXED_REPORTS = _fixed_reports()


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------

def _findings(shape: random.Random, rng: random.Random, make,
              asked: list) -> list:
    """Sentences for one report: positives, uncertain, negatives, then
    boilerplate; conditions are distinct within the report.

    ``shape`` draws how many sentences of each kind the report has and does
    not depend on the seed, so every seed gives the same amount of work;
    ``rng`` draws which conditions and wording fill them."""
    n_pos = shape.choices((0, 1, 2, 3), (0.25, 0.35, 0.28, 0.12))[0]
    n_unc = int(shape.random() < 0.3)
    n_neg = shape.choices((0, 1, 2, 3), (0.4, 0.35, 0.17, 0.08))[0]
    double = shape.random() < 0.3
    wants_nf = shape.random() < 0.7
    filler = shape.random() < 0.3
    boilerplate = [kind for kind, share in (("communication", 0.18),
                                            ("recommendation", 0.18),
                                            ("view", 0.1))
                   if shape.random() < share]
    pool = list(SCORABLE)
    rng.shuffle(pool)
    positives = pool[:n_pos]
    if "Fracture" in positives and "Pleural Other" in positives:
        # {Fracture, Pleural Other} is reserved for the join fault.
        positives[positives.index("Pleural Other")] = pool[n_pos]
    rest = [c for c in pool if c not in positives]
    sentences = [make("pos", c) for c in positives]
    if n_unc:
        sentences.append(make("unc", rest.pop()))
    # Negative mentions go to conditions the indication asks about more
    # often than to others, which the chi-square test should pick up.
    first = [c for c in rest if c in asked and rng.random() < 0.8]
    negatives = (first + [c for c in rest if c not in first])[:n_neg]
    if len(negatives) >= 2 and double:
        sentences.append(make("neg2", negatives[0], negatives[1]))
        negatives = negatives[2:]
    sentences.extend(make("neg", c) for c in negatives)
    if not positives and not n_unc and wants_nf:
        sentences.append(make("nf"))
    if filler:
        sentences.append(make("filler"))
    sentences.extend(make(kind) for kind in boilerplate)
    if not sentences:
        sentences.append(make("nf"))
    return sentences


def _maker(rng: random.Random, unique: bool):
    def make(kind, *args):
        if kind == "pos":
            return positive_sentence(rng, args[0], unique)
        if kind == "neg":
            return negative_sentence(rng, args[0], unique)
        if kind == "neg2":
            return double_negative_sentence(rng, *args)
        if kind == "unc":
            return uncertain_sentence(rng, args[0], unique)
        if kind == "nf":
            return no_finding_sentence(rng, unique)
        if kind == "filler":
            return Sentence(rng.choice(_FILLERS)[:-1]
                            + _day(rng, unique, 1.0) + ".")
        builder = {"communication": _communication,
                   "recommendation": _recommendation,
                   "view": _view}[kind]
        return Sentence(builder(rng), boilerplate=True)
    return make


_BANK_COUNTS = {"pos": 4, "neg": 3, "unc": 2, "nf": 3, "filler": 8,
                "communication": 6, "recommendation": 6, "view": 6,
                "neg2": 6}


def _bank_maker(rng: random.Random):
    """A maker that draws every sentence from a bank of about 150, built
    once per corpus: a few variants per kind and condition."""
    fresh = _maker(random.Random(rng.random()), unique=False)
    banks: dict = {}

    def make(kind, *args):
        key = (kind, args[0]) if kind in ("pos", "neg", "unc") else (kind,)
        if key not in banks:
            if kind == "neg2":
                banks[key] = [fresh(kind, *rng.sample(SCORABLE, 2))
                              for _ in range(_BANK_COUNTS[kind])]
            else:
                banks[key] = [fresh(*key) for _ in range(_BANK_COUNTS[kind])]
        return rng.choice(banks[key])
    return make


def make_corpus(seed: int, reports: int, kind: str) -> list:
    """``reports`` seeded reports plus the fixed block, spread through the
    corpus at seed-independent positions."""
    rng = random.Random(f"{kind}:{seed}")
    if kind == "unique":
        make = _maker(rng, unique=True)
        make_indication = indication
    elif kind == "repeat":
        make = _bank_maker(rng)
        ind_bank: dict = {}

        def make_indication(r, asked):
            key = tuple(asked)
            if key not in ind_bank:
                ind_bank[key] = indication(r, asked)
            return ind_bank[key]
    else:
        raise ValueError(f"unknown corpus kind {kind!r}")
    shape = random.Random(f"{kind}:shape")
    seeded = []
    for i in range(reports):
        roll = shape.random()
        asked = []
        if roll < 0.55:
            asked = rng.sample(SCORABLE[:12], 1 if roll < 0.4 else 2)
        text = make_indication(rng, asked)
        sentences = _findings(shape, rng, make, asked)
        seeded.append(PlantedReport(f"r{i + 1:06d}", text,
                                    frozenset(asked), sentences))
    out = []
    stride = max(1, len(seeded) // len(FIXED_REPORTS))
    fixed = iter(FIXED_REPORTS)
    for i, report in enumerate(seeded):
        if i % stride == 0:
            extra = next(fixed, None)
            if extra is not None:
                out.append(extra)
        out.append(report)
    out.extend(fixed)
    return out


def distinct_sentence_share(corpus) -> float:
    texts = [s.text for r in corpus for s in r.sentences]
    return len(set(texts)) / len(texts)
