"""Rewrite backends for the cleaning engine.

PatternBackend is the default, fully offline backend: each rule is a short
list of ordered phrase-rewrite productions plus sentence-removal patterns.
RemoteRewriteBackend sends the rule prompt and sentence to an HTTP endpoint
(one POST per distinct (rule, sentence); responses are memoized so a run is
deterministic even against a flaky endpoint).

This module is the package's one HTTP client. It imports ``requests`` only
when a session is opened or a POST is made, so offline runs never load it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from .cleaning import REMOVED, CleaningRule, build_rewrite_prompt
from .errors import BackendError
from .model import normalize_text

if TYPE_CHECKING:
    import requests

_I = re.IGNORECASE


@dataclass(frozen=True)
class _Production:
    pattern: re.Pattern
    replacement: Union[str, Callable]
    ensure_period: bool = False


def _p(pattern: str, replacement: Union[str, Callable],
       ensure_period: bool = False) -> _Production:
    return _Production(re.compile(pattern, _I), replacement, ensure_period)


# Rule 1: comparisons to prior studies.
_RULE1_PRODUCTIONS = (
    _p(r"^in comparison (?:with|to) (?:the )?(?:study|studies|radiographs?"
       r"|films?|examinations?) (?:of|from)(?: ___)?[,:]?\s*", ""),
    _p(r"^in comparison[,:]\s*", ""),
    _p(r"^(?:as )?compared (?:to|with) [^,:.!?]{0,80}[,:]\s*", ""),
    _p(r"\s+(?:as |when |now )?compared (?:to|with) [^.!?:;,]*", ""),
)
_RULE1_FALLBACK_KILL = re.compile(r"\bcompar", _I)

# Rule 2: communication between medical professionals.
_RULE2_KILL = re.compile(
    r"\b(?:communicat\w*|convey\w*|relay\w*|notif\w*|paged|telephon\w*"
    r"|discussed with|discussion with|dashboard)\b", _I)

# Rule 3: recommendations.
_RULE3_KILL = re.compile(r"\b(?:recommend\w*|suggest\w*|should|advis\w*)\b",
                         _I)

# Rule 4: image view and previous procedures ("status post").
_VIEW = r"(?:ap|pa|frontal|lateral|portable|upright|supine)"
_RULE4_KILL = re.compile(
    rf"^{_VIEW}(?: (?:and|or) {_VIEW})? (?:chest )?"
    r"(?:views?|radiographs?|films?|images?)"
    r"(?: (?:was|were) (?:obtained|reviewed|compared))?[.!?]?$", _I)
_RULE4_PRODUCTIONS = (
    _p(r"\s+status post\b[^.!?]*[.!?]?$", ""),
    _p(rf"^(?:on (?:the |this )?)?{_VIEW}(?: (?:and|or) {_VIEW})?"
       r" (?:chest |portable )?"
       r"(?:views?|radiographs?|films?|images?|projections?|chest)"
       r"(?: raises?| shows?| demonstrates?| reveals?)?[,:]?\s+", ""),
)
_RULE4_FALLBACK_KILL = re.compile(r"\bstatus post\b", _I)

# Rules 5 and 6 leave organ-level change statements alone.
_ORGAN_CHANGE = re.compile(
    r"\b(?:new|increas\w*|decreas\w*|improv\w*|unchanged|worsen\w*"
    r"|enlarg\w*|stable|resolv\w*)\s+(?:\w+\s+)?"
    r"(?:heart|lungs?|mediastinum|cardiac silhouette|lung volumes?)\b"
    r"|\b(?:heart|lungs?|mediastinum|cardiac silhouette|lung volumes?)\b"
    r"\s+(?:\w+\s+){0,2}(?:has|have|is|are|appears?|remains?)"
    r"\s+(?:\w+\s+){0,2}(?:increased|decreased|improved|unchanged|worse"
    r"|worsened|larger|smaller|greater|enlarged|stable|new)\b", _I)

# Rule 5: new/increased conditions become plain positives.
_RULE5_PRODUCTIONS = (
    _p(r"^new(?:ly)? ", ""),
    _p(r"^(?:mild |moderate |severe |slight |minimal )?interval "
       r"(?:increases?|development|worsening|progression|enlargement) "
       r"(?:in|of)\s+", "", ensure_period=True),
    _p(r"\s+(?:has|have) (?:increased|worsened|progressed|enlarged"
       r"|developed)(?: in (?:size|extent))?(?: since(?: ___)?"
       r"| from (?:the )?prior)?(?=\s*[.!?]|\s*$)", ""),
    _p(r"\s+(?:is|are) (?:new|increased|worse|worsened|larger|greater"
       r"|bigger)(?: since(?: ___)?)?(?=\s*[.!?]|\s*$)", ""),
    _p(r"(?<= )(?:new|increasing|worsening|enlarging) (?=[a-z])", ""),
)

# Rule 6: unchanged/partially-improved conditions become plain positives.
_RULE6_PRODUCTIONS = (
    _p(r"\s+(?:is |are |appears? |remains? |probably |likely )*"
       r"(?:essentially |grossly |relatively )?unchanged"
       r"(?: since(?: ___| prior)?| from (?:the )?prior| in size"
       r"| in appearance)?(?=\s*[.!?]|\s*$)", ""),
    _p(r"\s+(?:is |are |appears? |has |have |probably |likely )*"
       r"(?:slightly |mildly |somewhat |minimally |partially |interval )?"
       r"improved(?: since(?: ___)?| from (?:the )?prior)?(?=\s*[.!?]|\s*$)",
       ""),
    _p(r"\s+(?:is|are|remains?) stable(?: since(?: ___)?)?(?=\s*[.!?]|\s*$)",
       ""),
    _p(r"^(?:persistent|stable|unchanged) ", ""),
)

# Rule 7: resolved conditions become explicit negatives.
def _negate_subject(match: re.Match) -> str:
    subject = match.group(1)
    return "No " + subject[0].lower() + subject[1:] + "."


_RULE7_PRODUCTIONS = (
    _p(r"^(?:interval )?resol(?:ved|ving|ution of)\s+(?:the |of )?(.*)$",
       r"No \1"),
    _p(r"^(?:the )?(.+?) (?:has|have) (?:resolved|disappeared|cleared)"
       r"[.!?]?$", _negate_subject),
)

_TIDY_SPACE_BEFORE_PUNCT = re.compile(r"\s+([.,;:!?])")
_TIDY_DOUBLE_COMMA = re.compile(r",\s*,")
_TIDY_DANGLING_COMMA = re.compile(r",(?=[.;:!?]|$)")
_HAS_ALNUM = re.compile(r"[a-z0-9]", _I)
_TERMINAL_PUNCT = (".", "!", "?")


class PatternBackend:
    """Offline rule realization via ordered phrase-rewrite productions."""

    def rewrite(self, rule: CleaningRule, sentence: str) -> str:
        handler = self._HANDLERS[rule.rule_id]
        return handler(self, sentence)

    def _finish(self, original: str, result: str,
                ensure_period: bool) -> str:
        result = _TIDY_DOUBLE_COMMA.sub(",", result)
        result = _TIDY_SPACE_BEFORE_PUNCT.sub(r"\1", result)
        result = _TIDY_DANGLING_COMMA.sub("", normalize_text(result))
        if not _HAS_ALNUM.search(result):
            return REMOVED
        if result != original and result[0].islower():
            result = result[0].upper() + result[1:]
        if ensure_period and not result.endswith(_TERMINAL_PUNCT):
            result += "."
        return result

    def _apply_productions(self, sentence: str, productions) -> str:
        result = sentence
        wants_period = False
        for production in productions:
            updated = production.pattern.sub(production.replacement, result)
            if updated != result and production.ensure_period:
                wants_period = True
            result = updated
        return self._finish(sentence, result, wants_period)

    def _rule1(self, sentence: str) -> str:
        result = self._apply_productions(sentence, _RULE1_PRODUCTIONS)
        if result != REMOVED and _RULE1_FALLBACK_KILL.search(result):
            return REMOVED
        return result

    def _rule2(self, sentence: str) -> str:
        return REMOVED if _RULE2_KILL.search(sentence) else sentence

    def _rule3(self, sentence: str) -> str:
        return REMOVED if _RULE3_KILL.search(sentence) else sentence

    def _rule4(self, sentence: str) -> str:
        if _RULE4_KILL.match(sentence):
            return REMOVED
        result = self._apply_productions(sentence, _RULE4_PRODUCTIONS)
        if result != REMOVED and _RULE4_FALLBACK_KILL.search(result):
            return REMOVED
        return result

    def _rule5(self, sentence: str) -> str:
        if _ORGAN_CHANGE.search(sentence):
            return sentence
        return self._apply_productions(sentence, _RULE5_PRODUCTIONS)

    def _rule6(self, sentence: str) -> str:
        if _ORGAN_CHANGE.search(sentence):
            return sentence
        return self._apply_productions(sentence, _RULE6_PRODUCTIONS)

    def _rule7(self, sentence: str) -> str:
        return self._apply_productions(sentence, _RULE7_PRODUCTIONS)

    _HANDLERS = {1: _rule1, 2: _rule2, 3: _rule3, 4: _rule4, 5: _rule5,
                 6: _rule6, 7: _rule7}


def http_session() -> requests.Session:
    """A new HTTP session; close it (or use it in ``with``) when done."""
    import requests
    return requests.Session()


def post_json(session: requests.Session, endpoint: str, payload: dict,
              key: str, *, what: str, noun: str,
              auth_token: Optional[str], timeout: float, retries: int = 0,
              suffix: str = "", **context) -> str:
    """POST ``payload`` as JSON and return the string under ``key`` in the
    response.

    Only transport errors are retried, up to ``retries`` times. Failures
    raise BackendError carrying ``endpoint`` and ``context``, with a message
    that names the ``what`` endpoint and ends in ``suffix``.
    """
    import requests

    def failure(problem: str) -> BackendError:
        return BackendError(f"{what} endpoint {endpoint} {problem}{suffix}",
                            endpoint=endpoint, **context)

    headers = {"Content-Type": "application/json"}
    if auth_token:
        headers["Authorization"] = f"Bearer {auth_token}"
    last_error: Optional[Exception] = None
    for _ in range(retries + 1):
        try:
            response = session.post(endpoint, json=payload, headers=headers,
                                    timeout=timeout)
            break
        except requests.RequestException as exc:
            last_error = exc
    else:
        raise BackendError(
            f"{what} endpoint {endpoint} unreachable{suffix}: {last_error}",
            endpoint=endpoint, **context)
    if response.status_code != 200:
        raise failure(f"returned HTTP {response.status_code}")
    try:
        value = response.json()[key]
    except (ValueError, KeyError, TypeError):  # TypeError: not an object
        raise failure(f"returned a payload without {key!r}") from None
    if not isinstance(value, str):
        raise failure(f"returned a non-string {noun}")
    return value


class RemoteRewriteBackend:
    """HTTP rewriting endpoint speaking JSON.

    Protocol: POST ``{"rule_id": int, "prompt": str, "sentence": str}``,
    response ``{"rewritten": str}``. The endpoint must behave
    deterministically (temperature-zero semantics); within a run, responses
    are memoized per (rule, sentence) regardless. ``close()``, or leaving a
    ``with`` block, closes the HTTP session if the backend opened it.
    """

    def __init__(self, endpoint: str, auth_token: Optional[str] = None,
                 timeout: float = 30.0, retries: int = 0,
                 session: Optional[requests.Session] = None):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self._auth_token = auth_token
        self._owns_session = session is None
        self._session = session or http_session()
        self._cache: dict[tuple[int, str], str] = {}

    def close(self) -> None:
        if self._owns_session:
            self._session.close()

    def __enter__(self) -> RemoteRewriteBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def rewrite(self, rule: CleaningRule, sentence: str) -> str:
        key = (rule.rule_id, sentence)
        if key not in self._cache:
            payload = {"rule_id": rule.rule_id,
                       "prompt": build_rewrite_prompt(rule, sentence),
                       "sentence": sentence}
            self._cache[key] = post_json(
                self._session, self.endpoint, payload, "rewritten",
                what="cleaning", noun="rewrite", auth_token=self._auth_token,
                timeout=self.timeout, retries=self.retries,
                rule_id=rule.rule_id)
        return self._cache[key]
