"""Rewrite backends for the cleaning engine.

PatternBackend is the default, fully offline backend: each rule is a short
list of ordered phrase-rewrite productions plus sentence-removal patterns.
RemoteRewriteBackend sends the rule prompt and sentence to an HTTP endpoint
(one POST per distinct (rule, sentence), threads included: responses are
kept in an unbounded single-flight ``model.BoundedMemo``, so a run is
deterministic even against a flaky endpoint).

RemoteEndpoint is the package's one HTTP client, on ``http.client``. It
imports its HTTP modules only when a client is made, so offline runs never
load them.
"""

from __future__ import annotations

import json
import re
from collections import deque
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .cleaning import REMOVED, CleaningRule, build_rewrite_prompt
from .corpus_io import http_url, request_target
from .errors import BackendError, InputError
from .model import BoundedMemo

_I = re.IGNORECASE


class _Production(NamedTuple):
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


#: Per rule id: (keep, kill, productions, fallback kill). A sentence that
#: ``keep`` matches is kept as it is, and one that ``kill`` matches is
#: removed. Otherwise the productions rewrite it in order, and the rewrite
#: is removed if ``fallback kill`` still matches it. A rule without
#: productions leaves the sentence untouched.
_RULES = {
    1: (None, None, _RULE1_PRODUCTIONS, _RULE1_FALLBACK_KILL),
    2: (None, _RULE2_KILL, (), None),
    3: (None, _RULE3_KILL, (), None),
    4: (None, _RULE4_KILL, _RULE4_PRODUCTIONS, _RULE4_FALLBACK_KILL),
    5: (_ORGAN_CHANGE, None, _RULE5_PRODUCTIONS, None),
    6: (_ORGAN_CHANGE, None, _RULE6_PRODUCTIONS, None),
    7: (None, None, _RULE7_PRODUCTIONS, None),
}


def _finish(original: str, result: str, ensure_period: bool) -> str:
    result = _TIDY_DOUBLE_COMMA.sub(",", result)
    result = _TIDY_SPACE_BEFORE_PUNCT.sub(r"\1", result)
    result = _TIDY_DANGLING_COMMA.sub("", result)
    if not _HAS_ALNUM.search(result):
        return REMOVED
    if result != original and result[0].islower():
        result = result[0].upper() + result[1:]
    if ensure_period and not result.endswith(_TERMINAL_PUNCT):
        result += "."
    return result


class PatternBackend:
    """Offline rule realization via ordered phrase-rewrite productions."""

    def rewrite(self, rule: CleaningRule, sentence: str) -> str:
        keep, kill, productions, fallback_kill = _RULES[rule.rule_id]
        if keep and keep.search(sentence):
            return sentence
        if kill and kill.search(sentence):
            return REMOVED
        if not productions:
            return sentence
        result = sentence
        wants_period = False
        for production in productions:
            updated = production.pattern.sub(production.replacement, result)
            if updated != result and production.ensure_period:
                wants_period = True
            result = updated
        result = _finish(sentence, result, wants_period)
        if fallback_kill and fallback_kill.search(result):
            return REMOVED
        return result


def _http_url(text: str, what: str):
    """``corpus_io.http_url(text)``, else an InputError naming ``what``."""
    url = http_url(text)
    if url is None:
        raise InputError(f"{what} {text!r} is not an http:// or https:// "
                         f"URL with a host")
    return url


class RemoteEndpoint:
    """A JSON endpoint, named ``what`` in errors, and the keep-alive
    connections that one stage run shares across its threads.

    Each request in flight takes an idle connection, or opens one, and gives
    it back once it has read the whole response, so a run opens at most as
    many connections as it has requests in flight. A connection that fails
    is closed, and one the server has closed while idle is reopened.
    ``close()``, or leaving a ``with`` block, closes the idle connections.
    The endpoint must be an ``http://`` or ``https://`` URL with a host, else
    InputError. ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY`` are
    honoured as ``urllib.request.getproxies`` and ``proxy_bypass`` read them.
    """

    def __init__(self, endpoint: str, what: str,
                 auth_token: Optional[str] = None, timeout: float = 30.0,
                 retries: int = 0):
        from http.client import HTTPConnection, HTTPSConnection
        from urllib.request import getproxies, proxy_bypass
        self.endpoint = endpoint
        self.what = what
        self.timeout = timeout
        self.retries = retries
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"
        url = _http_url(endpoint, f"{what} endpoint")
        https = url.scheme == "https"
        address = (url.hostname, url.port or (443 if https else 80))
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._tunnel = None
        proxy = getproxies().get(url.scheme)
        if proxy and not proxy_bypass(url.hostname):
            proxy = _http_url(proxy if "://" in proxy else f"http://{proxy}",
                              f"{url.scheme.upper()}_PROXY")
            if https:
                self._tunnel = address
            else:
                target = endpoint  # the absolute form a proxy expects
            address = (proxy.hostname, proxy.port or 80)
        self._target = request_target(target)
        if https:
            import ssl
            self._open = partial(HTTPSConnection, *address, timeout=timeout,
                                 context=ssl.create_default_context())
        else:
            self._open = partial(HTTPConnection, *address, timeout=timeout)
        self._idle: deque = deque()  # append and pop are atomic

    def close(self) -> None:
        while self._idle:
            self._idle.pop().close()

    def __enter__(self) -> RemoteEndpoint:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self):
        """An idle connection the server has not closed, else a new one."""
        import select
        while True:
            try:
                connection = self._idle.pop()
            except IndexError:
                break
            # An idle connection has nothing to read unless the server has
            # closed it; poll, unlike select, takes any descriptor.
            poller = select.poll()
            poller.register(connection.sock, select.POLLIN)
            if not poller.poll(0):
                return connection
            connection.close()
        connection = self._open()
        if self._tunnel:
            connection.set_tunnel(*self._tunnel)
        return connection

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` on a connection; the status and the response."""
        connection = self._connection()
        try:
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()
            raise
        if not response.will_close:  # else http.client has closed it
            self._idle.append(connection)
        return response.status, data

    def post(self, payload: dict, key: str, *, noun: str, suffix: str = "",
             study_id: Optional[str] = None) -> str:
        """POST ``payload`` and return the string (the ``noun``) under
        ``key`` in the response. Only transport errors are retried, up to
        ``retries`` times. A failure raises BackendError carrying
        ``study_id``, its message ending in ``suffix``."""
        from http.client import HTTPException

        def failure(problem: str, detail: str = "") -> BackendError:
            return BackendError(f"{self.what} endpoint {self.endpoint} "
                                f"{problem}{suffix}{detail}",
                                study_id=study_id)

        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        last_error: Optional[Exception] = None
        for _ in range(self.retries + 1):
            try:
                status, data = self._exchange(body)
                break
            except (OSError, HTTPException) as exc:
                last_error = exc
        else:
            raise failure("unreachable", f": {last_error}")
        if status != 200:
            raise failure(f"returned HTTP {status}")
        try:
            value = json.loads(data)[key]
        # TypeError: not an object; RecursionError: nested too deeply.
        except (ValueError, KeyError, TypeError, RecursionError):
            raise failure(f"returned a payload without {key!r}") from None
        if not isinstance(value, str):
            raise failure(f"returned a non-string {noun}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, as "\ud800" decodes
            raise failure(f"returned a {noun} that UTF-8 cannot "
                          f"encode") from None
        return value


class RemoteRewriteBackend(RemoteEndpoint):
    """HTTP rewriting endpoint speaking JSON.

    Protocol: POST ``{"rule_id": int, "prompt": str, "sentence": str}``,
    response ``{"rewritten": str}``. The endpoint must behave
    deterministically (temperature-zero semantics); within a run, responses
    are memoized per (rule, sentence) regardless.
    """

    def __init__(self, endpoint: str, auth_token: Optional[str] = None,
                 timeout: float = 30.0, retries: int = 0):
        super().__init__(endpoint, "cleaning", auth_token, timeout, retries)
        self._rewrites = BoundedMemo(None)

    def rewrite(self, rule: CleaningRule, sentence: str) -> str:
        return self._rewrites.get((rule.rule_id, sentence), self._post_rewrite,
                                  rule, sentence)

    def _post_rewrite(self, rule: CleaningRule, sentence: str) -> str:
        payload = {"rule_id": rule.rule_id,
                   "prompt": build_rewrite_prompt(rule, sentence),
                   "sentence": sentence}
        return self.post(payload, "rewritten", noun="rewrite")
