"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """Malformed or inconsistent input data (files, alignment, versions)."""


class DegenerateTableError(ValueError):
    """A contingency table with a zero marginal cannot be tested."""


class BackendError(RuntimeError):
    """A remote backend call failed (transport, HTTP status, or bad payload).

    Carries enough context to locate the failing unit of work; once a
    sentence index is set, the message names the study, sentence and rule.
    """

    def __init__(self, message, *, study_id=None):
        super().__init__(message)
        self.rule_id = None
        self.sentence_index = None
        self.study_id = study_id

    def __str__(self):
        message = super().__str__()
        if self.sentence_index is None:
            return message
        return (f"{message} (study_id {self.study_id!r}, sentence "
                f"{self.sentence_index}, rule {self.rule_id})")
