"""Exception types shared across the package."""


class NotGraphicError(ValueError):
    """An operation needed a graphic sequence but the input is not one.

    Carries the failing verdict (when available) so callers can print the
    certificate.
    """

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class CapExceededError(RuntimeError):
    """An exhaustive procedure was asked to run past its instance-size guard."""


class GoodPairNotFound(RuntimeError):
    """A finite stream prefix contained no comparable pair."""

    def __init__(self, scanned):
        super().__init__(f"no good pair in a stream of {scanned} sequences")
        self.scanned = scanned
