"""Exception hierarchy for the repairkit toolkit.

Every error raised by repairkit modules derives from RepairKitError so
callers can catch toolkit failures without masking programming errors.
"""


class RepairKitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(RepairKitError):
    """Source text is not syntactically valid."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class InvalidRegion(RepairKitError):
    """A region does not fit the function it is applied to."""


class RegionMismatch(RepairKitError):
    """The buggy-to-fixed change extends outside the stated region."""


class MalformedOutput(RepairKitError):
    """Model output could not be decoded into the expected representation."""


class HunkApplyFailure(RepairKitError):
    """A diff hunk could not be located uniquely in the target text."""

    def __init__(self, hunk_index: int, reason: str = "context not found"):
        super().__init__(f"hunk {hunk_index}: {reason}")
        self.hunk_index = hunk_index
        self.reason = reason


class SpliceError(RepairKitError):
    """A candidate could not be spliced into the target file."""


class BadTemplate(RepairKitError):
    """A chat prompt template is missing its code placeholder."""


class BackendError(RepairKitError):
    """The generation backend answered with a non-success status."""

    def __init__(self, status: int, body: str):
        super().__init__(f"backend error {status}: {body[:200]}")
        self.status = status
        self.body = body


class BackendUnreachable(RepairKitError):
    """The generation backend could not be reached after retries."""


class BackendTimeout(RepairKitError):
    """The generation backend did not answer within the timeout."""


class UnknownTokenizer(RepairKitError):
    def __init__(self, tokenizer_id: str):
        super().__init__(f"unknown tokenizer: {tokenizer_id!r}")
        self.tokenizer_id = tokenizer_id


class CorpusLayoutError(RepairKitError):
    """The corpus root matches none of the supported layouts."""


class MixedPairDataset(RepairKitError):
    """A dataset file mixes more than one representation pair."""


class DuplicateRating(RepairKitError):
    """A rating for this (bug, candidate, rater, round) already exists."""


class InvalidRating(RepairKitError, ValueError):
    """A rating violates the rating protocol (e.g. tiebreak without disagreement)."""


class NoOverlap(RepairKitError):
    """The two raters share no co-rated items."""


class ManifestError(RepairKitError):
    label = "manifest entry"  # then the entry's index or bug id

    def __init__(self, entry: object, reason: str):
        super().__init__(f"{self.label} {entry}: {reason}")
        self.entry = entry
        self.reason = reason


class ManifestFileError(ManifestError):
    """A manifest file is unreadable or not a JSON list; `entry` is its path."""

    label = "manifest"


class AggregateInvariantError(RepairKitError):
    """An aggregate violates the exact <= ast <= semantic <= universe ordering."""


class StoreError(RepairKitError, ValueError):
    """A line of a record or rating store is not a valid row."""

    def __init__(self, path: object, line: int, reason: Exception):
        super().__init__(f"{path}:{line}: {type(reason).__name__}: {reason}")
        self.path = path
        self.line = line


class ConfigError(RepairKitError):
    """The toolkit configuration file or environment is invalid."""
