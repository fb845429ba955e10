"""Exception hierarchy shared by all abxlab modules.

Every error carries an ``exit_code`` so the CLI can map failures to its
documented exit codes without inspecting exception types one by one:
2 = usage/config error, 3 = data validation error, 4 = empty task,
5 = inconclusive gradient check.
"""


class AbxlabError(Exception):
    exit_code = 3


class UsageError(AbxlabError):
    """Bad arguments or an impossible configuration."""

    exit_code = 2


class FormatError(AbxlabError):
    """A file does not conform to its documented format."""


class DataError(AbxlabError):
    """Well-formed file with invalid payload (non-finite values, bad sizes)."""


class ConsistencyError(AbxlabError):
    """Mutually inconsistent inputs (dim or frame-period mismatch)."""


class EmptyArchiveError(DataError):
    pass


class RowError(FormatError):
    """Parse failure on a specific data row."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no
        self.message = message


class UnmappedPhoneError(DataError):
    """AF task hit phones that the table neither maps nor excludes."""

    def __init__(self, phones):
        self.phones = sorted(phones)
        super().__init__(
            "phones not mapped or excluded by the AF table: " + " ".join(self.phones)
        )


class EmptyTaskError(AbxlabError):
    """No scorable cells could be built."""

    exit_code = 4


class TrainingError(AbxlabError):
    pass


class InconclusiveGradCheck(AbxlabError):
    """Gradient check could not find an evaluation point away from L1 kinks."""

    exit_code = 5
