"""Exception taxonomy, the one type rule each input type applies to the
fields it holds when built (`whole`, `number`, `flag`), and the one reader of
line-based text files (`text_lines`), shared across the package.

The CLI maps these onto its exit codes: bad flag values surface as plain
``ValueError`` (usage, exit 1), malformed or inconsistent inputs raise
``DataFormatError`` (exit 2), and numerical breakdowns raise
``NumericalError`` (exit 3).
"""


class KsatError(Exception):
    """Base class for package-specific failures."""


class DataFormatError(KsatError):
    """Malformed or mutually inconsistent input data (files, ids, dimensions)."""


class NumericalError(KsatError):
    """Numerical collapse: degenerate probabilities or a failed gradient check.

    A loss collapse or a non-finite log product also says where it
    happened: ``epoch`` (the loss-trace index, set by ``train``),
    ``post_id``, ``layer`` (for a collapse the layer with the lowest maximum
    log-probability and ``log_peak`` that maximum; else the first layer
    whose running log product is not finite). Each is ``None`` when it does
    not apply.
    """

    def __init__(
        self,
        message: str = "",
        *,
        epoch: int | None = None,
        post_id: str | None = None,
        layer: int | None = None,
        log_peak: float | None = None,
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.post_id = post_id
        self.layer = layer
        self.log_peak = log_peak


def whole(value, what: str, error: type[Exception] = ValueError) -> int:
    """`value` if it is an int but not a bool; else `error` naming `what`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an int, got {value!r}")


def number(value, what: str) -> float:
    """`value` as a float if it is a float or an in-range int but not a bool."""
    if isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} lies beyond the float range") from None
    raise ValueError(f"{what} must be a number, got {value!r}")


def flag(value, what: str) -> bool:
    """`value` if it is a bool; else ValueError naming `what`."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be a bool, got {value!r}")


def text_lines(path):
    """Each line of the file at `path`, stripped, with its number from 1.
    Lines end at ``\n``, ``\r`` or ``\r\n``, as in text mode; a line that
    is not UTF-8 raises DataFormatError naming ``path:line``."""
    with open(path, "rb") as handle:
        data = handle.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            yield lineno, raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}:{lineno}: not UTF-8 text ({exc})") from exc
