"""Exception taxonomy shared across the package.

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

    A loss collapse also says where it happened: ``epoch`` (the loss-trace
    index, set by ``train``), ``post_id``, ``layer`` (the layer with the
    lowest maximum log-probability) and ``log_peak`` (that maximum). Each is
    ``None`` when it does not apply.
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
