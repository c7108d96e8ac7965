"""Exception types shared across the package."""

__all__ = ["NotAFrameError", "InadmissibleError", "ClusteringError", "OffFiberError", "ConnectError"]


class NotAFrameError(ValueError):
    """The matrix does not span the ambient space, so frame-only operations fail."""


class InadmissibleError(ValueError):
    """Requested spectrum/norms pair violates the interlacing conditions.

    Carries the failed check as ``.check`` (an ``AdmissibilityCheck``).
    """

    def __init__(self, message, check=None):
        super().__init__(message)
        self.check = check


class ClusteringError(ValueError):
    """Eigenvalue gaps fall inside the ambiguity band around the clustering tolerance."""


class OffFiberError(ValueError):
    """An endpoint of connect() is off the fiber: ``.index`` 0 or 1, ``.residual`` its Phi.

    Both fields default to None, as InadmissibleError.check and ConnectError.t
    do: pickle and copy rebuild an error from its message alone, then restore
    its fields.
    """

    def __init__(self, message, index=None, residual=None):
        super().__init__(message)
        self.index, self.residual = index, residual


class ConnectError(RuntimeError):
    """Path search between two fiber points failed.

    ``.t`` holds the interpolation parameter where tracing broke down.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
