"""Exception types shared across the package."""


class HallforgeError(Exception):
    """Base class for package errors."""


class CapabilityError(HallforgeError):
    """The requested operation is not supported for this backend."""


class ResourceLimitError(HallforgeError):
    """A configured resource bound (dimension, field size) was exceeded."""

    def __init__(self, message, *, limit=None, requested=None):
        super().__init__(message)
        self.limit = limit
        self.requested = requested


class BackendMismatchError(HallforgeError):
    """Operands built over different backends were combined."""


class CacheFormatError(HallforgeError):
    """A cache file is not JSON, lacks the cache's shape, or cannot be written."""


class CacheCollisionError(HallforgeError):
    """A merged cache file has another value under a key already present."""


class InternalInvariantError(HallforgeError):
    """An internal consistency check failed; indicates a backend bug."""
