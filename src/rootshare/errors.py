"""Exception hierarchy for the rootshare package.

Every error raised by this package derives from RootshareError so callers
can catch the whole family with one clause.
"""


class RootshareError(Exception):
    """Base class for all rootshare errors."""


class ConfigError(RootshareError, ValueError):
    """A configuration value is out of its documented range or inconsistent."""


class RangeError(RootshareError, ValueError):
    """A numeric input falls outside the domain an operation supports."""


class UsageError(RootshareError, RuntimeError):
    """An API was driven in an unsupported order (e.g. reusing a one-shot value)."""


class ProtocolError(RootshareError, RuntimeError):
    """The two parties disagree about protocol state (ids, shapes, rounds)."""


class TransportError(RootshareError, OSError):
    """A frame could not be read or written on the wire."""


class UnsupportedValueError(RangeError):
    """A float that cannot be bit-decomposed (zero, inf, NaN, subnormal)."""


class ConstructionError(RootshareError, ValueError):
    """A requested adversarial share split cannot be realised."""
