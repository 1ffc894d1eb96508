"""Exception types shared across the handpass package, and the one rule
every layer applies to a count among its settings."""

import numbers


class HandpassError(Exception):
    """Base class for all domain errors raised by this package."""


def _check_count(name, value, least) -> int:
    """value as an int; refuse, with ValueError, a value that is not an
    integer >= least.  numpy integers are integers, bools are not."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} {value!r} is not an integer >= {least}")
    return int(value)


# capture codec

class MalformedPcapHeader(HandpassError):
    """The PCAP global header is missing or unrecognizable."""


class TruncatedRecord(HandpassError):
    """A PCAP record declares more bytes than the file contains."""


class BadCsiPayload(HandpassError):
    """A UDP payload looked like a CSI record but failed validation."""


# signal processing

class OddLength(HandpassError):
    """FFT shift requires an even-length vector."""


class ZeroSignal(HandpassError):
    """A frame whose subcarriers are all zero cannot be normalized."""


class EmptyMatrix(HandpassError):
    """A scaler cannot be fitted on an empty feature matrix."""


class DimensionMismatch(HandpassError):
    """Feature width differs from what the model or scaler was fitted on."""


# dataset assembly

class RaggedRows(HandpassError):
    """A CSV row has a different field count than the header, or a field
    that does not parse as its column's number or is not one of its
    column's values."""


class InsufficientRows(HandpassError):
    """A dataset slice needs more rows or captures than are available."""


# learning

class DegenerateLabels(HandpassError):
    """Training requires at least two distinct classes."""


class NonFiniteFeature(HandpassError):
    """Training data contains NaN or infinite values."""


class TooFewSamples(HandpassError):
    """Cross-validation needs at least k samples of every class."""


class UnsupportedModel(HandpassError):
    """The requested operation only applies to tree-based models."""


# access control

class TooFewFrames(HandpassError):
    """Enrollment requires a minimum number of frames per user."""


class WindowTooShort(HandpassError):
    """Authentication received fewer frames than the window requires."""


class BadPolicy(HandpassError):
    """A vote threshold or window length no decision can be made under."""


class BadRequest(HandpassError):
    """A service request line that is not an authenticate request."""
