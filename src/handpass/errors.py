"""Exception types shared across the handpass package, and the rules
every layer applies to an outside value: a count, an amount, a member
of a fixed set and a JSON document's header."""

import math
import numbers

import numpy as np


class HandpassError(Exception):
    """Base class for all domain errors raised by this package."""


def _check_count(name, value, least) -> int:
    """value as an int; refuse, with ValueError, a value that is not an
    integer >= least.  numpy integers are integers, bools are not."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} {value!r} is not an integer >= {least}")
    return int(value)


def _check_amount(name, value, least=0.0, above=False) -> float:
    """value as a float; refuse, with ValueError, a value that is not a real
    number (bools are not), not finite (an integer that no float holds is
    not) or below least (at or below it when above)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        amount = float(value) if real else math.nan
    except OverflowError:
        amount = math.inf
    if not (math.isfinite(amount) and (amount > least if above else amount >= least)):
        raise ValueError(f"{name} {value!r} is not a finite number"
                         f" {'>' if above else '>='} {least:g}")
    return amount


def _check_member(name, value, allowed):
    """The member of allowed that value equals (a 0-d array can equal one);
    refuse, with ValueError, any other value.  A value whose comparison with
    a member is not one truth value (an array compares elementwise) matches none."""
    for member in allowed:
        equal = member == value
        if isinstance(equal, (bool, np.bool_)) and equal:
            return member
    raise ValueError(f"{name} must be one of {allowed}: {value!r}")


def _check_header(doc, fmt, version, noun) -> None:
    """Refuse, with ValueError, a document that is not an object whose
    format is fmt and whose version is version."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    if doc.get("version") != version:
        raise ValueError(f"unsupported {noun} version {doc.get('version')!r}")


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
    """A scaler or a model cannot be fitted on an empty feature matrix."""


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
    """A vote threshold or window length passed to authenticate that no
    decision can be made under.  The service never raises it: a request
    carries no policy."""


class BadRequest(HandpassError):
    """A service request line that is not an authenticate request."""
