"""Exception and warning types raised across the package.

Also the UTF-8 check that both file readers (traces and networks) apply to
each line they read.
"""


class LyapstabError(Exception):
    """Base class for all package-specific errors."""


class NetworkDataError(LyapstabError):
    """Network description violates the documented schema or its invariants."""


class TopologyError(LyapstabError):
    """Network reduction failed (disconnected island, singular bus block)."""


class SetupError(LyapstabError):
    """Simulation setup failed (e.g. pre-fault equilibrium did not converge)."""


class TraceParseError(LyapstabError):
    """Malformed trace file row.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OrderingError(TraceParseError):
    """Timestamps within one generator are not strictly increasing."""


class CoverageError(LyapstabError):
    """One or more traces do not cover the required time span."""


class NoDisturbanceError(LyapstabError):
    """All clearing-instant speeds are zero; there is no event to assess."""


class DegenerateEventError(LyapstabError):
    """No severely disturbed generator remains after excluding the reference."""


class ClassificationRefused(LyapstabError):
    """Initial relative speed too small to classify; the pair is skipped."""


class ClassificationTimeout(LyapstabError):
    """A pair stage (swing automaton, crest search) ran out of data."""


class NoAssessablePairError(LyapstabError):
    """Every identified generator pair was skipped; no verdict is possible."""


class LyapstabWarning(UserWarning):
    """Non-fatal condition worth surfacing (pair skipped, odd event shape)."""


def utf8_fault(line: str) -> str | None:
    """Why a line read with ``errors="surrogateescape"`` is not UTF-8, or None.

    Bytes that are not UTF-8 decode to lone surrogates U+DC80..U+DCFF, which
    valid UTF-8 never yields and which do not encode back.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"invalid UTF-8 byte 0x{ord(line[exc.start]) - 0xDC00:02x}"
    return None
