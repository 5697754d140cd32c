"""Exception and warning types raised across the package.

One type per decision a caller makes.  A pair the swing classifier refuses
is SKIPPED (:class:`ClassificationRefused`); a pair whose data ends before
the classifier, the crest search or the exponent fit decides is
UNDETERMINED_TIMEOUT (:class:`ClassificationTimeout`); every other fault in
outside input raises :class:`LyapstabError`, and the command fails.

Also the UTF-8 check that both file readers (traces and networks) apply to
each line they read.
"""


class LyapstabError(Exception):
    """Outside input the package cannot use; the message names the fault."""


class ClassificationRefused(LyapstabError):
    """Initial relative speed too small to classify; the pair is skipped."""


class ClassificationTimeout(LyapstabError):
    """A pair stage (swing automaton, crest search, fit) ran out of data."""


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
