"""Reader for CAVP-format .rsp known-answer files.

Files carry Len/Msg/MD record triples, # comments, and bracketed headers
of which only [L = bits] is meaningful (it names the digest size).  A
Len of 0 means an empty message regardless of the Msg placeholder, per
the CAVP convention.  Records whose bit length is not a whole number of
bytes are skipped with a warning, since the byte-oriented kernels cannot
absorb them.
"""

import re
import warnings
from dataclasses import dataclass, field
from importlib import resources

from . import keccak

__all__ = [
    "BUNDLED_CLASSES", "CavpError", "CavpVector", "CavpVectorSet",
    "bundled_vector_names", "load_bundled", "parse_rsp",
]

BUNDLED_CLASSES = ("short", "long")

_DIGEST_BITS = {p.digest_bytes * 8: name for name, p in keccak.VARIANTS.items()}
_HEADER_RE = re.compile(r"^\[\s*L\s*=\s*(\d+)\s*\]$")
_FIELD_RE = re.compile(r"^(\w+)\s*=\s*(\S*)$")


class CavpError(Exception):
    """Malformed .rsp content; the message names the offending line."""


@dataclass(frozen=True)
class CavpVector:
    length_bits: int
    message: bytes
    digest: bytes


@dataclass
class CavpVectorSet:
    variant: str
    source: str
    vectors: list = field(default_factory=list)


def parse_rsp(text, *, variant=None, source="<string>"):
    """Parse .rsp file contents into a CavpVectorSet.

    The variant comes from the argument, else the [L = bits] header, else
    the first digest's length; disagreement between any of these is an
    error.  Raises CavpError with a line number on malformed input.
    """
    if variant is not None:
        keccak.sponge_params(variant)

    resolved = variant
    vectors = []
    pending = None

    def fail(line_no, msg):
        raise CavpError(f"{source}: line {line_no}: {msg}")

    def resolve(line_no, candidate, origin):
        nonlocal resolved
        if resolved is None:
            resolved = candidate
        elif resolved != candidate:
            fail(line_no, f"{origin} implies {candidate}, but the set is {resolved}")

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            m = _HEADER_RE.match(line)
            if m:
                bits = int(m.group(1))
                if bits not in _DIGEST_BITS:
                    fail(line_no, f"no variant has {bits}-bit digests")
                resolve(line_no, _DIGEST_BITS[bits], "[L] header")
            continue
        m = _FIELD_RE.match(line)
        if not m:
            fail(line_no, f"expected 'name = value', got {line!r}")
        key, value = m.group(1), m.group(2)
        if key == "Len":
            if pending is not None:
                fail(line_no, "Len before the previous record finished")
            try:
                bits = int(value)
            except ValueError:
                fail(line_no, f"bad Len value {value!r}")
            if bits < 0:
                fail(line_no, f"negative Len {bits}")
            pending = {"bits": bits, "line": line_no}
        elif key == "Msg":
            if pending is None or "msg" in pending:
                fail(line_no, "Msg outside a Len/Msg/MD record")
            try:
                pending["msg"] = bytes.fromhex(value)
            except ValueError:
                fail(line_no, f"bad message hex {value!r}")
            pending["msg_line"] = line_no
        elif key == "MD":
            if pending is None or "msg" not in pending:
                fail(line_no, "MD outside a Len/Msg/MD record")
            try:
                digest = bytes.fromhex(value)
            except ValueError:
                fail(line_no, f"bad digest hex {value!r}")
            bits = pending["bits"]
            if bits % 8:
                warnings.warn(
                    f"{source}: line {pending['line']}: Len = {bits} is not a "
                    f"whole number of bytes; record skipped")
                pending = None
                continue
            message = pending["msg"] if bits else b""
            if len(message) * 8 != bits:
                fail(pending["msg_line"],
                     f"message is {len(message)} bytes but Len = {bits}")
            if len(digest) * 8 not in _DIGEST_BITS:
                fail(line_no, f"digest length {len(digest)} matches no variant")
            resolve(line_no, _DIGEST_BITS[len(digest) * 8], "digest length")
            vectors.append(CavpVector(bits, message, digest))
            pending = None
        # other keys (Seed, COUNT, ...) are ignored

    if pending is not None:
        fail(pending["line"], "unterminated record at end of file")
    if resolved is None and vectors:
        raise CavpError(f"{source}: could not determine the variant")
    return CavpVectorSet(variant=resolved, source=source, vectors=vectors)


def _bundle_name(variant, msg_class):
    keccak.sponge_params(variant)
    if msg_class not in BUNDLED_CLASSES:
        raise ValueError(f"unknown vector class {msg_class!r}")
    stem = variant.replace("sha3-", "SHA3_")
    return f"{stem}{'ShortMsg' if msg_class == 'short' else 'LongMsg'}.rsp"


def bundled_vector_names():
    """(variant, class, file name) for every bundled vector file."""
    return [(v, c, _bundle_name(v, c))
            for v in sorted(keccak.VARIANTS) for c in BUNDLED_CLASSES]


def load_bundled(variant, msg_class):
    """Load one bundled known-answer file."""
    name = _bundle_name(variant, msg_class)
    text = resources.files("shatrv").joinpath("vectors", name).read_text()
    return parse_rsp(text, variant=variant, source=name)
