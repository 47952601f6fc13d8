"""Framed binary cache files: magic + version + payload + SHA-256 trailer.

The digest comes from CPython's own SHA-256 module (``_sha2``, or
``_sha256`` before Python 3.12), which needs no OpenSSL, and from
``hashlib`` only where a build lacks it: the same digest either way.

Writers always produce the payload as one bytes object so identical logical
content yields identical files, and replace a file atomically, never in
place. Integers of arbitrary size are stored as a 2-byte length followed by
signed big-endian bytes.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys

from .errors import CacheFormatError

_TRAILER = 32  # sha256 digest size


def pack_bigint(n: int) -> bytes:
    length = max(1, (n.bit_length() + 8) // 8)  # +8 keeps a sign bit
    body = n.to_bytes(length, "big", signed=True)
    return struct.pack(">H", len(body)) + body


def unpack_bigint(buf: bytes, off: int) -> tuple[int, int]:
    (length,) = struct.unpack_from(">H", buf, off)
    off += 2
    return int.from_bytes(buf[off : off + length], "big", signed=True), off + length


def _sha256():
    """The SHA-256 constructor of CPython's own module, ``hashlib.sha256``
    where the build lacks it. Imported by each frame read or write, never
    with the package: ``import hashlib`` loads OpenSSL, 4-5 ms against
    0.4-0.6 ms for CPython's module (2 vCPUs, Python 3.11), and only cache
    files need a digest."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def write_frame(path, magic: bytes, version: int, payload: bytes) -> None:
    """Write the framed file atomically: a reader sees the old file or the new.

    The frame goes to a unique temporary file in the same directory, which
    is flushed, fsync'ed and then renamed onto ``path``; on any failure the
    temporary file is removed and ``path`` is left untouched.
    """
    head = magic + struct.pack(">I", version)
    digest = _sha256()(head + payload).digest()
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(head)
            fh.write(payload)
            fh.write(digest)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_frame(path, magic: bytes, version: int) -> bytes:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) + 4 + _TRAILER:
        raise CacheFormatError(f"{path}: truncated cache file")
    if blob[: len(magic)] != magic:
        raise CacheFormatError(f"{path}: bad magic, not a {magic!r} cache")
    (ver,) = struct.unpack_from(">I", blob, len(magic))
    if ver != version:
        raise CacheFormatError(
            f"{path}: format version {ver}, expected {version}; "
            "delete this cache file so that it is rebuilt"
        )
    body, digest = blob[:-_TRAILER], blob[-_TRAILER:]
    if _sha256()(body).digest() != digest:
        raise CacheFormatError(f"{path}: checksum mismatch, file is corrupted")
    return body[len(magic) + 4 :]
