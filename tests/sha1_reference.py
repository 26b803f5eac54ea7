"""Reference SHA-1, written from the FIPS 180-4 specification.

A test oracle for :class:`repro.crypto.sha1.SHA1`: the same
block-granular interface (``update``, ``feed``, ``pending_blocks``,
``compress_pending``, ``digest``, ``copy``), with the compression
function spelled out in Python instead of delegated to ``hashlib``.
Slow; only the tests use it.
"""

from __future__ import annotations

import struct

BLOCK_BYTES = 64
_MASK = 0xFFFFFFFF
_INITIAL = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)


def _rotl(value, count):
    """Rotate a 32-bit value left by ``count``."""
    return ((value << count) | (value >> (32 - count))) & _MASK


def compress(state, block):
    """One SHA-1 compression of a 64-byte ``block`` into ``state``."""
    w = list(struct.unpack(">16I", block))
    for t in range(16, 80):
        w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
    a, b, c, d, e = state
    for t in range(80):
        if t < 20:
            f, k = (b & c) | (~b & d), 0x5A827999
        elif t < 40:
            f, k = b ^ c ^ d, 0x6ED9EBA1
        elif t < 60:
            f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
        else:
            f, k = b ^ c ^ d, 0xCA62C1D6
        temp = (_rotl(a, 5) + f + e + k + w[t]) & _MASK
        e, d, c, b, a = d, c, _rotl(b, 30), a, temp
    return tuple((h + v) & _MASK for h, v in zip(state, (a, b, c, d, e)))


class ReferenceSHA1:
    """Incremental SHA-1 with an explicit block buffer."""

    def __init__(self, data=b""):
        self._h = _INITIAL
        self._buffer = bytearray()
        self._length = 0
        self._digest = None
        if data:
            self.update(data)

    def update(self, data):
        self.feed(data)
        self.compress_pending(self.pending_blocks())
        return self

    def feed(self, data):
        if self._digest is not None:
            raise ValueError("cannot absorb into a finalized SHA1")
        self._buffer += bytes(data)
        self._length += len(data)
        return self

    def pending_blocks(self):
        return len(self._buffer) // BLOCK_BYTES

    def compress_pending(self, max_blocks=1):
        done = 0
        while done < max_blocks and len(self._buffer) >= BLOCK_BYTES:
            self._h = compress(self._h, bytes(self._buffer[:BLOCK_BYTES]))
            del self._buffer[:BLOCK_BYTES]
            done += 1
        return done

    def digest(self):
        if self._digest is None:
            self._buffer += b"\x80"
            self._buffer += b"\x00" * ((56 - len(self._buffer)) % BLOCK_BYTES)
            self._buffer += struct.pack(">Q", self._length * 8)
            self.compress_pending(self.pending_blocks())
            self._digest = struct.pack(">5I", *self._h)
        return self._digest

    def hexdigest(self):
        return self.digest().hex()

    def copy(self):
        clone = ReferenceSHA1()
        clone._h = self._h
        clone._buffer = bytearray(self._buffer)
        clone._length = self._length
        clone._digest = self._digest
        return clone
