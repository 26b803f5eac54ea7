"""SHA-1 with a block-granular, interruptible interface.

:meth:`SHA1.update` absorbs input and compresses every full 64-byte
block at once; :meth:`SHA1.feed` only buffers, and
:meth:`SHA1.compress_pending` lets a caller drive compression a bounded
number of blocks per call.  The RTM uses that entry point so task
measurement can be interrupted at block boundaries, which is how TyTAN
keeps hashing real-time compliant (Section 3, "Attestation").

Interruptibility is a property of this *interface* and of the simulated
costs in :mod:`repro.cycles` the RTM charges per block - not of the host
implementation.  The compression itself runs on :func:`hashlib.sha1`:
the host hash is not part of the model, so it only has to be fast and
produce the FIPS 180-4 digest.

SHA-1 is cryptographically broken for collision resistance; we use it
because the paper does.  The interface mirrors ``hashlib`` so a
stronger hash could be swapped in, as the paper notes.
"""

from __future__ import annotations

import hashlib

#: Compression block size in bytes.
BLOCK_BYTES = 64
#: Digest size in bytes.
DIGEST_BYTES = 20


class SHA1:
    """Incremental SHA-1 state."""

    def __init__(self, data=b""):
        self._state = hashlib.sha1()
        self._buffer = bytearray()  # fed bytes not yet compressed
        self._digest = None  # set once finalized
        if data:
            self.update(data)

    # -- absorbing ---------------------------------------------------------

    def update(self, data):
        """Absorb ``data``, compressing full blocks immediately."""
        self._append(data)
        self._absorb(self.pending_blocks())
        return self

    def feed(self, data):
        """Buffer ``data`` *without* compressing (pair with
        :meth:`compress_pending` for interruptible hashing)."""
        self._append(data)
        return self

    def pending_blocks(self):
        """Number of full blocks buffered and awaiting compression."""
        return len(self._buffer) // BLOCK_BYTES

    def compress_pending(self, max_blocks=1):
        """Compress up to ``max_blocks`` buffered blocks; returns how
        many were actually compressed.  This is the RTM's interruptible
        work unit."""
        done = max(0, min(max_blocks, self.pending_blocks()))
        self._absorb(done)
        return done

    def _append(self, data):
        if self._digest is not None:
            raise ValueError("cannot absorb into a finalized SHA1")
        self._buffer += bytes(data)

    def _absorb(self, blocks):
        cut = blocks * BLOCK_BYTES
        self._state.update(self._buffer[:cut])
        del self._buffer[:cut]

    # -- finalisation -----------------------------------------------------

    def digest(self):
        """Finalize (idempotently) and return the 20-byte digest."""
        if self._digest is None:
            self._state.update(self._buffer)
            self._buffer.clear()
            self._digest = self._state.digest()
        return self._digest

    def hexdigest(self):
        """The digest as lowercase hex."""
        return self.digest().hex()

    def copy(self):
        """Independent copy of the current state."""
        clone = SHA1()
        clone._state = self._state.copy()
        clone._buffer = bytearray(self._buffer)
        clone._digest = self._digest
        return clone


def sha1(data):
    """One-shot SHA-1 digest of ``data``."""
    return hashlib.sha1(bytes(data)).digest()
