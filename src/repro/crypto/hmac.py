"""HMAC-SHA-1 (RFC 2104), on the standard library.

TyTAN uses MACs for remote attestation reports and for task key
derivation: ``K_t = HMAC(id_t | K_p)`` binds a storage key to both the
task identity and the platform (Section 3, "Secure storage").  The
simulated cost of a MAC is charged from :mod:`repro.cycles`, so the
host computes it with :func:`hmac.digest`.
"""

from __future__ import annotations

import hashlib
import hmac


def hmac_sha1(key, message):
    """Compute ``HMAC-SHA1(key, message)``; returns 20 bytes."""
    return hmac.digest(bytes(key), bytes(message), hashlib.sha1)
