"""Constant-time comparison.

MAC verification (remote attestation, secure storage integrity) must not
leak how many prefix bytes matched; trusted components compare digests
with :func:`constant_time_equal`.
"""

from __future__ import annotations

import hmac


def constant_time_equal(left, right):
    """Compare two byte strings without early exit on mismatch.

    Strings of different lengths compare unequal.
    """
    return hmac.compare_digest(bytes(left), bytes(right))
