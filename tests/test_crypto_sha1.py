"""Tests for SHA-1 (FIPS 180-4 vectors + the block-granular API)."""

import pytest

from repro.crypto.sha1 import BLOCK_BYTES, DIGEST_BYTES, SHA1, sha1

from sha1_reference import ReferenceSHA1

# Known-answer vectors (FIPS / RFC 3174).
VECTORS = [
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (b"a" * 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
    (
        b"The quick brown fox jumps over the lazy dog",
        "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
    ),
]


@pytest.mark.parametrize("message,expected", VECTORS)
def test_known_answer_vectors(message, expected):
    assert sha1(message).hex() == expected


@pytest.mark.parametrize(
    "message,expected", [v for v in VECTORS if len(v[0]) < 1_000], ids=range(4)
)
def test_reference_oracle_vectors(message, expected):
    """The test oracle itself reproduces the FIPS vectors."""
    assert ReferenceSHA1(message).hexdigest() == expected


def test_digest_length():
    assert len(sha1(b"x")) == DIGEST_BYTES


def test_incremental_equals_oneshot():
    message = bytes(range(256)) * 7
    state = SHA1()
    for offset in range(0, len(message), 13):
        state.update(message[offset : offset + 13])
    assert state.digest() == sha1(message)


def test_digest_is_idempotent():
    state = SHA1(b"hello")
    first = state.digest()
    assert state.digest() == first


def test_update_after_finalize_rejected():
    state = SHA1(b"hello")
    state.digest()
    with pytest.raises(ValueError):
        state.update(b"more")


def test_feed_and_compress_pending_block_by_block():
    """The RTM's interruptible interface must agree with update()."""
    message = b"q" * (BLOCK_BYTES * 5 + 17)
    state = SHA1()
    state.feed(message)
    total = 0
    while state.pending_blocks():
        total += state.compress_pending(max_blocks=1)
    assert total == 5
    assert state.digest() == sha1(message)


def test_compress_pending_respects_max_blocks():
    state = SHA1()
    state.feed(b"z" * (BLOCK_BYTES * 4))
    assert state.compress_pending(max_blocks=2) == 2
    assert state.pending_blocks() == 2


def test_feed_after_finalize_rejected():
    state = SHA1(b"x")
    state.digest()
    with pytest.raises(ValueError):
        state.feed(b"y")


def test_copy_is_independent():
    state = SHA1(b"prefix")
    clone = state.copy()
    state.update(b"-a")
    clone.update(b"-b")
    assert state.digest() != clone.digest()
    assert state.digest() == sha1(b"prefix-a")
    assert clone.digest() == sha1(b"prefix-b")


def test_hexdigest_matches_digest():
    state = SHA1(b"abc")
    assert state.hexdigest() == state.digest().hex()


def test_exact_block_boundary_padding():
    """Messages of exactly one block force a second padding block."""
    message = b"b" * BLOCK_BYTES
    assert sha1(message) == SHA1(message).digest()
    # 55 vs 56 bytes straddles the length-field boundary.
    assert sha1(b"c" * 55) != sha1(b"c" * 56)


def test_different_messages_different_digests():
    assert sha1(b"task-a") != sha1(b"task-b")
