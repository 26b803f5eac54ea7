"""Property-based tests (hypothesis) for the crypto substrate."""

import hashlib

from hypothesis import given, strategies as st

from repro.crypto.compare import constant_time_equal
from repro.crypto.hmac import hmac_sha1
from repro.crypto.kdf import derive_key
from repro.crypto.sha1 import SHA1, sha1
from repro.crypto.xtea import XTEA, xtea_ctr

from sha1_reference import ReferenceSHA1

#: One step on a hash state: absorb, buffer, compress up to k blocks,
#: or fork (the original is finalized, the copy carries on).
_SHA1_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.binary(max_size=200)),
        st.tuples(st.just("feed"), st.binary(max_size=200)),
        st.tuples(st.just("compress"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("copy"), st.none()),
    ),
    max_size=24,
)


class TestSHA1Properties:
    @given(st.binary(max_size=2_048))
    def test_matches_hashlib(self, message):
        """Differential oracle: our SHA-1 == CPython's for all inputs."""
        assert sha1(message) == hashlib.sha1(message).digest()

    @given(st.binary(max_size=1_024), st.integers(min_value=1, max_value=64))
    def test_chunking_invariance(self, message, chunk):
        state = SHA1()
        for offset in range(0, len(message), chunk):
            state.update(message[offset : offset + chunk])
        assert state.digest() == sha1(message)

    @given(st.binary(max_size=512), st.binary(max_size=512))
    def test_feed_then_update_equivalent(self, head, tail):
        via_feed = SHA1()
        via_feed.feed(head)
        while via_feed.pending_blocks():
            via_feed.compress_pending()
        via_feed.update(tail)
        assert via_feed.digest() == sha1(head + tail)

    @given(_SHA1_OPS)
    def test_block_interface_matches_reference(self, ops):
        """Any interleaving of the RTM's block-granular calls gives the
        same digests and block counts from the FIPS 180-4 reference,
        from ``SHA1`` and from ``hashlib``."""
        ours, reference, message = SHA1(), ReferenceSHA1(), b""
        for op, arg in ops:
            if op == "compress":
                assert ours.compress_pending(arg) == reference.compress_pending(arg)
            elif op == "copy":
                forks = ours.copy(), reference.copy()
                expected = hashlib.sha1(message).digest()
                assert ours.digest() == reference.digest() == expected
                ours, reference = forks
            else:
                getattr(ours, op)(arg)
                getattr(reference, op)(arg)
                message += arg
            assert ours.pending_blocks() == reference.pending_blocks()
        expected = hashlib.sha1(message).digest()
        assert ours.digest() == reference.digest() == expected


class TestHMACProperties:
    @given(st.binary(min_size=1, max_size=128), st.binary(max_size=512))
    def test_matches_hashlib_hmac(self, key, message):
        import hmac as stdlib_hmac

        expected = stdlib_hmac.new(key, message, hashlib.sha1).digest()
        assert hmac_sha1(key, message) == expected


class TestKDFProperties:
    @given(
        st.binary(min_size=1, max_size=64),
        st.binary(min_size=1, max_size=32),
        st.integers(min_value=1, max_value=100),
    )
    def test_length_and_determinism(self, master, label, length):
        out = derive_key(master, label, length=length)
        assert len(out) == length
        assert out == derive_key(master, label, length=length)

    @given(st.binary(min_size=1, max_size=32), st.binary(min_size=1, max_size=32))
    def test_distinct_labels_distinct_keys(self, master, label):
        other = label + b"x"
        assert derive_key(master, label) != derive_key(master, other)


class TestXTEAProperties:
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=8, max_size=8))
    def test_block_roundtrip(self, key, block):
        cipher = XTEA(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=4, max_size=4),
        st.binary(max_size=256),
    )
    def test_ctr_roundtrip(self, key, nonce, data):
        assert xtea_ctr(key, nonce, xtea_ctr(key, nonce, data)) == data

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=8, max_size=8))
    def test_encryption_changes_block(self, key, block):
        # A block cipher fixed point is astronomically unlikely.
        assert XTEA(key).encrypt_block(block) != block


class TestConstantTimeEqual:
    @given(st.binary(max_size=64))
    def test_reflexive(self, data):
        assert constant_time_equal(data, data)

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=0))
    def test_single_bit_flip_detected(self, data, position):
        index = position % len(data)
        flipped = (
            data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1 :]
        )
        assert not constant_time_equal(data, flipped)

    @given(st.binary(max_size=32), st.binary(max_size=32))
    def test_matches_equality(self, left, right):
        assert constant_time_equal(left, right) == (left == right)
