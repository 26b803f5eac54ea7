"""Cryptographic primitives for TyTAN.

The paper uses SHA-1 for task measurement ("We use SHA-1 but other hash
algorithms can also be used"), HMAC for remote attestation MACs and task
key derivation (``K_t = HMAC(id_t | K_p)``), and symmetric encryption
for secure storage.

The RTM needs an *incremental*, block-by-block hashing interface so
measurement can be interrupted between compression blocks - the property
the paper's real-time argument rests on.  That is a property of the
:class:`SHA1` interface and of the per-block costs charged from
:mod:`repro.cycles`, not of the host implementation: SHA-1 and HMAC
compute on ``hashlib``/``hmac``.  XTEA is implemented here.
"""

from repro.crypto.sha1 import SHA1, sha1
from repro.crypto.hmac import hmac_sha1
from repro.crypto.kdf import derive_key
from repro.crypto.xtea import XTEA, xtea_ctr
from repro.crypto.compare import constant_time_equal

__all__ = [
    "SHA1",
    "sha1",
    "hmac_sha1",
    "derive_key",
    "XTEA",
    "xtea_ctr",
    "constant_time_equal",
]
