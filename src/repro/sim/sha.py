"""SHA-1 and SHA-256 without OpenSSL on the runtime import path.

`hashlib` loads `_hashlib`, which maps OpenSSL's libcrypto (~3.6 MB of
resident memory) into every process that imports it — and the runtime
only ever hashes short strings: the stream seeds of `SplitRng`, the ring
points of `repro.shard.partition` and `KVStore.digest`.  CPython ships
its own SHA implementations as small builtin modules (`_sha2` from 3.12,
`_sha256`/`_sha1` before), so this module imports those and falls back
to `hashlib` only where they are missing — the same lean import
`random.py` does for `_sha512`.  The digests are byte-identical either
way; this is the one module in the runtime that may import `hashlib`.
"""

from __future__ import annotations

try:
    from _sha1 import sha1
    try:  # CPython 3.12+
        from _sha2 import sha256
    except ImportError:  # CPython 3.10, 3.11
        from _sha256 import sha256
except ImportError:  # another interpreter: the heavy but portable path
    from hashlib import sha1, sha256

__all__ = ["sha1", "sha256"]
