"""The lean SHA helper: the same digests as `hashlib`, and no OpenSSL on
the runtime import path."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.kvstore.store import KVStore
from repro.protocols.types import Command, OpType
from repro.shard.partition import ring_point
from repro.sim import sha
from repro.sim.rng import SplitRng

SRC = Path(__file__).resolve().parents[2] / "src"

NAMES = ([f"client:{site}:{i}" for site in ("va", "ca", "eu", "sg")
          for i in range(50)]
         + ["network", "txnco:va", "", "ü-non-ascii", "x" * 300])
KEYS = [f"k{i}" for i in range(0, 100_000, 331)] + ["", "key/with:colons"]


def test_stream_seeds_are_the_hashlib_sha256_seeds():
    for seed in (0, 1, 7, 2**40):
        root = SplitRng(seed)
        for name in NAMES:
            digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
            expected = random.Random(int.from_bytes(digest[:8], "big"))
            assert root.stream(name).getstate() == expected.getstate(), name


def test_ring_points_are_the_hashlib_sha1_points():
    for key in KEYS:
        digest = hashlib.sha1(key.encode()).digest()
        assert ring_point(key) == int.from_bytes(digest[:4], "big"), key


def test_store_digest_is_the_hashlib_sha1_digest():
    store = KVStore()
    for seq, key in enumerate(KEYS[:40], start=1):
        store.apply(Command(op=OpType.PUT, key=key, value=f"v{seq}",
                            client_id="c", seq=seq))
    payload = json.dumps(store.export_full(), sort_keys=True).encode()
    assert store.digest() == hashlib.sha1(payload).hexdigest()


def test_fallback_path_gives_the_same_digests(monkeypatch):
    """Where no builtin module exists the helper is `hashlib`'s, and both
    paths hash alike (a fresh copy of the module, loaded with the builtin
    modules hidden; the imported one is left alone)."""
    for name in ("_sha1", "_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # import raises
    spec = importlib.util.spec_from_file_location("sha_fallback", sha.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.sha1 is hashlib.sha1 and fallback.sha256 is hashlib.sha256
    for text in NAMES + KEYS:
        data = text.encode()
        assert sha.sha1(data).digest() == fallback.sha1(data).digest()
        assert sha.sha256(data).digest() == fallback.sha256(data).digest()


RUN_WITHOUT_OPENSSL = """
import sys
import repro.bench.harness
from repro.shard.txn import TxnCluster, TxnSpec
from repro.workload.ycsb import WorkloadConfig

result = TxnCluster(TxnSpec(
    protocol="raft", num_shards=2, clients_per_region=1,
    workload=WorkloadConfig(read_fraction=0.5, records=500, value_size=64),
    duration_s=1.0, warmup_s=0.2, cooldown_s=0.2, seed=3,
    check_history=True, txn_size=2, cross_shard_ratio=0.5)).run()
assert result.committed_total > 0, result.committed_total
print(sorted(m for m in sys.modules if "hashlib" in m or "ssl" in m))
"""


def test_runtime_never_loads_openssl():
    """Building and running a checked transactional cluster, with the
    bench harness imported, leaves `_hashlib` (and so libcrypto) out of
    the process."""
    done = subprocess.run([sys.executable, "-c", RUN_WITHOUT_OPENSSL],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
