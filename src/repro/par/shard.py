"""Deterministic shard seeds.

Every shard's randomness comes from :func:`derive_seed`, a pure function
of the root seed and the shard's stable identity (never of worker index,
pid or scheduling).  Shard 3 draws the same random stream whether it
runs first, last, inline or in a subprocess.
"""

import hashlib


def derive_seed(root_seed: int, *parts) -> int:
    """A shard's seed: a pure hash of the root seed and its identity.

    ``parts`` name the shard (e.g. ``("fleet_window", 1000, 0.01)``);
    the result is a 63-bit integer stable across processes, platforms
    and Python hash randomization.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1
