"""Seed plumbing.

Every source of randomness in the package draws from a named sub-stream
derived from the single scenario seed, so runs are reproducible and a
consumer added later cannot shift the draws of an existing one.
"""

import hashlib


def derive_seed(master_seed, name):
    """Stable 64-bit sub-seed for the sub-stream called `name`."""
    text = f"{master_seed}:{name}".encode()
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big")
