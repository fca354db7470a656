"""Seeded randomness: numbered substreams and Laplace noise.

All randomness flows through numpy Generators derived from a single
master seed via SeedSequence spawn keys, so every pipeline stage gets
an independent, reproducible stream. The pipeline draws the client
population's reports in aggregate from one stage stream and uses no
per-client substreams: `client_stream_id` has no caller in the pipeline,
stays only because the benchmark's tracer wraps it by name, and imports
`hashlib` only when it is called. Not cryptographically secure; a real
deployment would need a CSPRNG on the client side.
"""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Deterministic, independent-behaving stream for (seed, id)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def client_stream_id(user_id: str) -> int:
    """Stable 64-bit stream id for a user, independent of iteration order."""
    import hashlib  # here, so that importing this module leaves OpenSSL unloaded

    digest = hashlib.blake2b(user_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def laplace_samples(scale: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws from Lap(scale) centered at 0, via the inverse CDF.

    One uniform per draw, so draw i is the same drawn alone or in a vector; but a
    uniform of exactly 0 (chance 2^-53), which gives -inf, is drawn again after
    the others, as numpy's own Laplace sampler does.
    """
    if not scale > 0:
        raise ValueError("laplace scale must be positive")
    u = rng.random(n)
    while not np.all(u):
        u[u == 0] = rng.random(n - np.count_nonzero(u))
    u -= 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
