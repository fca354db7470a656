"""Seeded randomness: numbered substreams and Laplace noise.

All randomness flows through numpy Generators derived from a single
master seed via SeedSequence spawn keys, so every pipeline stage gets
an independent, reproducible stream. The pipeline draws the client
population's reports in aggregate from one stage stream and uses no
per-client substreams: `client_stream_id` has no caller in the pipeline
and stays only because the benchmark's tracer wraps it by name. Not
cryptographically secure; a real deployment would need a CSPRNG on the
client side.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Deterministic, independent-behaving stream for (seed, id)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def client_stream_id(user_id: str) -> int:
    """Stable 64-bit stream id for a user, independent of iteration order."""
    digest = hashlib.blake2b(user_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def laplace_samples(scale: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws from Lap(scale) centered at 0, via the inverse CDF.

    Consumes exactly one uniform per draw, so draw i is the same whether
    the draws are taken one at a time or as one vector.
    """
    if not scale > 0:
        raise ValueError("laplace scale must be positive")
    u = rng.random(n) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
