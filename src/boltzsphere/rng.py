"""Counter-based random streams keyed by (seed, label, ...).

Every piece of randomness in the package flows through `stream`, so runs are
reproducible for a fixed seed and independent of worker count or execution
order: each (module, replica) pair owns its own Philox stream.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError

__all__ = ["stream", "generator"]


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


def stream(seed: int, *parts) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *parts)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_part(p) for p in parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def generator(rng_seed, *parts) -> np.random.Generator:
    """An integer seed becomes the stream (rng_seed, *parts); a Generator is
    used as given, so a caller can thread one stream through several draws.
    A bool is not a seed, though Python counts it as an integer."""
    if isinstance(rng_seed, (int, np.integer)) and not isinstance(rng_seed, bool):
        return stream(rng_seed, *parts)
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    raise ParameterError(
        f"rng_seed must be an integer seed or a numpy Generator, got {type(rng_seed).__name__}"
    )
