"""Keyed, splittable random streams.

Every stochastic routine in this package receives an explicit stream; nothing
draws from global state.  A :class:`RandomStream` identifies a stream by a
root seed plus a tuple key, so substreams are deterministic functions of
(seed, key) and independent of the order in which they are created or
consumed.  This is what makes replicates, components and study cells
reproducible in isolation: rerunning any subset re-derives the exact same
generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RandomStream", "as_stream"]


@dataclass(frozen=True)
class RandomStream:
    """A named point in the seed tree.

    Parameters
    ----------
    seed : int
        Root seed, a non-negative integer.
    key : tuple of int
        Path from the root; each element is a non-negative integer.
    """

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if any(k < 0 for k in self.key):
            raise ValueError(f"stream key elements must be non-negative, got {self.key}")

    def child(self, *key: int) -> "RandomStream":
        """Return the substream at ``self.key + key``."""
        return RandomStream(self.seed, self.key + key)

    def generator(self) -> np.random.Generator:
        """Materialize a fresh generator for this stream.

        Repeated calls return independent objects with identical output.
        """
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key))


def as_stream(source: "RandomStream | int") -> RandomStream:
    """Coerce an integer seed or an existing stream into a RandomStream."""
    if isinstance(source, RandomStream):
        return source
    return RandomStream(int(source))
