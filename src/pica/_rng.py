"""Deterministic random-stream derivation.

All randomness in this package flows from integer seeds through
:func:`substream`.  A substream is identified by the master seed plus a
path of integers or strings, hashed into a ``SeedSequence`` spawn key, so
each recovery restart draws its start from its own substream: a start
depends neither on the stack of restarts it descends in nor on ``restarts``.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream", "as_generator", "child_generators"]


def _path_key(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def _seed(seed: int) -> int:
    """``seed`` as an int, refused if negative, as ``SeedSequence`` would refuse it without naming it."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream identified by ``seed`` and ``path``.

    The split function is ``SeedSequence(seed, spawn_key=hash(path))``
    with strings hashed by CRC-32; the same arguments always yield a
    generator producing identical output.
    """
    key = tuple(_path_key(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(_seed(seed), spawn_key=key))


def as_generator(rng: int | np.random.Generator) -> np.random.Generator:
    """Coerce an integer seed or an existing generator to a generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(_seed(rng))


def child_generators(rng: int | np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators deterministically.

    Integer seeds split via :func:`substream`; generators split by drawing
    child seeds, so the derivation depends only on the generator's state.
    """
    if isinstance(rng, np.random.Generator):
        seeds = rng.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    return [substream(rng, i) for i in range(count)]
