"""Synthetic sources realizing each independence structure, plus mixing.

Generators are deterministic per seed: pass an integer and all internal
streams derive from it through the documented split function, so reruns
are bit-identical.

Distribution tags (all standardized to mean 0, variance 1):
  uniform             U(-sqrt 3, sqrt 3), excess kurtosis -6/5
  laplace_like        difference of two iid Exp(1) over sqrt 2, kurtosis 3
  rademacher_mixture  random sign times magnitude in {sqrt .5, sqrt 1.5},
                      symmetric, kurtosis -7/4
  exponential         Exp(1) - 1, skewed; used by the graph builders
  gaussian            allowed for at most one coordinate
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _json
from ._rng import as_generator, child_generators
from .estimation import whiten
from .patterns import IndependenceGraph, PartitionSpec

__all__ = [
    "DIST_TAGS",
    "SourceSpec",
    "gen_independent_sources",
    "gen_partitioned_sources",
    "gen_graph_sources",
    "mix",
    "simulate",
    "source_spec_to_json",
    "source_spec_from_json",
    "save_source_spec",
    "load_source_spec",
]

DIST_TAGS = ("uniform", "laplace_like", "rademacher_mixture", "exponential", "gaussian")

# Strength of the odd within-block coupling in partitioned sources.
_COUPLING = 0.3


def _draw(tag: str, n: int, g: np.random.Generator) -> np.ndarray:
    """One standardized column; population standardization (closed forms)."""
    if tag == "uniform":
        return g.uniform(-np.sqrt(3.0), np.sqrt(3.0), n)
    if tag == "laplace_like":
        return (g.exponential(1.0, n) - g.exponential(1.0, n)) / np.sqrt(2.0)
    if tag == "rademacher_mixture":
        signs = g.choice([-1.0, 1.0], size=n)
        mags = np.where(g.random(n) < 0.5, np.sqrt(0.5), np.sqrt(1.5))
        return signs * mags
    if tag == "exponential":
        return g.exponential(1.0, n) - 1.0
    if tag == "gaussian":
        return g.standard_normal(n)
    raise ValueError(f"unknown distribution tag {tag!r}; known: {DIST_TAGS}")


def _resolve_dists(dist: str | list[str], d: int) -> list[str]:
    tags = [dist] * d if isinstance(dist, str) else list(dist)
    if len(tags) != d:
        raise ValueError(f"need {d} distribution tags, got {len(tags)}")
    for tag in tags:
        if tag not in DIST_TAGS:
            raise ValueError(f"unknown distribution tag {tag!r}; known: {DIST_TAGS}")
    if sum(tag == "gaussian" for tag in tags) > 1:
        raise ValueError("at most one gaussian coordinate is identifiable")
    return tags


def gen_independent_sources(
    n: int, d: int, dist: str | list[str], rng: int | np.random.Generator
) -> np.ndarray:
    """Mutually independent standardized columns.

    ``dist`` is one tag for all columns or a per-column list; more than
    one gaussian column is rejected.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    tags = _resolve_dists(dist, d)
    g = as_generator(rng)
    return np.column_stack([_draw(tag, n, g) for tag in tags])


def gen_partitioned_sources(
    n: int, spec: PartitionSpec, dist: str | list[str], rng: int | np.random.Generator
) -> np.ndarray:
    """Blocks independent of each other, dependent within.

    Each block mixes independent non-Gaussian latents by a random
    invertible matrix and adds an odd (cubic) coupling on one coordinate,
    which makes the within-block dependence survive whitening.  The block
    is then whitened so the full source vector has exact identity sample
    covariance; the identifiability theory assumes white sources.  Blocks
    draw from disjoint substreams.
    """
    if n < 1:
        raise ValueError("n must be positive")
    tags = _resolve_dists(dist, spec.dim)
    streams = child_generators(rng, len(spec.blocks))
    out = np.empty((n, spec.dim))
    for members, g in zip(spec.blocks, streams):
        k = len(members)
        block_tags = [tags[i - 1] for i in members]
        latents = np.column_stack([_draw(tag, n, g) for tag in block_tags])
        if k == 1:
            block = latents
        else:
            m = g.standard_normal((k, k))
            while np.linalg.svd(m, compute_uv=False)[-1] < 0.3:
                m = g.standard_normal((k, k))
            block = latents @ m.T
            block[:, 0] = block[:, 0] + _COUPLING * block[:, 1] ** 3
            block = whiten(block).whitened
        for pos, i in enumerate(members):
            out[:, i - 1] = block[:, pos]
    return out


def _star_hub(graph: IndependenceGraph) -> bool:
    want = {(1, j) for j in range(2, graph.dim + 1)}
    return graph.dim >= 3 and set(graph.edges) == want


def _chain(graph: IndependenceGraph) -> bool:
    want = {(i, i + 1) for i in range(1, graph.dim)}
    return graph.dim >= 2 and set(graph.edges) == want


def _complete_components(graph: IndependenceGraph) -> PartitionSpec | None:
    """Partition spec when every connected component is a complete graph."""
    d = graph.dim
    adj = {v: set() for v in range(1, d + 1)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    blocks = []
    for v in range(1, d + 1):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        for u in comp:
            if adj[u] != comp - {u}:
                return None
        blocks.append(tuple(sorted(comp)))
    return PartitionSpec(d, tuple(blocks))


def gen_graph_sources(n: int, graph: IndependenceGraph, rng: int | np.random.Generator) -> np.ndarray:
    """Sources whose pairwise independence matches the graph's non-edges.

    Supported families:
      star with hub 1   leaves iid skewed non-Gaussian; the hub is a
                        standardized sum of cubed leaves plus fresh noise,
                        so leaves stay exactly independent of each other;
      chain 1-2-...-d   moving average x_i = (e_i + e_{i+1})/sqrt 2 over
                        iid skewed noise: adjacent pairs share one e term,
                        pairs at distance two or more share none;
      disjoint complete components   delegates to the partitioned builder.

    Skewed (exponential) latents keep the quoted third-order cumulant
    entries away from zero; symmetric latents would null them.
    """
    if n < 1:
        raise ValueError("n must be positive")
    g = as_generator(rng)
    d = graph.dim
    if _star_hub(graph):
        leaves = np.column_stack([_draw("exponential", n, g) for _ in range(d - 1)])
        coeff = 1.0 / np.sqrt(d - 1)
        hub = coeff * (leaves**3).sum(axis=1) + _draw("exponential", n, g)
        hub = (hub - hub.mean()) / hub.std()
        return np.column_stack([hub, leaves])
    if _chain(graph):
        eps = np.column_stack([_draw("exponential", n, g) for _ in range(d + 1)])
        return (eps[:, :-1] + eps[:, 1:]) / np.sqrt(2.0)
    spec = _complete_components(graph)
    if spec is not None:
        # bounded latents keep the delegated blocks' sample cumulants tight
        return gen_partitioned_sources(n, spec, "uniform", g)
    raise ValueError(
        "unsupported graph shape; supported: star with hub 1, chain 1-2-...-d, "
        "disjoint unions of complete graphs"
    )


def mix(sources: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply the mixing matrix row-wise: each output row is A @ input row."""
    sources = np.asarray(sources, dtype=float)
    a = np.asarray(a, dtype=float)
    if sources.ndim != 2:
        raise ValueError(f"sources must be 2-D, got shape {sources.shape}")
    if a.shape != (sources.shape[1], sources.shape[1]):
        raise ValueError(f"mixing matrix shape {a.shape} does not match d={sources.shape[1]}")
    return sources @ a.T


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of a source construction, for provenance."""

    kind: str  # independent | partitioned | graph
    dim: int
    dist: str = "uniform"
    blocks: tuple[tuple[int, ...], ...] | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("independent", "partitioned", "graph"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "partitioned" and self.blocks is None:
            raise ValueError("partitioned sources need blocks")
        if self.kind == "graph" and self.edges is None:
            raise ValueError("graph sources need edges")
        if self.kind != "partitioned" and self.blocks is not None:
            raise ValueError(f"{self.kind} sources take no blocks")
        if self.kind != "graph" and self.edges is not None:
            raise ValueError(f"{self.kind} sources take no edges")
        if self.dist == "gaussian" and self.dim > 1:
            raise ValueError("at most one gaussian coordinate is identifiable")


def simulate(spec: SourceSpec, n: int, seed: int) -> np.ndarray:
    """Generate n samples for a source spec, deterministically in seed."""
    if spec.kind == "independent":
        return gen_independent_sources(n, spec.dim, spec.dist, seed)
    if spec.kind == "partitioned":
        pspec = PartitionSpec(spec.dim, spec.blocks)
        return gen_partitioned_sources(n, pspec, spec.dist, seed)
    graph = IndependenceGraph(spec.dim, list(spec.edges))
    return gen_graph_sources(n, graph, seed)


def source_spec_to_json(spec: SourceSpec) -> dict:
    obj: dict = {"kind": spec.kind, "d": spec.dim, "dist": spec.dist}
    if spec.blocks is not None:
        obj["blocks"] = [list(b) for b in spec.blocks]
    if spec.edges is not None:
        obj["edges"] = [list(e) for e in spec.edges]
    return obj


def source_spec_from_json(obj: dict) -> SourceSpec:
    blocks = obj.get("blocks")
    edges = obj.get("edges")
    return SourceSpec(
        kind=obj["kind"],
        dim=int(obj["d"]),
        dist=obj.get("dist", "uniform"),
        blocks=tuple(tuple(b) for b in blocks) if blocks is not None else None,
        edges=tuple(tuple(e) for e in edges) if edges is not None else None,
    )


def save_source_spec(spec: SourceSpec, path, extra: dict | None = None) -> None:
    obj = source_spec_to_json(spec)
    obj.update(extra or {})
    _json.dump(obj, path)


def load_source_spec(path) -> SourceSpec:
    return _json.load(path, source_spec_from_json)
