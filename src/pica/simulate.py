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

from dataclasses import asdict, dataclass

import numpy as np

from . import _json
from ._rng import as_generator, child_generators
from .estimation import _rows_times, whiten
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

# One standardized column of n draws per tag, by population standardization
# (closed forms); the operands of each expression draw left to right.
_DRAWS = {
    "uniform": lambda n, g: g.uniform(-np.sqrt(3.0), np.sqrt(3.0), n),
    "laplace_like": lambda n, g: (g.exponential(1.0, n) - g.exponential(1.0, n)) / np.sqrt(2.0),
    "rademacher_mixture": lambda n, g: g.choice([-1.0, 1.0], size=n)
    * np.where(g.random(n) < 0.5, np.sqrt(0.5), np.sqrt(1.5)),
    "exponential": lambda n, g: g.exponential(1.0, n) - 1.0,
    "gaussian": lambda n, g: g.standard_normal(n),
}
DIST_TAGS = tuple(_DRAWS)

# Strength of the odd within-block coupling in partitioned sources.
_COUPLING = 0.3


def _resolve_dists(dist: str | list[str], d: int) -> list[str]:
    if not isinstance(dist, (str, list, tuple)):
        raise TypeError(f"dist must be a tag or a list of tags, got {dist!r}")
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
    return np.column_stack([_DRAWS[tag](n, g) for tag in tags])


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
        latents = np.column_stack([_DRAWS[tag](n, g) for tag in block_tags])
        if k == 1:
            block = latents
        else:
            m = g.standard_normal((k, k))
            while np.linalg.svd(m, compute_uv=False)[-1] < 0.3:
                m = g.standard_normal((k, k))
            block = _rows_times(latents, m)
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
    """Partition spec when every connected component is a complete graph.

    That holds exactly when "equal or adjacent" is transitive; each block is
    then a distinct row of that relation, in the order of its first vertex.
    """
    linked = (graph.adjacency() > 0) | np.eye(graph.dim, dtype=bool)
    if not (linked @ linked == linked).all():
        return None
    firsts = np.unique(linked.argmax(axis=1))
    return PartitionSpec(graph.dim, tuple(tuple(np.flatnonzero(linked[v]) + 1) for v in firsts))


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
        leaves = np.column_stack([_DRAWS["exponential"](n, g) for _ in range(d - 1)])
        coeff = 1.0 / np.sqrt(d - 1)
        hub = coeff * (leaves**3).sum(axis=1) + _DRAWS["exponential"](n, g)
        hub = (hub - hub.mean()) / hub.std()
        return np.column_stack([hub, leaves])
    if _chain(graph):
        eps = np.column_stack([_DRAWS["exponential"](n, g) for _ in range(d + 1)])
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
    """Apply the mixing matrix row-wise: each output row is A @ input row.

    The product runs a block of rows at a time on one BLAS thread; from two
    rows on, the result is bit for bit ``sources @ a.T``.
    """
    sources = np.asarray(sources, dtype=float)
    a = np.asarray(a, dtype=float)
    if sources.ndim != 2:
        raise ValueError(f"sources must be 2-D, got shape {sources.shape}")
    if a.shape != (sources.shape[1], sources.shape[1]):
        raise ValueError(f"mixing matrix shape {a.shape} does not match d={sources.shape[1]}")
    return _rows_times(sources, a)


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of a source construction, for provenance."""

    kind: str  # independent | partitioned | graph
    dim: int
    dist: str | list[str] | None = None  # one tag or one per coordinate; graph sources pick their own laws
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
        if self.kind != "graph":
            _resolve_dists(self.dist, self.dim)
        elif self.dist is not None:
            raise TypeError(f"graph sources take no dist, got {self.dist!r}")
        else:
            IndependenceGraph(self.dim, self.edges)  # its edge checks, when the spec is read


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
    """The fields that are set, in declaration order; ``dim`` goes by its JSON name ``d``."""
    return {"d" if key == "dim" else key: value for key, value in asdict(spec).items() if value is not None}


def source_spec_from_json(obj: dict) -> SourceSpec:
    blocks = obj.get("blocks")
    edges = obj.get("edges")
    return SourceSpec(
        kind=obj["kind"],
        dim=_json.integer(obj["d"]),
        dist=obj.get("dist", None if obj["kind"] == "graph" else "uniform"),
        blocks=tuple(tuple(map(_json.integer, b)) for b in blocks) if blocks is not None else None,
        edges=tuple(tuple(map(_json.integer, e)) for e in edges) if edges is not None else None,
    )


def save_source_spec(spec: SourceSpec, path, extra: dict | None = None) -> None:
    obj = source_spec_to_json(spec)
    obj.update(extra or {})
    _json.dump(obj, path)


def load_source_spec(path) -> SourceSpec:
    return _json.load(path, source_spec_from_json)
