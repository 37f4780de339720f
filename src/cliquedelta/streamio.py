"""Edge-list parsing and dynamic-stream generation.

A stream is an initial graph plus an ordered list of insert batches. Both
file formats are plain text; vertices exist only through the edges that
mention them, so a vertex isolated in the initial graph survives a
round-trip only if some batch edge touches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph import Edge, EdgeBatch, Graph, GraphError, normalize_edge


class EdgeListParseError(GraphError):
    pass


class StreamFormatError(GraphError):
    pass


@dataclass(frozen=True)
class StreamConfig:
    retain_prob: float = 0.1
    batch_size: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.retain_prob <= 1.0:
            raise GraphError(f"retain_prob out of range: {self.retain_prob}")
        # bool is an int subclass, and a float batch size breaks the slicing
        if type(self.batch_size) is not int:
            raise GraphError(f"batch_size must be int: {self.batch_size!r}")
        if self.batch_size < 1:
            raise GraphError(f"batch_size must be positive: {self.batch_size}")


def _decimal(token: str) -> int:
    # an id or count token: an optional sign and ASCII digits. int() also
    # reads Python literal forms, "1_0" as 10 and a fullwidth "３" as 3;
    # on an ASCII token with no "_" it reads only a sign and digits
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


@dataclass
class EdgeStream:
    initial_graph: Graph
    batches: list[EdgeBatch] = field(default_factory=list)


def parse_edge_list(data: str) -> Graph:
    """Parse whitespace-separated integer pairs, one edge per line.

    Lines starting with '#' are comments; duplicates (in either direction)
    and self loops are dropped. Graph.from_edges builds the graph from the
    other edges, normalized, in the order each was first seen.
    """
    edges: dict[Edge, None] = {}
    for lineno, line in enumerate(data.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(f"line {lineno}: expected two ids, got {line!r}")
        try:
            u, v = _decimal(tokens[0]), _decimal(tokens[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {lineno}: negative vertex id")
        if u != v:
            # a repeat keeps the place its first line gave the edge
            edges[normalize_edge(u, v)] = None
    return Graph.from_edges(edges)


def gen_stream(g: Graph, cfg: StreamConfig) -> EdgeStream:
    """Split g into a retained initial graph and batches of streamed edges.

    Each edge is independently retained with cfg.retain_prob; the rest are
    shuffled. Identical inputs always yield the identical stream.
    """
    rng = random.Random(cfg.seed)
    retained: list[Edge] = []
    streamed: list[Edge] = []
    for e in sorted(g.edges()):
        (retained if rng.random() < cfg.retain_prob else streamed).append(e)
    initial = Graph.from_edges(retained, sorted(g.vertices()))
    rng.shuffle(streamed)

    batches = [EdgeBatch.insert(streamed[i:i + cfg.batch_size])
               for i in range(0, len(streamed), cfg.batch_size)]
    return EdgeStream(initial, batches)


def write_stream(stream: EdgeStream) -> str:
    lines = [f"initial {stream.initial_graph.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in sorted(stream.initial_graph.edges()))
    for batch in stream.batches:
        lines.append(f"batch {len(batch)}")
        lines.extend(f"{u} {v}" for u, v in batch.edges)
    return "\n".join(lines) + "\n"


def read_stream(data: str) -> EdgeStream:
    """Inverse of write_stream.

    The file is a sequence of blocks. A header line is a block name and its
    edge count, ``initial <n>`` first, then ``batch <k>`` for each insert
    batch; every other non-blank line is one edge ``u v``. The initial
    vertex set is reconstructed from every edge in the file, so batch
    insertions never reference unknown vertices.
    """
    blocks: list[tuple[str, int, list[Edge]]] = []
    header = "initial"
    for line in data.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == header:
            try:
                _, count = tokens
                declared = _decimal(count)
            except ValueError:
                raise StreamFormatError(f"bad header {line.strip()!r}") from None
            edges: list[Edge] = []
            blocks.append((header, declared, edges))
            header = "batch"
        elif not blocks:
            raise StreamFormatError("missing 'initial <count>' header")
        else:
            try:
                u, v = map(_decimal, tokens)
            except ValueError:
                raise StreamFormatError(
                    f"expected edge line, got {line.strip()!r}") from None
            edges.append(normalize_edge(u, v))
    if not blocks:
        raise StreamFormatError("missing 'initial <count>' header")
    for name, declared, edges in blocks:
        if declared != len(edges):
            raise StreamFormatError(
                f"{name} header declares {declared} edges, found {len(edges)}")
    vertices = {x for _, _, edges in blocks for e in edges for x in e}
    (_, _, initial_edges), *batches = blocks
    return EdgeStream(Graph.from_edges(initial_edges, vertices=vertices),
                      [EdgeBatch.insert(edges) for _, _, edges in batches])
