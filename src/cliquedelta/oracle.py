"""Independent ground truth for small instances.

The maximal-clique oracle is backed by networkx's independently authored
enumerator, which shares no code with this package's pivoting
implementation; a hard vertex-count guard keeps worst cases tractable.
networkx is imported on the oracle's first use, so the package and its CLI
load without it.
"""

from __future__ import annotations

from .delta import ChangeSet
from .enumeration import Clique
from .graph import EdgeBatch, Graph, GraphError

SIZE_GUARD = 25


class OracleSizeError(GraphError):
    pass


def _guard(g: Graph) -> None:
    if g.num_vertices() > SIZE_GUARD:
        raise OracleSizeError(
            f"oracle limited to {SIZE_GUARD} vertices, got {g.num_vertices()}")


def oracle_cliques(g: Graph) -> set[Clique]:
    """All maximal cliques of g, isolated vertices as singletons."""
    import networkx as nx

    _guard(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices())
    nxg.add_edges_from(g.edges())
    return {tuple(sorted(c)) for c in nx.find_cliques(nxg)}


def oracle_change(g: Graph, h: EdgeBatch) -> ChangeSet:
    """Change set computed by brute-force diff of before/after clique sets.

    g is left mutated to the post-update graph, matching the incremental
    operations it validates.
    """
    before = oracle_cliques(g)
    h.apply(g)
    after = oracle_cliques(g)
    return ChangeSet(new_cliques=sorted(after - before),
                     del_cliques=sorted(before - after))
