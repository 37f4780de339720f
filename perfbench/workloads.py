"""Seeded workload generators for the cliquedelta benchmark.

A workload turns a seed into plain edge lists (benchmark code, untimed).
``setup`` then makes every library call between those lists and the first
batch, which is what ``setup_s`` times, and ``episode`` yields the update
steps. The library sees only the graph and batches built from the lists.

Why these three workloads: each loads a different phase of an update, so an
optimisation of one phase has a workload that exercises it and one that
bypasses it.

- community-insert: many small cliques and small local subgraphs; hashing,
  registry probes and commit dominate, and there are no deletes.
- core-churn: large, deep local subgraphs with little output; per-edge
  enumeration and deletes dominate, subsumption does little.
- extremal-churn: the largest possible change per batch; subsumption
  (split, hash, probe) dominates, enumeration does little.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator

from cliquedelta import (CliqueRegistry, EdgeBatch, Graph, StreamConfig,
                         batch_extremal, batch_extremal_change, gen_stream,
                         read_stream, ttt, write_stream)

Edge = tuple[int, int]


@dataclass
class State:
    g: Graph
    reg: CliqueRegistry


@dataclass(frozen=True)
class Step:
    """One public update call: apply_insert_batch when deletes is None,
    fully_dynamic otherwise."""

    inserts: EdgeBatch
    deletes: EdgeBatch | None = None
    #: closed-form |new| + |del| of the step, where one is known
    expected_change: int | None = None

    def num_edges(self) -> int:
        return len(self.inserts) + (len(self.deletes) if self.deletes else 0)


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _build_registry(g: Graph, tracer) -> CliqueRegistry:
    with tracer.span("enumeration.ttt"):
        cliques = list(ttt(g))
    tracer.count("enumeration.ttt_cliques", len(cliques))
    with tracer.span("signatures.build"):
        return CliqueRegistry.from_cliques(cliques)


class Workload:
    name = ""
    #: True when an episode must run to its end (a finite replayed stream);
    #: False when the runner may stop after any step (steady churn)
    whole_episodes = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def fingerprint(self) -> str:
        """Digest of the generated inputs, to show the seed is used."""
        return hashlib.sha256(repr(self._inputs()).encode()).hexdigest()

    def _inputs(self) -> object:
        raise NotImplementedError

    def setup(self, tracer) -> State:
        raise NotImplementedError

    def episode(self) -> Iterator[Step]:
        """Steps from the state ``setup`` returns; the same every call."""
        raise NotImplementedError


class CommunityInsert(Workload):
    """The criterion-10 community graph replayed as an insert stream.

    1,000 eight-vertex clusters plus random edges up to 100k edges on 10k
    vertices; ``gen_stream`` keeps 10% of the edges as the initial graph and
    the rest arrive in batches of 500. The stream goes through
    ``write_stream`` / ``read_stream`` as the CLI replays it.
    """

    name = "community-insert"
    whole_episodes = True
    N, M, CLUSTERS, CLUSTER_SIZE, BATCH = 10_000, 100_000, 1_000, 8, 500

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        edges: set[Edge] = set()
        for c in range(self.CLUSTERS):
            base = c * self.CLUSTER_SIZE + 1
            for i in range(self.CLUSTER_SIZE):
                for j in range(i + 1, self.CLUSTER_SIZE):
                    edges.add((base + i, base + j))
        while len(edges) < self.M:
            u, v = rng.randrange(1, self.N + 1), rng.randrange(1, self.N + 1)
            if u != v:
                edges.add(_norm(u, v))
        self.edges = sorted(edges)
        self.batches: list[EdgeBatch] = []

    def _inputs(self) -> object:
        return self.edges

    def setup(self, tracer) -> State:
        self.batches = []  # the last set-up's stream is not kept alive
        with tracer.span("graph.build"):
            full = Graph.from_edges(self.edges, vertices=range(1, self.N + 1))
        cfg = StreamConfig(retain_prob=0.1, batch_size=self.BATCH, seed=self.seed)
        with tracer.span("streamio.gen_stream"):
            stream = gen_stream(full, cfg)
        with tracer.span("streamio.write_stream"):
            text = write_stream(stream)
        with tracer.span("streamio.read_stream"):
            stream = read_stream(text)
        self.batches = stream.batches
        g = stream.initial_graph
        return State(g, _build_registry(g, tracer))

    def episode(self) -> Iterator[Step]:
        return (Step(b) for b in self.batches)


class CoreChurn(Workload):
    """Ten near-cliques of 100 vertices joined by sparse random edges.

    Each core misses 6 internal edges, kept vertex-disjoint so that every
    core always has exactly 2^6 maximal cliques and every step does the same
    amount of work whatever the seed. A step picks a core, re-inserts 2 of
    its missing edges and deletes 2 present ones in one ``fully_dynamic``
    call, so the state stays steady.
    """

    name = "core-churn"
    CORES, CORE_SIZE, MISSING, CROSS_PER_VERTEX = 10, 100, 6, 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.missing: list[frozenset[Edge]] = []
        edges: list[Edge] = []
        for c in range(self.CORES):
            vs = self._core(c)
            shuffled = rng.sample(vs, 2 * self.MISSING)
            miss = frozenset(_norm(shuffled[2 * i], shuffled[2 * i + 1])
                             for i in range(self.MISSING))
            self.missing.append(miss)
            edges.extend((u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                         if (u, v) not in miss)
        n = self.CORES * self.CORE_SIZE
        cross: set[Edge] = set()
        while len(cross) < n * self.CROSS_PER_VERTEX // 2:
            u, v = rng.randrange(n), rng.randrange(n)
            if u // self.CORE_SIZE != v // self.CORE_SIZE:
                cross.add(_norm(u + 1, v + 1))
        self.edges = edges + sorted(cross)

    def _core(self, c: int) -> list[int]:
        return list(range(c * self.CORE_SIZE + 1, (c + 1) * self.CORE_SIZE + 1))

    def _inputs(self) -> object:
        return self.edges

    def setup(self, tracer) -> State:
        with tracer.span("graph.build"):
            g = Graph.from_edges(self.edges)
        return State(g, _build_registry(g, tracer))

    def episode(self) -> Iterator[Step]:
        rng = random.Random(self.seed ^ 0x5EED)
        missing = [set(m) for m in self.missing]
        while True:
            c = rng.randrange(self.CORES)
            ins = rng.sample(sorted(missing[c]), 2)
            rest = missing[c] - set(ins)
            busy = {x for e in rest for x in e}
            vs = self._core(c)
            dels: list[Edge] = []
            while len(dels) < 2:
                e = _norm(*rng.sample(vs, 2))
                if e[0] in busy or e[1] in busy or e in missing[c]:
                    continue
                dels.append(e)
                busy.update(e)
            missing[c] = rest | set(dels)
            yield Step(EdgeBatch.insert(ins), EdgeBatch.delete(dels))


class ExtremalChurn(Workload):
    """Two vertex-disjoint copies of ``batch_extremal(20, 12)``.

    Copy A starts without its 54 batch edges and copy B with them; each step
    is one ``fully_dynamic`` call inserting the batch where it is absent and
    deleting it where it is present, so every step changes exactly
    2 * batch_extremal_change(20, 12) cliques. The seed draws the vertex ids
    and the batch edge order.
    """

    name = "extremal-churn"
    N, EPS = 20, 12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        base, batch = batch_extremal(self.N, self.EPS)
        ids = rng.sample(range(1, 1_000_000), 2 * self.N)
        copies = [dict(zip(range(1, self.N + 1), ids[:self.N])),
                  dict(zip(range(1, self.N + 1), ids[self.N:]))]
        self.base_edges = [sorted(_norm(m[u], m[v]) for u, v in base.edges())
                           for m in copies]
        self.batch_edges = []
        for m in copies:
            edges = [_norm(m[u], m[v]) for u, v in batch.edges]
            rng.shuffle(edges)
            self.batch_edges.append(edges)
        self.vertices = sorted(ids)
        self.change = 2 * batch_extremal_change(self.N, self.EPS)

    def _inputs(self) -> object:
        return (self.base_edges, self.batch_edges)

    def setup(self, tracer) -> State:
        with tracer.span("graph.build"):
            g = Graph.from_edges(self.base_edges[0] + self.base_edges[1]
                                 + self.batch_edges[1], vertices=self.vertices)
        return State(g, _build_registry(g, tracer))

    def episode(self) -> Iterator[Step]:
        absent, present = 0, 1
        while True:
            yield Step(EdgeBatch.insert(self.batch_edges[absent]),
                       EdgeBatch.delete(self.batch_edges[present]),
                       expected_change=self.change)
            absent, present = present, absent


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CommunityInsert, CoreChurn, ExtremalChurn)}
