"""Spans and counters recorded from outside the library.

A span is recorded around each call the benchmark makes into a module's
public functions. To see inside one update without changing the library,
``instrument`` swaps in traced versions of ``apply_insert_batch``,
``apply_delete_batch``, ``fully_dynamic`` and ``Graph.induced_subgraph``
for the length of a ``with`` block:

- an insert batch runs as its three public phases, ``enum_new_te``,
  ``enum_subsumed`` and ``CliqueRegistry.update``, each in its own span;
- a shadow pass repeats the subsumption work stage by stage
  (``split_candidates``, then ``canonical_string`` + ``murmur64``, then
  ``contains_signature``) to split its time and count probes, and must
  accept exactly the cliques ``enum_subsumed`` returned;
- the delete phase of ``fully_dynamic`` is one span;
- every ``induced_subgraph`` call is a child span of the phase that made it.

Spans are kept in memory; a span's self time is its duration minus that of
its children.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Iterator

from cliquedelta import (ChangeSet, CliqueRegistry, EdgeBatch, Graph,
                         canonical_string, murmur64, split_candidates)
from cliquedelta import delta


class NullTracer:
    """Records nothing; used for the untraced, timed runs."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        #: (name, batch, parent index or -1, start ns, end ns)
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.batch = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, self.batch, parent, start, end)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: Counter[str] = Counter()
        for (name, _, _, start, end), kids in zip(self.spans, child_ns):
            total[name] += end - start - kids
        return {name: ns / 1e9 for name, ns in total.items()}

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,name,batch,parent,start_ns,end_ns\n")
            for i, (name, batch, parent, start, end) in enumerate(self.spans):
                f.write(f"{i},{name},{batch},{parent},{start},{end}\n")


class TraceMismatch(AssertionError):
    """The shadow subsumption pass disagreed with enum_subsumed."""


def _local_vertices(g: Graph, h: EdgeBatch) -> int:
    return sum(len(g.common_neighbors(u, v)) for u, v in h.edges)


def _shadow_subsumed(t: Tracer, h: EdgeBatch, reg: CliqueRegistry,
                     new: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """enum_subsumed's work, one stage per span; returns accepted cliques."""
    h_adj: dict[int, set[int]] = {}
    for u, v in h.edges:
        h_adj.setdefault(u, set()).add(v)
        h_adj.setdefault(v, set()).add(u)
    with t.span("delta.split"):
        cands = []
        for c in new:
            for s in split_candidates(c, h.edges, h_adj):
                final = s
            cands.extend(x for x in final if x != c)
    with t.span("signatures.hash"):
        canons = [canonical_string(x) for x in cands]
        sigs = [murmur64(s) for s in canons]
    accepted = []
    probes = 0
    with t.span("signatures.probe"):
        emitted: set[int] = set()
        for cand, canon, sig in zip(cands, canons, sigs):
            if sig in emitted:
                continue
            probes += 1
            if reg.contains_signature(sig, canon):
                emitted.add(sig)
                accepted.append(cand)
    t.count("delta.split_candidates", len(cands))
    t.count("signatures.hash_calls", len(cands))
    t.count("signatures.probes", probes)
    t.count("signatures.probe_hits", len(accepted))
    return accepted


@contextlib.contextmanager
def instrument(t: Tracer) -> Iterator[None]:
    """Route the library's update entry points through traced versions."""
    orig_fd = delta.fully_dynamic
    orig_delete = delta.apply_delete_batch
    orig_insert = delta.apply_insert_batch
    orig_induced = Graph.induced_subgraph

    def induced_subgraph(g, vs):
        with t.span("graph.induced_subgraph"):
            return orig_induced(g, vs)

    def apply_insert_batch(g, h, registry, algo="enumnte"):
        if algo != "enumnte":
            raise ValueError(f"traced path supports enumnte only, got {algo!r}")
        with t.span("delta.apply_insert_batch"):
            with t.span("delta.enum_new"):
                new = list(delta.enum_new_te(g, h))
            with t.span("delta.subsumed"):
                dels = list(delta.enum_subsumed(g, h, registry, new))
            if set(_shadow_subsumed(t, h, registry, new)) != set(dels):
                raise TraceMismatch("shadow pass disagrees with enum_subsumed")
            with t.span("signatures.commit"):
                registry.update(new, dels)
        t.count("graph.local_vertices", _local_vertices(g, h))
        t.count("delta.enum_new_cliques", len(new))
        t.count("delta.subsumed_cliques", len(dels))
        return ChangeSet(new, dels)

    def apply_delete_batch(g, h, registry):
        t.count("graph.local_vertices", _local_vertices(g, h))
        with t.span("delta.delete"):
            change = orig_delete(g, h, registry)
        t.count("delta.delete_del_cliques", len(change.del_cliques))
        t.count("delta.delete_new_cliques", len(change.new_cliques))
        return change

    def fully_dynamic(g, inserts, deletes, registry):
        phase_keys = ("delta.enum_new_cliques", "delta.subsumed_cliques",
                      "delta.delete_del_cliques", "delta.delete_new_cliques")
        before = sum(t.counts[k] for k in phase_keys)
        with t.span("delta.fully_dynamic"):
            change = orig_fd(g, inserts, deletes, registry)
        phases = sum(t.counts[k] for k in phase_keys) - before
        net = len(change.new_cliques) + len(change.del_cliques)
        t.count("delta.cancelled_cliques", phases - net)
        return change

    delta.fully_dynamic = fully_dynamic
    delta.apply_delete_batch = apply_delete_batch
    delta.apply_insert_batch = apply_insert_batch
    Graph.induced_subgraph = induced_subgraph
    try:
        yield
    finally:
        delta.fully_dynamic = orig_fd
        delta.apply_delete_batch = orig_delete
        delta.apply_insert_batch = orig_insert
        Graph.induced_subgraph = orig_induced
