"""Binary words whose cyclic k-factors are pairwise distinct, built as closed
chains in de Bruijn graphs.

Nodes of the order-k graph are (k-1)-bit words, edges are k-bit words; a
closed chain using each of its edges once spells a ring word.  Chains are
lists of edge integers (first letter = most significant bit).  The edge sets
split into chains are balanced, so one Hierholzer walk per component,
``euler_circuit``, finds them; ``patterns`` walks its shape graph with it too.
"""

from __future__ import annotations

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence


def cyclic_factors(w: Sequence[int], k: int) -> set[tuple[int, ...]]:
    if len(w) < 1:
        raise ValueError("need a non-empty word")
    reps = (len(w) + k - 1) // len(w) + 1
    doubled = list(w) * reps
    return {tuple(doubled[i:i + k]) for i in range(len(w))}


def is_ring_word(w: Sequence[int], k: int) -> bool:
    """Each of the |w| cyclic k-factors occurs exactly once."""
    if k < 1:
        raise ValueError("need k >= 1")
    if len(w) < k:
        raise ValueError("need |w| >= k")
    return len(cyclic_factors(w, k)) == len(w)


def _edge_source(e: int, k: int) -> int:
    return e >> 1


def _edge_target(e: int, k: int) -> int:
    return e & ((1 << (k - 1)) - 1)


def _phi_lift(chain: list[int], k: int) -> list[int]:
    """A chain in the order-(k-1) graph becomes a simple cycle in the order-k
    graph: its edges turn into nodes, consecutive pairs into edges."""
    out = []
    m = len(chain)
    for i in range(m):
        e, f = chain[i], chain[(i + 1) % m]
        out.append((e << 1) | (f & 1))
    return out


def euler_circuit(adj: dict, start) -> list:
    """Labels along an Euler circuit from start (Hierholzer).

    adj[node] lists the (label, target) edges leaving node; each edge is
    popped off the end once, so the list order fixes the choice at every
    node.  Consumes adj.  The circuit covers every edge reachable from start
    when the graph is balanced (in-degree = out-degree at every node).
    """
    stack = [(start, None)]
    circuit = []
    while stack:
        node, via = stack[-1]
        out = adj.get(node)
        if out:
            label, target = out.pop()
            stack.append((target, label))
        else:
            stack.pop()
            if via is not None:
                circuit.append(via)
    return circuit[::-1]


def _euler_chains(edges: set[int], k: int) -> list[list[int]]:
    """Euler cycles of each connected component of a balanced edge set,
    smallest-label-first, each from its smallest node."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(edges, reverse=True):
        adj.setdefault(_edge_source(e, k), []).append((e, _edge_target(e, k)))
    return [euler_circuit(adj, node) for node in sorted(adj) if adj[node]]


def _glue(chains: list[list[int]], k: int) -> list[int]:
    """Merge edge-disjoint chains covering every node into one closed chain.

    Chains in different components never share nodes, but some node u and its
    first-bit conjugate u^ always land in different chains while more than one
    remains; both then have a single outgoing edge, and swapping their
    successors splices the two chains without reusing any edge.
    """
    if k == 1:
        return [e for chain in chains for e in chain]
    chains = [list(c) for c in chains]
    while len(chains) > 1:
        owner: dict[int, int] = {}
        for idx, chain in enumerate(chains):
            for e in chain:
                owner[_edge_source(e, k)] = idx
        flip = 1 << (k - 2)
        pair = None
        for u in sorted(owner):
            if u & flip:
                continue
            v = u | flip
            if v in owner and owner[u] != owner[v]:
                pair = (u, v)
                break
        if pair is None:
            raise AssertionError("no conjugate pair across chains")
        u, v = pair
        a, bidx = owner[u], owner[v]
        ca, cb = chains[a], chains[bidx]
        ia = next(i for i, e in enumerate(ca) if _edge_source(e, k) == u)
        ib = next(i for i, e in enumerate(cb) if _edge_source(e, k) == v)
        su = ca[ia] & 1
        sv = cb[ib] & 1
        merged = (
            ca[:ia]
            + [(u << 1) | sv]
            + cb[ib + 1:]
            + cb[:ib]
            + [(v << 1) | su]
            + ca[ia + 1:]
        )
        chains = [c for i, c in enumerate(chains) if i not in (a, bidx)] + [merged]
    return chains[0]


def compute_chain(k: int, n: int) -> list[int]:
    """Closed chain of n distinct edges in the order-k de Bruijn graph."""
    if k == 1:
        if n == 1:
            return [0]
        if n == 2:
            return [0, 1]
        raise ValueError("order-1 graph has two edges")
    if n <= 1 << (k - 1):
        return _phi_lift(compute_chain(k - 1, n), k)
    r = n - (1 << (k - 1))
    c = compute_chain(k - 1, r)
    # complete the lower-order graph, lift the complement, delete it above
    lower_edges = set(range(1 << (k - 1))) - set(c)
    removed: set[int] = set()
    for comp in _euler_chains(lower_edges, k - 1):
        removed.update(_phi_lift(comp, k))
    remaining = set(range(1 << k)) - removed
    chains = _euler_chains(remaining, k)
    return _glue(chains, k)


def ring_word(n: int, k: int) -> list[int]:
    """Binary word of length n whose cyclic k-factors are pairwise distinct."""
    if k < 1 or not k <= n <= 1 << k:
        raise ValueError("need k >= 1 and k <= n <= 2**k")
    chain = compute_chain(k, n)
    return [e & 1 for e in chain]
