"""2-CNF satisfiability via strongly connected components of the implication
graph; ``oracles.brute_force_sat`` is its truth-table reference."""

from __future__ import annotations

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

Literal = tuple[int, bool]  # (variable index, polarity); True = positive


class TwoSatFormula:
    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple[tuple[Literal, Literal], ...]):
        for c in clauses:
            for var, _ in c:
                if not 0 <= var < num_vars:
                    raise ValueError(f"variable {var} out of range")
        self.num_vars, self.clauses = num_vars, clauses


def _lit_node(lit: Literal) -> int:
    var, pol = lit
    return 2 * var + (0 if pol else 1)


def _neg(node: int) -> int:
    return node ^ 1


def two_sat_solve(f: TwoSatFormula) -> list[bool] | None:
    """Satisfying assignment, or None when unsatisfiable."""
    n = 2 * f.num_vars
    adj: list[list[int]] = [[] for _ in range(n)]
    for (l1, l2) in f.clauses:
        a, b = _lit_node(l1), _lit_node(l2)
        adj[_neg(a)].append(b)
        adj[_neg(b)].append(a)

    # iterative Tarjan
    index = [0] * n
    low = [0] * n
    comp = [-1] * n  # a visited node is on the stack while its comp is -1
    stack: list[int] = []
    counter = 1  # index[v] != 0 once v is visited
    ncomp = 0
    for root in range(n):
        if index[root]:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if not index[w]:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
            else:  # every edge of v is done
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                work.pop()
                if work:
                    u, _ = work[-1]
                    low[u] = min(low[u], low[v])

    assignment = []
    for v in range(f.num_vars):
        pos, neg = comp[2 * v], comp[2 * v + 1]
        if pos == neg:
            return None
        # Tarjan numbers components in reverse topological order, so the
        # smaller id lies later on every implication chain and is safe to set.
        assignment.append(pos < neg)
    return assignment


def check_assignment(f: TwoSatFormula, vals: Sequence[bool]) -> bool:
    return all(
        (vals[v1] == p1) or (vals[v2] == p2) for ((v1, p1), (v2, p2)) in f.clauses
    )
