"""Reachability, strong connectivity, and longest-path computations.

The paper's ``D(u, v)`` is the length of the *longest* (simple) path from
``u`` to ``v``, and ``diam(D)`` the longest path between any ordered pair.
Longest simple path is NP-hard in general; swap digraphs are small, so we
compute it exactly with a memoised subset DP up to a configurable size and
fall back to the safe upper bound ``|V| - 1`` beyond it.  Timeouts derived
from an upper bound remain safe and live — they only lengthen deadlines —
which is why the fallback is acceptable (DESIGN.md §2).

``diam(D)`` needs no per-pair DP: every simple path from ``u`` ends at a
vertex ``u`` reaches, so the longest path over reachable ordered pairs is
the longest simple path from *any* vertex.  :func:`diameter` computes that
with one DP over ``(vertex, visited-set)`` states shared by every start:
``O(n·2ⁿ·deg)`` time for at most ``n·2ⁿ`` states, not ``n²`` pairwise
DPs that each rebuild their own memo.
"""

from __future__ import annotations

from typing import Iterator

from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.errors import DigraphError

EXACT_LONGEST_PATH_LIMIT = 14
"""Largest vertex count for which longest paths are computed exactly."""


# ---------------------------------------------------------------------------
# Reachability and strong connectivity
# ---------------------------------------------------------------------------


def reachable_from(digraph: Digraph, source: Vertex) -> set[Vertex]:
    """All vertices reachable from ``source`` (including itself)."""
    if not digraph.has_vertex(source):
        raise DigraphError(f"unknown vertex {source!r}")
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for w in digraph.out_neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strongly_connected(digraph: Digraph) -> bool:
    """True iff every vertex reaches every other (§2.1).

    The empty digraph and single-vertex digraph are strongly connected by
    convention.
    """
    vertices = digraph.vertices
    if len(vertices) <= 1:
        return True
    root = vertices[0]
    if len(reachable_from(digraph, root)) != len(vertices):
        return False
    return len(reachable_from(digraph.transpose(), root)) == len(vertices)


def strongly_connected_components(digraph: Digraph) -> list[set[Vertex]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index_of: dict[Vertex, int] = {}
    lowlink: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    components: list[set[Vertex]] = []
    counter = 0

    for start in digraph.vertices:
        if start in index_of:
            continue
        work: list[tuple[Vertex, Iterator[Vertex]]] = [
            (start, iter(digraph.out_neighbors(start)))
        ]
        index_of[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, neighbors = work[-1]
            advanced = False
            for w in neighbors:
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(digraph.out_neighbors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                component: set[Vertex] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == v:
                        break
                components.append(component)
    return components


def is_acyclic(digraph: Digraph) -> bool:
    """True iff ``digraph`` has no (directed) cycle."""
    in_degree = {v: digraph.in_degree(v) for v in digraph.vertices}
    frontier = [v for v, d in in_degree.items() if d == 0]
    removed = 0
    while frontier:
        v = frontier.pop()
        removed += 1
        for w in digraph.out_neighbors(v):
            in_degree[w] -= 1
            if in_degree[w] == 0:
                frontier.append(w)
    return removed == len(digraph.vertices)


def find_cycle(digraph: Digraph) -> list[Vertex] | None:
    """Return some directed cycle as ``[v0, ..., vk, v0]``, or ``None``."""
    color: dict[Vertex, int] = {v: 0 for v in digraph.vertices}  # 0 new 1 open 2 done
    parent: dict[Vertex, Vertex] = {}
    for start in digraph.vertices:
        if color[start] != 0:
            continue
        stack: list[tuple[Vertex, Iterator[Vertex]]] = [
            (start, iter(digraph.out_neighbors(start)))
        ]
        color[start] = 1
        while stack:
            v, neighbors = stack[-1]
            advanced = False
            for w in neighbors:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(digraph.out_neighbors(w))))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [v]
                    cursor = v
                    while cursor != w:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# Shortest paths (used for statistics and for broadcast-optimisation routing)
# ---------------------------------------------------------------------------


def shortest_path_length(digraph: Digraph, source: Vertex, target: Vertex) -> int | None:
    """BFS distance from ``source`` to ``target``; ``None`` if unreachable."""
    if not digraph.has_vertex(source) or not digraph.has_vertex(target):
        raise DigraphError("unknown vertex")
    if source == target:
        return 0
    distance = {source: 0}
    frontier = [source]
    while frontier:
        next_frontier = []
        for v in frontier:
            for w in digraph.out_neighbors(v):
                if w in distance:
                    continue
                distance[w] = distance[v] + 1
                if w == target:
                    return distance[w]
                next_frontier.append(w)
        frontier = next_frontier
    return None


# ---------------------------------------------------------------------------
# Longest simple paths (the paper's D(u, v) and diam(D))
# ---------------------------------------------------------------------------


def longest_path_length(
    digraph: Digraph,
    source: Vertex,
    target: Vertex,
    exact_limit: int = EXACT_LONGEST_PATH_LIMIT,
) -> int:
    """The paper's ``D(u, v)``: longest simple-path length from ``u`` to ``v``.

    Exact (memoised subset DP) when ``|V| <= exact_limit``; otherwise the
    safe upper bound ``|V| - 1``.  Raises :class:`DigraphError` if ``target``
    is unreachable from ``source``.
    """
    if not digraph.has_vertex(source) or not digraph.has_vertex(target):
        raise DigraphError("unknown vertex")
    if source == target:
        return 0
    if shortest_path_length(digraph, source, target) is None:
        raise DigraphError(f"{target!r} is not reachable from {source!r}")
    if len(digraph.vertices) > exact_limit:
        return len(digraph.vertices) - 1
    return _longest_exact(digraph, source, target)


def _longest_exact(digraph: Digraph, source: Vertex, target: Vertex) -> int:
    index = {v: i for i, v in enumerate(digraph.vertices)}
    memo: dict[tuple[Vertex, int], int] = {}

    def best_from(v: Vertex, visited: int) -> int:
        """Longest path length from ``v`` to ``target`` avoiding ``visited``.

        ``visited`` includes ``v`` itself.  Returns a negative sentinel when
        ``target`` cannot be reached without revisiting.
        """
        if v == target:
            return 0
        key = (v, visited)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = -(10**9)
        for w in digraph.out_neighbors(v):
            bit = 1 << index[w]
            if visited & bit:
                continue
            candidate = best_from(w, visited | bit)
            if candidate >= 0 and candidate + 1 > best:
                best = candidate + 1
        memo[key] = best
        return best

    result = best_from(source, 1 << index[source])
    if result < 0:
        raise DigraphError(f"{target!r} is not reachable from {source!r}")
    return result


def diameter(digraph: Digraph, exact_limit: int = EXACT_LONGEST_PATH_LIMIT) -> int:
    """The paper's ``diam(D)``: the longest path between any ordered pair.

    Exact up to ``exact_limit`` vertices, else the safe upper bound
    ``|V| - 1`` (see module docstring).  Requires at least one arc.
    """
    if digraph.arc_count() == 0:
        raise DigraphError("diameter is undefined for an arcless digraph")
    if len(digraph.vertices) > exact_limit:
        return diameter_upper_bound(digraph)
    return _longest_from_any(digraph)


def _longest_from_any(digraph: Digraph) -> int:
    """The longest simple path starting anywhere in ``digraph`` (exact)."""
    vertices = digraph.vertices
    count = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    successors = [[index[w] for w in digraph.out_neighbors(v)] for v in vertices]
    memo: dict[tuple[int, int], int] = {}

    def best_from(v: int, visited: int) -> int:
        """Longest path length from vertex ``v`` avoiding ``visited``.

        ``visited`` includes ``v`` itself.  No simple path can take more
        arcs than there are unvisited vertices, so reaching that bound
        ends the search early (a Hamiltonian path ends it at once).
        """
        key = (v, visited)
        cached = memo.get(key)
        if cached is not None:
            return cached
        bound = count - visited.bit_count()
        best = 0
        for w in successors[v]:
            bit = 1 << w
            if visited & bit:
                continue
            candidate = best_from(w, visited | bit) + 1
            if candidate > best:
                best = candidate
                if best == bound:
                    break
        memo[key] = best
        return best

    best = 0
    for start in range(count):
        best = max(best, best_from(start, 1 << start))
        if best == count - 1:
            break
    return best


def diameter_upper_bound(digraph: Digraph) -> int:
    """``|V| - 1``: a bound no simple path can exceed."""
    return max(1, len(digraph.vertices) - 1)


def all_simple_paths(
    digraph: Digraph,
    source: Vertex,
    target: Vertex,
    max_paths: int | None = None,
) -> list[tuple[Vertex, ...]]:
    """Every simple path from ``source`` to ``target``.

    Hashkey enumeration (Fig. 7) uses this: the valid hashkeys for lock
    ``i`` on arc ``(u, v)`` correspond to the simple paths from ``v`` to
    leader ``i``.  ``max_paths`` truncates the enumeration for large graphs.
    """
    if not digraph.has_vertex(source) or not digraph.has_vertex(target):
        raise DigraphError("unknown vertex")
    results: list[tuple[Vertex, ...]] = []
    path: list[Vertex] = [source]
    on_path = {source}

    def extend(v: Vertex) -> bool:
        """DFS over simple extensions; returns False once max_paths is hit."""
        for w in digraph.out_neighbors(v):
            if w == target:
                # Reaching the target closes a path; when source == target
                # this is the paper's cycle case (last vertex may repeat the
                # first, all other vertices distinct).
                results.append(tuple(path) + (w,))
                if max_paths is not None and len(results) >= max_paths:
                    return False
                continue
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            keep_going = extend(w)
            path.pop()
            on_path.discard(w)
            if not keep_going:
                return False
        return True

    if source == target:
        # The degenerate single-vertex path always exists.
        results.append((source,))
    if max_paths is None or len(results) < max_paths:
        extend(source)
    return results


def longest_path(
    digraph: Digraph, source: Vertex, target: Vertex
) -> tuple[Vertex, ...]:
    """A concrete longest simple path from ``source`` to ``target`` (exact)."""
    best: tuple[Vertex, ...] | None = None
    for candidate in all_simple_paths(digraph, source, target):
        if best is None or len(candidate) > len(best):
            best = candidate
    if best is None:
        raise DigraphError(f"{target!r} is not reachable from {source!r}")
    return best
