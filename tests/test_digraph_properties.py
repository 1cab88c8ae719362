"""Property-based tests (hypothesis) for the digraph substrate.

These check the §2.1 structural facts the protocol relies on, over random
strongly connected digraphs, and check :func:`diameter`'s single subset DP
against the pairwise definition over arbitrary random digraphs.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.digraph.digraph import Digraph
from repro.digraph.feedback import (
    greedy_feedback_vertex_set,
    is_feedback_vertex_set,
    minimum_feedback_vertex_set,
)
from repro.digraph.generators import random_strongly_connected
from repro.digraph.paths import (
    all_simple_paths,
    diameter,
    is_strongly_connected,
    longest_path_length,
    shortest_path_length,
    strongly_connected_components,
)
from repro.errors import DigraphError


@st.composite
def sc_digraphs(draw, max_vertices: int = 8):
    """Random strongly connected digraphs, seeded through hypothesis."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    p = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_strongly_connected(n, p, Random(seed))


@st.composite
def any_digraphs(draw, max_vertices: int = 9):
    """Random digraphs with at least one arc, strongly connected or not."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for u in vertices for v in vertices if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Digraph(vertices, arcs)


def pairwise_diameter(digraph: Digraph) -> int:
    """The definition: the longest ``D(u, v)`` over reachable ordered pairs."""
    return max(
        (
            longest_path_length(digraph, u, v)
            for u in digraph.vertices
            for v in digraph.vertices
            if u != v and shortest_path_length(digraph, u, v) is not None
        ),
        default=0,
    )


@settings(max_examples=150, deadline=None)
@given(any_digraphs())
def test_diameter_matches_pairwise_definition(digraph):
    assert diameter(digraph) == pairwise_diameter(digraph)


@settings(max_examples=60, deadline=None)
@given(sc_digraphs(max_vertices=9))
def test_diameter_matches_pairwise_definition_strongly_connected(digraph):
    assert diameter(digraph) == pairwise_diameter(digraph)


@settings(max_examples=40, deadline=None)
@given(any_digraphs(), st.integers(min_value=1, max_value=8))
def test_diameter_above_exact_limit_is_the_vertex_bound(digraph, exact_limit):
    if digraph.vertex_count() > exact_limit:
        assert diameter(digraph, exact_limit=exact_limit) == digraph.vertex_count() - 1
    else:
        assert diameter(digraph, exact_limit=exact_limit) == diameter(digraph)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_diameter_of_an_arcless_digraph_raises(n):
    with pytest.raises(DigraphError):
        diameter(Digraph([f"v{i}" for i in range(n)], []))


@settings(max_examples=40, deadline=None)
@given(sc_digraphs())
def test_transpose_preserves_strong_connectivity(digraph):
    # §2.1: "If D is strongly connected, so is D^T."
    assert is_strongly_connected(digraph.transpose())


@settings(max_examples=40, deadline=None)
@given(sc_digraphs())
def test_fvs_transfers_to_transpose(digraph):
    # §2.1: "any feedback vertex set for D is also a feedback vertex set
    # for D^T."
    fvs = greedy_feedback_vertex_set(digraph)
    assert is_feedback_vertex_set(digraph.transpose(), fvs)


@settings(max_examples=30, deadline=None)
@given(sc_digraphs(max_vertices=7))
def test_minimum_fvs_is_no_larger_than_greedy(digraph):
    exact = minimum_feedback_vertex_set(digraph)
    greedy = greedy_feedback_vertex_set(digraph)
    assert len(exact) <= len(greedy)
    assert is_feedback_vertex_set(digraph, exact)


@settings(max_examples=40, deadline=None)
@given(sc_digraphs())
def test_diameter_matches_transpose(digraph):
    # Reversing every arc reverses every path, so diam is invariant.
    assert diameter(digraph) == diameter(digraph.transpose())


@settings(max_examples=40, deadline=None)
@given(sc_digraphs())
def test_sc_digraph_is_one_component(digraph):
    components = strongly_connected_components(digraph)
    assert len(components) == 1


@settings(max_examples=30, deadline=None)
@given(sc_digraphs(max_vertices=6))
def test_longest_path_bounded_by_diameter(digraph):
    diam = diameter(digraph)
    vertices = digraph.vertices
    for u in vertices:
        for v in vertices:
            if u != v:
                assert longest_path_length(digraph, u, v) <= diam


@settings(max_examples=30, deadline=None)
@given(sc_digraphs(max_vertices=6))
def test_all_simple_paths_are_valid_and_unique(digraph):
    u, v = digraph.vertices[0], digraph.vertices[-1]
    if u == v:
        return
    found = all_simple_paths(digraph, u, v)
    assert len(set(found)) == len(found)
    for path in found:
        assert digraph.is_path(path)
        assert path[0] == u and path[-1] == v


@settings(max_examples=40, deadline=None)
@given(sc_digraphs())
def test_every_vertex_set_is_fvs_of_itself(digraph):
    # Removing all vertices always leaves an acyclic (empty) digraph.
    assert is_feedback_vertex_set(digraph, set(digraph.vertices))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=100))
def test_random_sc_generator_invariant(n, seed):
    digraph = random_strongly_connected(n, 0.3, Random(seed))
    assert is_strongly_connected(digraph)
    assert digraph.vertex_count() == n
