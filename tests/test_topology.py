"""Topology constructors and the edge-list file format."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from qals import TopologyGraph, chimera_graph, complete_graph, load_edge_list, parse_edge_list

from helpers import degrees


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (5, 10)])
def test_complete_graph_edge_counts(n, expected):
    assert complete_graph(n).num_edges == expected


def test_complete_graph_mask():
    g = complete_graph(4)
    np.testing.assert_array_equal(g.adjacency_mask, np.ones((4, 4)))


@pytest.mark.parametrize("m,nodes,edges", [(1, 8, 16), (2, 32, 80), (3, 72, 192)])
def test_chimera_counts(m, nodes, edges):
    g = chimera_graph(m)
    assert g.n == nodes
    assert g.num_edges == edges


@pytest.mark.parametrize("m", range(1, 7))
def test_chimera_edge_count_formula(m):
    assert chimera_graph(m).num_edges == 16 * m * m + 8 * m * (m - 1)


def test_chimera_unit_cell_is_bipartite():
    g = chimera_graph(1)
    for t in range(4):
        for u in range(4, 8):
            assert (t, u) in g.edges
    for t in range(4):
        for u in range(t + 1, 4):
            assert (t, u) not in g.edges


def test_chimera_intercell_alignment():
    g = chimera_graph(2)
    # cell (0,0) left qubit t couples straight down to cell (1,0)
    for t in range(4):
        assert (t, 8 * 2 + t) in g.edges
    # cell (0,0) right qubit couples straight right to cell (0,1)
    for u in range(4, 8):
        assert (u, 8 + u) in g.edges
    # no left-to-right inter-cell couplers
    assert (0, 8 + 4) not in g.edges


def test_chimera_degrees():
    assert (degrees(chimera_graph(1)) == 4).all()
    assert (degrees(chimera_graph(2)) == 5).all()
    d3 = degrees(chimera_graph(3))
    assert d3.max() == 6
    assert d3.min() == 5
    # middle-row left qubits have both vertical neighbors
    base_mid = 8 * (1 * 3 + 1)
    assert (d3[base_mid:base_mid + 8] == 6).all()


@pytest.mark.parametrize("m", range(1, 7))
def test_masks_symmetric_unit_diagonal(m):
    g = chimera_graph(m)
    np.testing.assert_array_equal(g.adjacency_mask, g.adjacency_mask.T)
    np.testing.assert_array_equal(np.diagonal(g.adjacency_mask), np.ones(g.n))


def test_edge_list_deduplication():
    g = TopologyGraph(3, [(0, 1), (1, 0)])
    assert g.num_edges == 1


def test_edge_list_empty():
    g = TopologyGraph(3, [])
    assert g.num_edges == 0
    np.testing.assert_array_equal(g.adjacency_mask, np.eye(3))


def test_edge_list_out_of_range():
    with pytest.raises(ValueError):
        TopologyGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        TopologyGraph(2, [(0, 0)])


@pytest.mark.parametrize(
    "n, pairs, match",
    [
        (3, [(0.5, 1)], "node 0.5 is not an integer"),
        (3, [(0, 1.0)], "node 1.0 is not an integer"),
        (3, [(True, 2)], "node True is not an integer"),
        (3, [(0, np.True_)], "not an integer"),
        (3, [(0, "1")], "not an integer"),
        (3, [(0, 3)], "out of range"),
        (3, [(-1, 2)], "out of range"),
        (3, [(2, 2)], "self-loop"),
        (3, [(0, 1, 2)], "not a pair"),
        (3, [7], "not a pair"),
        (0, [], "node count must be at least 1"),
        (2.0, [], "node count 2.0 is not an integer"),
        (True, [], "node count True is not an integer"),
    ],
)
def test_graph_rejects_bad_nodes_at_construction(n, pairs, match):
    with pytest.raises(ValueError, match=match):
        TopologyGraph(n, pairs)


@pytest.mark.parametrize(
    "build,bad,what",
    [
        (complete_graph, 2.5, "node count"),
        (complete_graph, "3", "node count"),
        (chimera_graph, 1.5, "grid size"),
        (chimera_graph, True, "grid size"),
    ],
)
def test_graph_constructors_reject_non_integer_counts(build, bad, what):
    # checked before any pair is generated, so the error is not range()'s TypeError
    with pytest.raises(ValueError, match=f"{what} .* is not an integer"):
        build(bad)


def test_chimera_graph_rejects_a_non_positive_size():
    with pytest.raises(ValueError, match="grid size must be at least 1"):
        chimera_graph(0)


def test_graph_stores_ordered_python_int_pairs():
    g = TopologyGraph(np.int64(3), iter([(np.int64(2), 0), (0, 2), (1, 0)]))
    assert type(g.n) is int and isinstance(g.edges, frozenset)
    assert g.edges == {(0, 2), (0, 1)}
    assert all(type(v) is int for edge in g.edges for v in edge)


def test_graphs_compare_by_node_count_and_edges():
    assert complete_graph(3) == complete_graph(3)
    assert TopologyGraph(3, [(1, 0), (2, 1)]) == TopologyGraph(3, {(0, 1), (1, 2)})
    assert complete_graph(3) != TopologyGraph(3, [(0, 1)])
    assert TopologyGraph(3, []) != TopologyGraph(4, [])


@pytest.mark.parametrize(
    "graph",
    [complete_graph(5), chimera_graph(2), parse_edge_list("n 4\n0 1\n2 3\n")],
    ids=["complete", "chimera", "edge list"],
)
def test_adjacency_mask_is_a_read_only_bool_array_of_one_byte_per_pair(graph):
    mask = graph.adjacency_mask
    assert mask.dtype == bool and mask.nbytes == graph.n * graph.n
    assert not mask.flags.writeable


def test_deriving_a_large_mask_allocates_one_byte_per_pair():
    g = chimera_graph(16)  # 2048 nodes: a float64 mask would peak at 8 n**2 bytes
    tracemalloc.start()
    try:
        g.adjacency_mask
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.n**2


def test_adjacency_mask_is_derived_and_read_only():
    g = TopologyGraph(3, [(0, 1)])
    np.testing.assert_array_equal(g.adjacency_mask, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency_mask[0, 2] = 1.0
    with pytest.raises(TypeError):
        TopologyGraph(3, [(0, 1)], adjacency_mask=np.ones((3, 3)))


@pytest.mark.parametrize(
    "rebuild", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))], ids=["deepcopy", "pickle"]
)
def test_copies_of_a_graph_keep_the_mask_read_only(rebuild):
    g = TopologyGraph(3, [(0, 1)])
    twin = rebuild(g)
    assert twin == g
    np.testing.assert_array_equal(twin.adjacency_mask, g.adjacency_mask)
    with pytest.raises(ValueError, match="read-only"):
        twin.adjacency_mask[0, 2] = 1.0


def test_parse_edge_list_file_format():
    text = "# a comment\nn 4\n0 1\n2 3  # trailing comment\n\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (2, 3), (1, 2)})


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n",            # missing header
        "n x\n",            # bad count
        "n 3\n0\n",         # short line
        "n 3\n0 9\n",       # out of range
        "n 3\n1 1\n",       # self loop
        "n 0\n",            # empty graph size
        "# c\n\n",          # no header line at all
        "n 3\n0 x\n",       # non-integer node index
    ],
)
def test_parse_edge_list_errors(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_parse_edge_list_reports_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("# c\nn 3\n0 7\n")


def test_load_edge_list_reads_a_file_as_parse_edge_list_reads_its_text(tmp_path):
    text = "# ring\nn 4\n0 1\n1 2\n2 3  # last but one\n3 0\n"
    path = tmp_path / "ring.edges"
    path.write_text(text)
    assert load_edge_list(path) == parse_edge_list(text)


# A graph of 10**9 nodes costs its edges only: a dense (n, n) mask would need
# 1 EB. Its mask and colour classes are never asked for here.
HUGE = 10**9


def test_a_huge_edge_list_header_builds_a_graph_of_its_edges(tmp_path):
    text = f"n {HUGE}\n0 1\n"
    path = tmp_path / "huge.edges"
    path.write_text(text)
    for graph in (parse_edge_list(text), load_edge_list(path)):
        assert graph.n == HUGE
        assert graph.edges == {(0, 1)}


def test_a_huge_graph_builds_no_mask_until_asked():
    g = TopologyGraph(HUGE, [(0, 1)])
    assert g.num_edges == 1
    assert "adjacency_mask" not in vars(g)


def test_every_degree_of_a_large_chimera_graph_counts_its_edges():
    d = degrees(chimera_graph(16))  # 2048 nodes, 6016 edges
    assert d.size == 2048 and d.sum() == 2 * 6016
    assert np.isin(d, (5, 6)).all()


def test_a_huge_graph_without_edges_compares_and_pickles():
    g = TopologyGraph(HUGE, [])
    assert g == TopologyGraph(HUGE, set())
    assert pickle.loads(pickle.dumps(g)) == g


# ------------------------------------------------------------ colour classes


def ring(n):
    return TopologyGraph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize(
    "graph",
    [
        complete_graph(1),
        complete_graph(5),
        chimera_graph(1),
        chimera_graph(3),
        ring(6),
        ring(5),
        TopologyGraph(7, [(0, 6), (2, 3), (3, 4), (2, 4)]),
        TopologyGraph(4, []),
    ],
)
def test_colour_classes_are_independent_sets_partitioning_the_nodes(graph):
    classes = graph.colour_classes
    np.testing.assert_array_equal(np.sort(np.concatenate(classes)), np.arange(graph.n))
    for c in classes:
        assert c.size > 0
        np.testing.assert_array_equal(c, np.sort(c))
        block = graph.adjacency_mask[np.ix_(c, c)]
        np.testing.assert_array_equal(block, np.eye(c.size))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_complete_graph_colour_classes_are_singletons_in_order(n):
    classes = complete_graph(n).colour_classes
    assert [c.tolist() for c in classes] == [[i] for i in range(n)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_chimera_has_two_colour_classes(m):
    classes = chimera_graph(m).colour_classes
    assert [c.size for c in classes] == [4 * m * m, 4 * m * m]


def test_ring_colour_classes_interleave():
    assert [c.tolist() for c in ring(6).colour_classes] == [[0, 2, 4], [1, 3, 5]]
    # breadth-first from 0 reaches 1 and 4 first; the odd cycle needs a third colour
    assert [c.tolist() for c in ring(5).colour_classes] == [[0, 2], [1, 4], [3]]


def test_colour_classes_cached():
    g = chimera_graph(2)
    assert g.colour_classes is g.colour_classes
