"""Tour of the topology constructors: complete, Chimera, and file-loaded."""

from collections import Counter

from qals import chimera_graph, complete_graph, parse_edge_list


def degrees(g):
    """Each node's degree: the number of edges that end at it."""
    ends = Counter(node for edge in g.edges for node in edge)
    return [ends[i] for i in range(g.n)]


print("complete_graph(6):", complete_graph(6).num_edges, "edges")

for m in (1, 2, 3):
    g = chimera_graph(m)
    histogram = Counter(degrees(g))
    print(f"chimera m={m}: {g.n} qubits, {g.num_edges} edges, degree histogram {dict(sorted(histogram.items()))}")

print("\nA Chimera cell couples only across its two partitions:")
cell = chimera_graph(1)
for i, j in sorted(cell.edges):
    print(f"  {i} -- {j}")

print("\nCustom graphs load from edge-list text:")
text = """
# a 4-cycle
n 4
0 1
1 2
2 3
3 0
"""
ring = parse_edge_list(text)
print("ring:", ring.n, "nodes,", ring.num_edges, "edges, all degree",
      set(degrees(ring)))
