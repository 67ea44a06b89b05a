"""Adjacency graphs over tree collections, one vertex per distinct tree.

Construction makes one pass over the input. Each distinct tree becomes the
next vertex i when it is inserted into an AFContainer, and the insert
reports the earlier trees j < i sharing keys with it, so every edge {j, i}
is stored exactly once, in vertex i's step. Every graph takes each earlier
tree sharing a key: a forest key for the prune-regraft and bisection
graphs, an interchange key, the tree with one internal edge contracted,
for the interchange graph. Each construct_*_graph consumes any iterable of
trees once, one tree at a time, so a caller that yields trees holds none
past its step. A build's input trees come from cli already parsed and
oriented, a block of lines at a time; an Oriented tree is not oriented
again.
"""

from .afcontainer import AFContainer, Mode
from .errors import GraphInvariantError, LabelSetError


class AdjacencyGraph:
    """Undirected graph on vertices 0..n-1 with half-open adjacency storage.

    Bucket j holds the neighbors of j that are larger than j, in ascending
    order. Vertices are added in increasing order, each with its edges to
    earlier vertices, so every bucket only ever grows at the tail.
    """

    __slots__ = ("_adj",)

    def __init__(self, n_vertices=0):
        self._adj = [[] for _ in range(n_vertices)]

    @property
    def n_vertices(self):
        return len(self._adj)

    @property
    def edge_count(self):
        return sum(map(len, self._adj))

    def add_vertex(self, earlier=()):
        """Append vertex v and an edge to each earlier vertex listed, which
        must be distinct ids below v; returns v."""
        adj = self._adj
        v = len(adj)
        if earlier:
            if min(earlier) < 0 or max(earlier) >= v or len(set(earlier)) != len(earlier):
                raise GraphInvariantError(f"vertex {v}: earlier ids out of range or repeated")
            for j in earlier:
                adj[j].append(v)
        adj.append([])
        return v

    def buckets(self):
        """Per vertex j in order, the ascending list of its neighbours above
        j; treat the lists as read-only."""
        return iter(self._adj)

    def edges(self):
        """All edges as (smaller, larger) pairs in lexicographic order."""
        return [(j, i) for j, bucket in enumerate(self._adj) for i in bucket]

    def __repr__(self):
        return f"<AdjacencyGraph n={self.n_vertices} edges={self.edge_count}>"


class VertexLabeling:
    """How input positions map onto graph vertices.

    vertex_of_input[k] is the vertex of the k-th input tree, first_input[v]
    is the position of the first input tree landing on vertex v, and
    canonical[v] is that tree's canonical byte string.
    """

    __slots__ = ("vertex_of_input", "first_input", "canonical")

    def __init__(self, vertex_of_input, first_input, canonical):
        self.vertex_of_input = vertex_of_input
        self.first_input = first_input
        self.canonical = canonical

    def duplicates(self):
        """Input positions that repeat an earlier tree."""
        return [k for k, v in enumerate(self.vertex_of_input) if self.first_input[v] != k]


def construct(move, trees):
    """The graph and labeling of move over trees, taken one at a time. The
    first tree fixes the leaf set and, by its rootedness, the container
    mode (Mode.of); the key generators refuse the other rootedness."""
    graph = AdjacencyGraph()
    vertex_of_input = []
    first_input = []
    for k, tree in enumerate(trees):
        if k == 0:
            labels = tree.leaf_labels()
            container = AFContainer(Mode.of(move, tree.rooted), nni=move == "nni")
        elif tree.leaf_labels() != labels:
            raise LabelSetError("all trees must share one leaf label set")
        vid, shared = container.insert(tree)
        vertex_of_input.append(vid)
        if vid == graph.n_vertices:
            first_input.append(k)
            graph.add_vertex(shared)
    labeling = VertexLabeling(
        vertex_of_input=vertex_of_input,
        first_input=first_input,
        # no container without trees, and then no vertices to read
        canonical=[container.sdlnewick_of(v) for v in range(graph.n_vertices)],
    )
    return graph, labeling


def construct_spr_graph(trees):
    """Prune-regraft adjacency graph; rooted and unrooted collections both
    work, picking the matching move family."""
    return construct("spr", trees)


def construct_nni_graph(trees):
    """Interchange adjacency graph over rooted or unrooted collections: the
    pairs that share an interchange key, which is a tree with one internal
    edge contracted (forestgen.nni_keys)."""
    return construct("nni", trees)


def construct_tbr_graph(trees):
    """Bisection-reconnection adjacency graph; unrooted collections only."""
    return construct("tbr", trees)
