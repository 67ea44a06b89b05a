"""Adjacency graphs over tree collections, one vertex per distinct tree.

Construction makes one pass over the input. Each distinct tree becomes the
next vertex i when it is inserted into an AFContainer, and the insert
reports the earlier trees j < i sharing forest keys with it, so every edge
{j, i} is stored exactly once, in vertex i's step. Prune-regraft and
bisection graphs take every earlier tree sharing a key; the interchange
graph takes those sharing two or more.
"""

from .afcontainer import AFContainer, Mode
from .errors import GraphInvariantError, LabelSetError, ModeError


class AdjacencyGraph:
    """Undirected graph on vertices 0..n-1 with half-open adjacency storage.

    Bucket j holds the neighbors of j that are larger than j, in ascending
    order. Edges are appended during a sweep of vertices in increasing order,
    so each bucket only ever grows at the tail; a repeated append of the
    current sweep vertex is a no-op and an out-of-order append is an error.
    """

    __slots__ = ("_adj", "_edge_count", "_sym")

    def __init__(self, n_vertices=0):
        self._adj = [[] for _ in range(n_vertices)]
        self._edge_count = 0
        self._sym = None

    @property
    def n_vertices(self):
        return len(self._adj)

    @property
    def edge_count(self):
        return self._edge_count

    def add_vertex(self):
        """Append an isolated vertex; returns its id."""
        self._adj.append([])
        self._sym = None
        return len(self._adj) - 1

    def append_edge(self, i, j):
        """Record edge {j, i} with j < i, skipping an immediate duplicate."""
        if i == j:
            raise GraphInvariantError(f"self loop at vertex {i}")
        if not 0 <= j < i < len(self._adj):
            raise GraphInvariantError(f"edge ({i}, {j}) out of range or order")
        bucket = self._adj[j]
        if bucket:
            tail = bucket[-1]
            if tail == i:
                return
            if tail > i:
                raise GraphInvariantError(
                    f"appending {i} to vertex {j} after {tail} breaks the sweep order"
                )
        bucket.append(i)
        self._edge_count += 1
        self._sym = None

    def edges(self):
        """All edges as (smaller, larger) pairs in lexicographic order."""
        out = []
        for j, bucket in enumerate(self._adj):
            for i in bucket:
                out.append((j, i))
        return out

    def neighbors(self, v):
        """Sorted neighbor list of v (both directions)."""
        if self._sym is None:
            sym = [[] for _ in self._adj]
            for j, bucket in enumerate(self._adj):
                for i in bucket:
                    sym[j].append(i)
                    sym[i].append(j)
            for lst in sym:
                lst.sort()
            self._sym = sym
        return list(self._sym[v])

    def validate(self):
        n = len(self._adj)
        total = 0
        for j, bucket in enumerate(self._adj):
            prev = j
            for i in bucket:
                if i <= prev or i >= n:
                    raise GraphInvariantError(f"bucket {j} is not strictly ascending")
                prev = i
            total += len(bucket)
        if total != self._edge_count:
            raise GraphInvariantError("edge count out of sync")

    def __eq__(self, other):
        if not isinstance(other, AdjacencyGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self):
        return f"<AdjacencyGraph n={self.n_vertices} edges={self._edge_count}>"


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


def _check_collection(trees, *, need_unrooted=False):
    if not trees:
        return
    rooted = trees[0].rooted
    for t in trees:
        if t.rooted != rooted:
            raise ModeError("cannot mix rooted and unrooted trees in one graph")
    if need_unrooted and rooted:
        raise ModeError("bisection-reconnection graphs need unrooted trees")
    labels = trees[0].leaf_labels()
    for t in trees:
        if t.leaf_labels() != labels:
            raise LabelSetError("all trees must share one leaf label set")


def _construct(trees, mode, min_shared=1):
    container = AFContainer(mode)
    graph = AdjacencyGraph()
    vertex_of_input = []
    first_input = []
    for k, tree in enumerate(trees):
        vid, shared = container.insert_counting(tree)
        vertex_of_input.append(vid)
        if vid == graph.n_vertices:
            graph.add_vertex()
            first_input.append(k)
            for j, count in shared.items():
                if count >= min_shared:
                    graph.append_edge(vid, j)
    labeling = VertexLabeling(
        vertex_of_input=vertex_of_input,
        first_input=first_input,
        canonical=[container.sdlnewick_of(v) for v in range(graph.n_vertices)],
    )
    return graph, labeling


def construct_spr_graph(trees):
    """Prune-regraft adjacency graph; rooted and unrooted collections both
    work, picking the matching move family."""
    trees = list(trees)
    _check_collection(trees)
    mode = Mode.RSPR if trees and trees[0].rooted else Mode.USPR
    return _construct(trees, mode)


def construct_nni_graph(trees):
    """Interchange adjacency graph over rooted or unrooted collections: the
    prune-regraft pairs that share at least two forest keys."""
    trees = list(trees)
    _check_collection(trees)
    mode = Mode.RSPR if trees and trees[0].rooted else Mode.USPR
    return _construct(trees, mode, min_shared=2)


def construct_tbr_graph(trees):
    """Bisection-reconnection adjacency graph; unrooted collections only."""
    trees = list(trees)
    _check_collection(trees, need_unrooted=True)
    return _construct(trees, Mode.TBR)
