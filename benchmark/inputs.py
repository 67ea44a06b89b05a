"""Seeded Newick inputs for the three benchmark workloads.

Nothing here imports treescape, so a change to the program cannot change
the inputs it is measured on. Every generator draws from one
``random.Random(seed)`` and returns the Newick lines plus what the output
checker needs to know about them. Tree identity is decided here with
cluster sets (rooted) and split sets (unrooted), not with the program's
canonical form.
"""

import hashlib
import random

# ---------------------------------------------------------------------------
# rooted trees: parent/children maps over leaves 1..n and internal ids > n


class _Rooted:
    __slots__ = ("children", "parent", "root", "next_id")

    def __init__(self, children, parent, root, next_id):
        self.children = children
        self.parent = parent
        self.root = root
        self.next_id = next_id

    def copy(self):
        return _Rooted(
            {k: list(v) for k, v in self.children.items()},
            dict(self.parent),
            self.root,
            self.next_id,
        )

    def nodes(self):
        out = []
        stack = [self.root]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(self.children.get(x, ()))
        return out

    def _replace_child(self, old, new):
        """Put new where old hangs (or at the root); new's parent follows."""
        p = self.parent[old]
        self.parent[new] = p
        if p is None:
            self.root = new
        else:
            kids = self.children[p]
            kids[kids.index(old)] = new

    def insert_above(self, x, leaf):
        """Subdivide the edge above x (the root edge if x is the root) and
        hang leaf from the new node."""
        w = self.next_id
        self.next_id += 1
        self._replace_child(x, w)
        self.children[w] = [x, leaf]
        self.parent[x] = w
        self.parent[leaf] = w

    def clusters(self):
        """Identity of the rooted topology: its set of leaf clusters."""
        below = {}
        out = set()
        for x in reversed(self.nodes()):
            kids = self.children.get(x)
            if kids is None:
                below[x] = frozenset((x,))
            else:
                below[x] = below[kids[0]] | below[kids[1]]
                out.add(below[x])
        return frozenset(out)

    def newick(self, rng):
        """Newick text with children in random order."""
        out = []
        stack = [self.root]
        while stack:
            x = stack.pop()
            if type(x) is str:
                out.append(x)
                continue
            kids = self.children.get(x)
            if kids is None:
                out.append(str(x))
                continue
            a, b = kids if rng.random() < 0.5 else kids[::-1]
            out.append("(")
            stack.extend((")", b, ",", a))
        return "".join(out) + ";"


def random_rooted(n, rng):
    """Uniform random rooted binary tree on leaves 1..n: each leaf goes onto
    a uniformly chosen edge, the root edge included."""
    t = _Rooted({n + 1: [1, 2]}, {n + 1: None, 1: n + 1, 2: n + 1}, n + 1, n + 2)
    for leaf in range(3, n + 1):
        t.insert_above(rng.choice(t.nodes()), leaf)
    return t


def rspr_move(t, rng):
    """A different tree one rooted prune-and-regraft move from t."""
    base = t.clusters()
    while True:
        s = t.copy()
        u = rng.choice([x for x in s.nodes() if x != s.root])
        p = s.parent[u]
        sib = next(k for k in s.children[p] if k != u)
        s._replace_child(p, sib)
        del s.children[p], s.parent[p]
        s.parent[u] = None
        s.insert_above(rng.choice(s.nodes()), u)
        if s.clusters() != base:
            return s


# ---------------------------------------------------------------------------
# unrooted trees: adjacency maps over leaves 1..n and internal ids > n


def _unrooted_star(n):
    c = n + 1
    return {c: [1, 2, 3], 1: [c], 2: [c], 3: [c]}


def _subdivide(adj, a, b, w, leaf):
    adj = {k: list(v) for k, v in adj.items()}
    adj[a][adj[a].index(b)] = w
    adj[b][adj[b].index(a)] = w
    adj[w] = [a, b, leaf]
    adj[leaf] = [w]
    return adj


def _edges(adj):
    return [(a, b) for a, nbrs in adj.items() for b in nbrs if a < b]


def random_unrooted(n, rng):
    """Uniform random unrooted binary tree on leaves 1..n (n >= 3)."""
    adj = _unrooted_star(n)
    for leaf in range(4, n + 1):
        a, b = rng.choice(_edges(adj))
        adj = _subdivide(adj, a, b, n + leaf - 2, leaf)
    return adj


def all_unrooted(n):
    """Every unrooted binary tree on leaves 1..n, (2n-5)!! of them."""
    trees = [_unrooted_star(n)]
    for leaf in range(4, n + 1):
        trees = [
            _subdivide(adj, a, b, n + leaf - 2, leaf) for adj in trees for a, b in _edges(adj)
        ]
    return trees


def splits(adj):
    """Identity of the unrooted topology: for every edge, the leaves on the
    side away from leaf 1."""
    out = set()
    for a, b in _edges(adj):
        side = set()
        stack = [b]
        seen = {a, b}
        while stack:
            x = stack.pop()
            if len(adj[x]) == 1:
                side.add(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if 1 in side:
            side = set(k for k in adj if len(adj[k]) == 1) - side
        out.add(frozenset(side))
    return frozenset(out)


def nni_move(adj, rng):
    """Swap one random subtree on each side of a random internal edge."""
    internal = [(a, b) for a, b in _edges(adj) if len(adj[a]) == 3 and len(adj[b]) == 3]
    u, v = rng.choice(internal)
    a = rng.choice([x for x in adj[u] if x != v])
    c = rng.choice([x for x in adj[v] if x != u])
    adj = {k: list(nbrs) for k, nbrs in adj.items()}
    adj[u][adj[u].index(a)] = c
    adj[v][adj[v].index(c)] = a
    adj[a][adj[a].index(u)] = v
    adj[c][adj[c].index(v)] = u
    return adj


def unrooted_newick(adj, rng, relabel=None):
    """Newick text rooted at a random internal node, children shuffled."""
    top = rng.choice([k for k, nbrs in adj.items() if len(nbrs) == 3])
    out = []
    stack = [(top, None)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        x, parent = item
        if len(adj[x]) == 1:
            out.append(str(relabel[x] if relabel else x))
            continue
        kids = [y for y in adj[x] if y != parent]
        rng.shuffle(kids)
        out.append("(")
        stack.append(")")
        for k in range(len(kids) - 1, 0, -1):
            stack.append((kids[k], x))
            stack.append(",")
        stack.append((kids[0], x))
    return "".join(out) + ";"


# ---------------------------------------------------------------------------
# workloads


class Input:
    """One workload's generated input.

    batches: the Newick lines of each build invocation, in order;
    tree_ids: for every line of every batch (concatenated), an id that is
        equal for two lines exactly when their topologies are equal;
    pairs: pairs of concatenated line indexes that must be graph edges;
    exact: whether the graph has no edges besides those pairs;
    leaves: the leaf count n.
    """

    def __init__(self, batches, tree_ids, pairs, exact, leaves):
        self.batches = batches
        self.tree_ids = tree_ids
        self.pairs = pairs
        self.exact = exact
        self.leaves = leaves

    @property
    def n_trees(self):
        return sum(len(b) for b in self.batches)

    def sha256(self):
        h = hashlib.sha256()
        for batch in self.batches:
            h.update("\n".join(batch).encode("ascii") + b"\n\n")
        return h.hexdigest()


def _ids(keys):
    seen = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def uniform_rspr(seed, n=128, m=4, planted=2):
    """m distinct uniform random rooted trees; the last `planted` are one
    rSPR move from earlier ones, and all lines are shuffled.

    The planted pairs are the only edges: two independent uniform trees on
    128 leaves are one rSPR move apart with probability below 1e-200.
    """
    rng = random.Random(seed)
    trees = [random_rooted(n, rng) for _ in range(m - planted)]
    bases = rng.sample(range(m - planted), planted)
    trees += [rspr_move(trees[b], rng) for b in bases]
    order = list(range(m))
    rng.shuffle(order)
    where = {k: i for i, k in enumerate(order)}
    lines = [trees[k].newick(rng) for k in order]
    pairs = [(where[b], where[m - planted + i]) for i, b in enumerate(bases)]
    ids = _ids(trees[k].clusters() for k in order)
    if len(set(ids)) != m:
        raise RuntimeError("uniform-rspr: generated trees are not distinct")
    return Input([lines], ids, pairs, True, n)


def space_uspr(seed, n=7):
    """All (2n-5)!! unrooted trees on n leaves, order shuffled and leaf
    labels permuted by the seed."""
    rng = random.Random(seed)
    trees = all_unrooted(n)
    rng.shuffle(trees)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabel = dict(zip(range(1, n + 1), perm))
    lines = [unrooted_newick(adj, rng, relabel) for adj in trees]
    return Input([lines], list(range(len(trees))), [], False, n)


def posterior_nni(seed, n=32, m=60, repeat=0.3):
    """An MCMC-like walk over unrooted trees, split in two batches.

    In each batch, a fixed share `repeat` of the steps keeps the current
    tree; every other step is an NNI move to a tree the walk has not
    visited. So the number of distinct trees in each batch, and with it
    the work, is fixed by m and not by the seed. The
    expected edges are the pairs of distinct trees whose split sets differ
    in one split each, which for binary trees is exactly NNI adjacency;
    every non-repeat walk step is one of them.
    """
    rng = random.Random(seed)
    half = m // 2
    stays = set()
    for steps in (range(1, half), range(half, m)):
        stays.update(rng.sample(steps, round(repeat * len(steps))))
    adj = random_unrooted(n, rng)
    key = splits(adj)
    visited = {key}
    walk = [(adj, key)]
    for step in range(1, m):
        if step not in stays:
            while True:
                nxt = nni_move(adj, rng)
                nkey = splits(nxt)
                if nkey not in visited:
                    break
            adj, key = nxt, nkey
            visited.add(key)
        walk.append((adj, key))
    lines = [unrooted_newick(a, rng) for a, _ in walk]
    firsts = {}
    for i, (_, k) in enumerate(walk):
        firsts.setdefault(k, i)
    pairs = [
        (i, j)
        for a, i in firsts.items()
        for b, j in firsts.items()
        if i < j and len(a - b) == 1
    ]
    return Input([lines[:half], lines[half:]], _ids(k for _, k in walk), pairs, True, n)


GENERATORS = {
    "uniform-rspr": uniform_rspr,
    "space-uspr": space_uspr,
    "posterior-nni": posterior_nni,
}
