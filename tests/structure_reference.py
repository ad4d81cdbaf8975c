"""Reference implementations of the structure layer, kept for identity tests.

These are the direct quadratic forms of what ``aomdd.structure``
computes incrementally: min-fill rescoring every remaining vertex at
every step, pseudo trees by recursive conditioning on connected
components, and contexts by scanning each variable's ancestors.
"""

import random


def min_fill_ordering(g, seed=0):
    """Greedy min-fill ordering, every remaining vertex rescored per step."""
    rng = random.Random(seed)
    adj = [set(s) for s in g.adj]
    remaining = set(range(g.n))
    order = [None] * g.n
    for pos in range(g.n - 1, -1, -1):
        candidates = sorted(remaining)
        fills = {}
        for v in candidates:
            nbrs = [u for u in adj[v] if u in remaining]
            fill = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if b not in adj[a]:
                        fill += 1
            fills[v] = fill
        best_fill = min(fills.values())
        tied = [v for v in candidates if fills[v] == best_fill]
        best = rng.choice(tied)
        nbrs = [u for u in adj[best] if u in remaining]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        remaining.discard(best)
        order[pos] = best
    return order


def induced_width(g, order):
    """Width of the induced graph along ``order`` by clique filling."""
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(s) for s in g.adj]
    width = 0
    for i in range(g.n - 1, -1, -1):
        v = order[i]
        earlier = [u for u in adj[v] if pos[u] < i]
        width = max(width, len(earlier))
        for j, a in enumerate(earlier):
            for b in earlier[j + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    return width


def _components(g, vertices):
    seen = set()
    comps = []
    for start in vertices:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in g.adj[v]:
                if u in vertices and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    frontier.append(u)
        comps.append(frozenset(comp))
    return comps


def pseudo_tree_links(g, order):
    """(parent, children) by recursive conditioning on component roots."""
    pos = {v: i for i, v in enumerate(order)}
    parent = [None] * g.n
    children = [[] for _ in range(g.n)]
    stack = [(frozenset(range(g.n)), None)]
    while stack:
        comp, par = stack.pop()
        r = min(comp, key=pos.__getitem__)
        parent[r] = par
        if par is not None:
            children[par].append(r)
        comps = _components(g, comp - {r})
        comps.sort(key=lambda c: min(pos[v] for v in c))
        for c in reversed(comps):
            stack.append((c, r))
    return tuple(parent), tuple(tuple(c) for c in children)


def subtree_mask(tree, v):
    """Bit mask of the variables in the subtree of ``v``, from ``tree.children``."""
    mask = 0
    stack = [v]
    while stack:
        u = stack.pop()
        mask |= 1 << u
        stack.extend(tree.children[u])
    return mask


def contexts(tree, g):
    """Ancestors of each variable adjacent to its subtree, closest first."""
    out = []
    for v in range(tree.n):
        sub = subtree_mask(tree, v)
        ctx = []
        a = tree.parent[v]
        while a is not None:
            reach = 0
            for u in g.adj[a]:
                reach |= 1 << u
            if reach & sub:
                ctx.append(a)
            a = tree.parent[a]
        out.append(tuple(ctx))
    return tuple(out)
