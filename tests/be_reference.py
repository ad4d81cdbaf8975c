"""Reference implementation of BE's APPLY grouping, kept for identity tests.

This is the all-pairs form of what ``aomdd.be_compiler.group_descendants``
computes by one merge over DFS intervals: every node of one list is
tested against every node of the other with ``is_ancestor_or_self``.
"""


def group_descendants(list_f, list_g, tree):
    """Group two DFS-ordered node lists by ancestor relationship.

    Within each list no variable is an ancestor of another.  Returns
    ``(head, members)`` pairs ordered by the head's DFS position: every
    member's variable lies in the head's subtree (the equal-variable
    case puts the g-node in the f-node's group), and nodes unrelated to
    the whole other list become singleton groups.
    """
    groups = []
    claimed_g = set()
    claimed_f = set()
    for y in list_g:
        members = [
            x
            for x in list_f
            if x.var != y.var and tree.is_ancestor_or_self(y.var, x.var)
        ]
        if members:
            groups.append((y, members))
            claimed_g.add(id(y))
            claimed_f.update(id(x) for x in members)
    for x in list_f:
        if id(x) in claimed_f:
            continue
        members = [
            y
            for y in list_g
            if id(y) not in claimed_g and tree.is_ancestor_or_self(x.var, y.var)
        ]
        claimed_g.update(id(y) for y in members)
        groups.append((x, members))
    for y in list_g:
        if id(y) not in claimed_g:
            groups.append((y, []))
    groups.sort(key=lambda p: tree.dfs_index[p[0].var])
    return groups
