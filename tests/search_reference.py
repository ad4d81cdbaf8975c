"""Reference forms of the BCP pruning hook, kept as oracles.

``aomdd.search_compiler.bcp_hook`` keeps its propagation on a trail
across calls.  The two forms here are stateless: ``hook(assignment)``
propagates the whole partial assignment from scratch.  ``bcp_hook``
does so from a worklist, ``fixpoint_bcp_hook`` by rescanning every
nogood until a whole pass changes nothing.
"""

from aomdd.search_compiler import model_nogoods


def bcp_hook(model):
    """Pruning hook performing multi-valued unit propagation.

    The clause set is the model's zero tuples read as nogoods.  A nogood
    with all literals matched is a conflict; a nogood with exactly one
    unassigned variable forbids that value, and a variable with a single
    remaining value is fixed and propagated further.  Sound by
    construction: it only reports dead ends that no extension can avoid.

    Each call copies the assignment and propagates from a worklist that
    starts with every nogood.  A nogood can only become unit or
    conflicting when one of its variables is fixed, so only then are
    that variable's nogoods queued again.
    """
    nogoods = model_nogoods(model)
    domains = model.domains
    occurs = [[] for _ in domains]
    for i, nogood in enumerate(nogoods):
        for var in {var for var, _ in nogood}:
            occurs[var].append(i)

    def hook(assignment):
        values = list(assignment)
        forbidden = {}
        queue = list(range(len(nogoods)))
        while queue:
            pending = None
            for var, val in nogoods[queue.pop()]:
                current = values[var]
                if current is None:
                    if pending is not None or val in forbidden.get(var, ()):
                        break
                    pending = (var, val)
                elif current != val:
                    break
            else:
                if pending is None:
                    return False
                var, val = pending
                bad = forbidden.setdefault(var, set())
                bad.add(val)
                if len(bad) == domains[var]:
                    return False
                if len(bad) == domains[var] - 1:
                    values[var] = next(
                        v for v in range(domains[var]) if v not in bad
                    )
                    queue.extend(occurs[var])
        return True

    return hook


def fixpoint_bcp_hook(model):
    """The same propagation as ``bcp_hook``, rescanning to a fixpoint."""
    nogoods = model_nogoods(model)
    domains = model.domains

    def hook(assignment):
        values = list(assignment)
        forbidden = {}
        changed = True
        while changed:
            changed = False
            for nogood in nogoods:
                pending = None
                live = True
                for var, val in nogood:
                    current = values[var]
                    if current is None:
                        if val in forbidden.get(var, ()):
                            live = False
                            break
                        if pending is None:
                            pending = (var, val)
                        else:
                            live = False
                            break
                    elif current != val:
                        live = False
                        break
                if not live:
                    continue
                if pending is None:
                    return False
                var, val = pending
                bad = forbidden.setdefault(var, set())
                if val not in bad:
                    bad.add(val)
                    changed = True
                    if len(bad) == domains[var]:
                        return False
                    if len(bad) == domains[var] - 1:
                        values[var] = next(
                            v for v in range(domains[var]) if v not in bad
                        )
        return True

    return hook
