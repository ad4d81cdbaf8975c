"""Reference implementation of the BCP pruning hook, kept for identity tests.

This is the fixpoint form of what ``aomdd.search_compiler.bcp_hook``
computes from a worklist: every nogood is rescanned until a whole pass
changes nothing.
"""

from aomdd.search_compiler import model_nogoods


def bcp_hook(model):
    """Pruning hook performing multi-valued unit propagation.

    The clause set is the model's zero tuples read as nogoods.  A nogood
    with all literals matched is a conflict; a nogood with exactly one
    unassigned variable forbids that value, and a variable with a single
    remaining value is fixed and propagated further.  Sound by
    construction: it only reports dead ends that no extension can avoid.
    """
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
