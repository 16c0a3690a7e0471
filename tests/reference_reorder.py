"""The reorder that ``tldforge.analysis.reorder`` replaced, kept verbatim as
the reference its orders, multiplicities and failures are compared with: a
depth-first search over every literal permutation, leftmost callable
literal first, that remembers the (state, unscheduled literals) pairs
already proven to have no completion.  It searches every clause
exhaustively, with no step limit.  Only the imports are changed, from
relative to absolute.
"""

from __future__ import annotations


from tldforge.analysis import (AbstractState, Registry, ReorderFailure, _bind,
                               _blocked, _outs_satisfied)
from tldforge.ast import Clause
from tldforge.modes import Directionality


def reorder(clause: Clause, dir: Directionality, registry: Registry,
            mults: list | None = None, steps: dict | None = None):
    """A body permutation executable under the directionality.

    Deterministic: greedily take the leftmost callable unscheduled literal,
    with full backtracking when the greedy run sticks, so the result is the
    lexicographically first executable permutation.  Subtrees already proven
    to fail are remembered by (state, unscheduled literals) and not searched
    again, which bounds the search by n * 2**n steps when the state depends
    only on which literals ran.  Returns the reordered clause, or a
    ReorderFailure naming the clause and carrying the two standard
    suggestions (split per directionality, or respecify).  When ``mults``
    is given, it receives the answer multiplicity of each literal of the
    returned order at its place there.  ``steps`` maps each literal to its
    compiled mode step; the reorders of one analysis share it.
    """
    body = clause.body
    names, start, bound = _bind(clause, dir, registry, {} if steps is None else steps)
    failed: set = set()  # (state, remaining) pairs with no completion
    path: list = []  # (literal index, multiplicity) of the literals scheduled so far
    deepest: list = [-1, None, ()]  # the longest prefix: length, state, remaining

    def search(state: tuple, remaining: tuple) -> bool:
        if len(path) > deepest[0]:
            deepest[:] = len(path), state, remaining
        if not remaining:
            return _outs_satisfied(AbstractState(tuple(zip(names, state))), clause, dir)
        for k, i in enumerate(remaining):
            step, where = bound[i]
            r = step.apply(state, where)
            if r is None:
                continue
            nxt, mult = r
            rest = remaining[:k] + remaining[k + 1:]
            if failed and (nxt, rest) in failed:
                continue
            path.append((i, mult))
            if search(nxt, rest):
                return True
            path.pop()
            failed.add((nxt, rest))
        return False

    if not search(start, tuple(range(len(body)))):
        which = f" ({clause.provenance})" if clause.provenance else ""
        blocked = _blocked(clause, dir, names, bound, deepest[1], deepest[2])
        return ReorderFailure(clause.predicate, dir,
                              "no literal permutation satisfies the directionality"
                              + which, blocked)
    if mults is not None:
        mults.extend(m for _, m in path)
    return clause._replace(body=tuple(body[i] for i, _ in path))
