"""A small forward dataflow framework over :mod:`repro.analysis.cfg` graphs.

The protocol rules are all *may*-analyses over finite powerset lattices —
the set of resources that may be held, the set of states a host record
may be in — so the framework is deliberately minimal: facts are
``frozenset`` values (or anything hashable), ``join`` is set union by
default, and a rule supplies one ``transfer(node, fact) -> fact``
function.  The solver runs a worklist to a fixpoint; monotone transfer
functions over a finite lattice guarantee termination.

Edge semantics (matching the CFG builder's contract):

* A **normal** edge propagates the node's *output* fact.
* An **exception** edge propagates the node's *input* fact — "the
  statement raised, so its effects did not happen".  Cleanup nodes
  (``with-exit``, ``finally`` suites) whose effects run even while an
  exception unwinds are wired with normal edges by the builder, so they
  need no special case here.
"""

from collections import deque
from typing import Callable, Dict

from repro.analysis.cfg import CFG, CFGNode

__all__ = ["Solution", "solve_forward"]


class Solution:
    """In/out facts per node index after the fixpoint."""

    def __init__(self, cfg: CFG, in_facts: Dict[int, object],
                 out_facts: Dict[int, object]):
        self.cfg = cfg
        self.in_facts = in_facts
        self.out_facts = out_facts

    def in_fact(self, index: int, default=frozenset()):
        """The input fact, or ``default`` when the node is unreachable."""
        return self.in_facts.get(index, default)

    def reachable(self, index: int) -> bool:
        return index in self.in_facts


def _union(a, b):
    return a | b


def solve_forward(cfg: CFG,
                  entry_fact,
                  transfer: Callable[[CFGNode, object], object],
                  join: Callable[[object, object], object] = _union,
                  max_iterations: int = 100000) -> Solution:
    """Run ``transfer`` over ``cfg`` to a forward fixpoint.

    Nodes never reached from the entry keep no fact at all (they are
    absent from the solution maps) rather than a misleading bottom value.
    """
    in_facts: Dict[int, object] = {cfg.entry: entry_fact}
    out_facts: Dict[int, object] = {}
    worklist = deque([cfg.entry])
    queued = {cfg.entry}
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety valve
            raise RuntimeError(
                f"dataflow did not converge after {max_iterations} steps"
            )
        index = worklist.popleft()
        queued.discard(index)
        node = cfg.node(index)
        fact_in = in_facts[index]
        fact_out = transfer(node, fact_in)
        out_facts[index] = fact_out
        for successor, value in (
            [(s, fact_out) for s in node.succ]
            + [(s, fact_in) for s in node.exc_succ]
        ):
            if successor in in_facts:
                merged = join(in_facts[successor], value)
                if merged == in_facts[successor]:
                    continue
                in_facts[successor] = merged
            else:
                in_facts[successor] = value
            if successor not in queued:
                worklist.append(successor)
                queued.add(successor)
    return Solution(cfg, in_facts, out_facts)
