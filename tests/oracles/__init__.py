"""Reference implementations the production code is checked against.

Each oracle is the straightforward point-by-point form of an algorithm
whose production version is vectorized or replayed.  They run only in
tests:

* :mod:`tests.oracles.gapped_list` — ``GappedLeaf`` on a Python list slot
  array with its per-probe rank search, equal to the byte-map leaf and
  its one-loop search charge for charge;
* :mod:`tests.oracles.greedy_scalar` — the greedy PLA window, one point at
  a time, equal to ``GreedyPLAApproximator`` bit for bit;
* :mod:`tests.oracles.ledger_by_name` — the cost-model ledger as a dict of
  named counts, equal to ``repro.perf``'s flat ledger in every time, byte
  count and delta;
* :mod:`tests.oracles.search_loops` — the sorted-array searches as loops
  that read the keys and charge every probe, equal to
  ``repro.core.search`` in answer and ledger.
"""
