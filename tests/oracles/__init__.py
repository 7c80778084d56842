"""Reference implementations the production code is checked against.

Each oracle is the straightforward point-by-point form of an algorithm
whose production version is vectorized.  They run only in tests:

* :mod:`tests.oracles.gapped_list` — ``GappedLeaf`` on a Python list slot
  array, equal to the numpy leaf charge for charge;
* :mod:`tests.oracles.greedy_scalar` — the greedy PLA window, one point at
  a time, equal to ``GreedyPLAApproximator`` bit for bit.
"""
