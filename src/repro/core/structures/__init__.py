"""Internal index structures (the paper's dimension #2, §IV-B).

An internal structure routes a key to the leaf segment that covers it.
Every structure here answers exactly the query "index of the rightmost
fence key <= key", but charges different event mixes.  Each is the one
implementation of its piece: the indexes named below build it rather
than keep a copy.

* :class:`RMIStructure` — two-layer recursive model index (XIndex's root;
  RMI's whole model tree, with the keys as fences): 2 model evaluations
  (:meth:`RMIStructure.predict`) + local correction search.
* :class:`BTreeStructure` — B+tree over fences (FITing-tree): one
  cache-missing hop plus ~log2(fanout) comparisons per level.
* :class:`LRSStructure` — Linear Recursive Structure (PGM-Index): one
  model evaluation + an eps-bounded search per level.
* :class:`ATSStructure` — Asymmetric Tree Structure (ALEX): variable-depth
  model tree; dense regions sit deeper, so the *average* depth is low.
* :class:`RadixTableStructure` — radix prefix table (RadixSpline, over
  its spline knots): one table probe + a binary search within the
  prefix bucket's fence window (:meth:`RadixTableStructure.bounds`).
"""

from repro.core.search import exponential_search
from repro.core.structures.base import InternalStructure
from repro.core.structures.rmi_structure import RMIStructure
from repro.core.structures.btree_structure import BTreeStructure
from repro.core.structures.lrs_structure import LRSStructure
from repro.core.structures.ats_structure import ATSStructure
from repro.core.structures.radix_table import RadixTableStructure
from repro.core.structures.hot_ats import HotATSStructure

__all__ = [
    "InternalStructure",
    "exponential_search",
    "RMIStructure",
    "BTreeStructure",
    "LRSStructure",
    "ATSStructure",
    "HotATSStructure",
    "RadixTableStructure",
]
