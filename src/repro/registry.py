"""The index registry: one pluggable table behind CLI, benchmarks, and tests.

The paper's methodology is running the *same* twelve-plus indexes through
the *same* Viper store under the *same* workloads (§III).  Everything that
needs "all the indexes" — ``python -m repro info``/``bench``, the
``benchmarks/bench_*`` figure modules, the contract test suite — consumes
this module instead of maintaining its own factory table, the shape that
SOSD and "Are Updatable Learned Indexes Ready?" credit for their
extensibility: registering an index *once* makes it reachable everywhere.

Vocabulary:

* **canonical name** — the display name used in result tables ("ALEX",
  "FITing-tree-buf").  Unique across the registry.
* **alias** — alternative lookup keys ("alex", "fiting-buf"); resolution
  is case-insensitive and treats ``_`` as ``-``.
* **category** — one of :data:`CATEGORIES`; which comparison class the
  index belongs to (Table I's grouping plus our extensions).
* **figure** — which paper comparison sets include the index
  (:data:`FIGURES`); an index may appear under a different label per
  figure (the read-only case calls the static PGM just "PGM").

Typical use::

    from repro.registry import resolve, specs, factories

    index = resolve("alex").build(perf)          # CLI-style lookup
    for spec in specs(category="traditional"):   # filtered iteration
        ...
    READ_CASE = factories(figure="read")         # name -> factory views
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.concurrency.spec import ConcurrencySpec
from repro.core.interfaces import Index, SortedIndex
from repro.errors import InvalidConfigurationError, ReproError
from repro.learned import (
    ALEXIndex,
    APEXIndex,
    DynamicPGMIndex,
    FINEdexIndex,
    FITingTree,
    LIPPIndex,
    PGMIndex,
    RadixSplineIndex,
    RMIIndex,
    XIndexIndex,
)
from repro.perf.context import PerfContext
from repro.traditional import CCEH, BPlusTree, BwTree, Masstree, SkipList, Wormhole

#: Comparison classes.  ``learned-readonly`` and ``learned-updatable``
#: mirror Table I's split; ``hash`` is CCEH (unsorted, so excluded from
#: range experiments); ``extension`` marks the beyond-the-paper indexes
#: (LIPP, APEX, FINEdex) that no paper figure includes.
CATEGORIES = (
    "learned-readonly",
    "learned-updatable",
    "traditional",
    "hash",
    "extension",
)

#: Paper comparison sets an index can belong to:
#:
#: * ``read``  — the read-only competitor set (Figs 10-12, Tables II/III).
#: * ``write`` — the updatable competitor set (Figs 13-15).
#: * ``ext``   — the beyond-the-paper extension benches (``bench_ext_*``).
FIGURES = ("read", "write", "ext")


def _normalize(name: str) -> str:
    return name.strip().casefold().replace("_", "-")


class UnknownIndexError(ReproError, KeyError):
    """Lookup of an index name/alias that no registered spec answers to."""


@dataclass(frozen=True)
class IndexSpec:
    """Everything the framework needs to know about one index."""

    #: Canonical display name, unique across the registry.
    name: str
    #: The index class (or any callable accepting ``perf=`` plus kwargs).
    factory: Callable[..., Index]
    #: One of :data:`CATEGORIES`.
    category: str
    #: Alternative lookup keys; the first one is the CLI name.
    aliases: Tuple[str, ...] = ()
    #: Figure tag -> display label used in that comparison set.
    figures: Mapping[str, str] = field(default_factory=dict)
    #: Keyword arguments the factory is called with unless overridden.
    default_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: One-line provenance/description shown in docs and ``info``.
    description: str = ""
    #: How the index behaves under concurrent threads (Table I's CC
    #: column); drives the multithread projection simulator.  The
    #: default — one global lock, no blocking retrains — is the
    #: conservative assumption for an index that ships no CC scheme.
    concurrency: ConcurrencySpec = field(default_factory=ConcurrencySpec)

    def __post_init__(self) -> None:
        if not isinstance(self.concurrency, ConcurrencySpec):
            raise InvalidConfigurationError(
                f"index {self.name!r}: concurrency must be a "
                f"ConcurrencySpec, got {type(self.concurrency).__name__}"
            )
        if self.category not in CATEGORIES:
            raise InvalidConfigurationError(
                f"index {self.name!r}: unknown category {self.category!r}; "
                f"one of {CATEGORIES}"
            )
        for figure in self.figures:
            if figure not in FIGURES:
                raise InvalidConfigurationError(
                    f"index {self.name!r}: unknown figure {figure!r}; "
                    f"one of {FIGURES}"
                )

    @property
    def cli_name(self) -> str:
        """The name ``python -m repro bench --index`` advertises."""
        return self.aliases[0] if self.aliases else _normalize(self.name)

    def label_in(self, figure: str) -> str:
        """Display label of this index inside ``figure`` result tables."""
        return self.figures.get(figure, self.name)

    def build(self, perf: Optional[PerfContext] = None, **overrides: Any) -> Index:
        """Construct the index on ``perf`` (kwargs override the defaults)."""
        kwargs = {**self.default_kwargs, **overrides}
        return self.factory(perf=perf, **kwargs)

    #: Specs are callable with the ``factory(perf)`` shape every pre-registry
    #: call site used, so a spec drops into any ``Dict[str, IndexFactory]``.
    __call__ = build


_SPECS: Dict[str, IndexSpec] = {}
_ALIASES: Dict[str, str] = {}


def register(spec: Optional[IndexSpec] = None, /, **kwargs: Any):
    """Register an :class:`IndexSpec` (or build one from kwargs).

    Three forms::

        register(IndexSpec(...))                      # explicit spec

        register(name="Frob", factory=FrobIndex,      # keyword form
                 category="extension", aliases=("frob",))

        @register(name="Frob", category="extension")  # class decorator
        class FrobIndex(UpdatableIndex): ...

    Returns the spec (or, as a decorator, the class).
    """
    if spec is not None:
        if kwargs:
            raise InvalidConfigurationError(
                "register() takes an IndexSpec or keyword arguments, not both"
            )
        return _register(spec)
    if "factory" in kwargs:
        return _register(IndexSpec(**kwargs))

    def decorate(cls: Callable[..., Index]):
        _register(IndexSpec(factory=cls, **kwargs))
        return cls

    return decorate


def _register(spec: IndexSpec) -> IndexSpec:
    keys = {_normalize(spec.name), *(_normalize(a) for a in spec.aliases)}
    for key in keys:
        owner = _ALIASES.get(key)
        if owner is not None and owner != spec.name:
            raise InvalidConfigurationError(
                f"index name/alias {key!r} of {spec.name!r} is already "
                f"registered by {owner!r}"
            )
    if spec.name in _SPECS:
        raise InvalidConfigurationError(f"index {spec.name!r} already registered")
    _SPECS[spec.name] = spec
    for key in keys:
        _ALIASES[key] = spec.name
    return spec


def unregister(name: str) -> None:
    """Remove a spec (mainly for tests registering throwaway indexes)."""
    spec = resolve(name)
    del _SPECS[spec.name]
    for key, owner in list(_ALIASES.items()):
        if owner == spec.name:
            del _ALIASES[key]


def resolve(name: str) -> IndexSpec:
    """Look up a spec by canonical name or any alias (case-insensitive)."""
    canonical = _ALIASES.get(_normalize(name))
    if canonical is None:
        raise UnknownIndexError(
            f"unknown index {name!r}; one of {sorted(_ALIASES)}"
        )
    return _SPECS[canonical]


def specs(
    category: Union[str, Iterable[str], None] = None,
    figure: Optional[str] = None,
) -> List[IndexSpec]:
    """Registered specs, in registration order, optionally filtered.

    ``category`` is one of :data:`CATEGORIES` or an iterable of them;
    ``figure`` keeps only indexes belonging to that comparison set.
    """
    if isinstance(category, str):
        category = (category,)
    if category is not None:
        category = tuple(category)
        for cat in category:
            if cat not in CATEGORIES:
                raise InvalidConfigurationError(
                    f"unknown category {cat!r}; one of {CATEGORIES}"
                )
    if figure is not None and figure not in FIGURES:
        raise InvalidConfigurationError(
            f"unknown figure {figure!r}; one of {FIGURES}"
        )
    out = []
    for spec in _SPECS.values():
        if category is not None and spec.category not in category:
            continue
        if figure is not None and figure not in spec.figures:
            continue
        out.append(spec)
    return out


def has_native_batch(index: Union[Index, type]) -> bool:
    """Whether ``index`` overrides the per-key ``Index.get_many`` fallback.

    The batch contract holds either way; this only distinguishes a real
    vectorized path from the default loop, so benchmarks and the
    perf-smoke gate can hold native implementations to "faster than
    scalar" without penalising fallback indexes for list bookkeeping.
    """
    cls = index if isinstance(index, type) else type(index)
    return cls.get_many is not Index.get_many


def has_native_batch_insert(index: Union[Index, type]) -> bool:
    """Whether ``index`` overrides the per-key ``Index.insert_many`` fallback.

    The write-batch counterpart of :func:`has_native_batch`: the
    ``insert_many`` contract (observably equivalent to sequential
    inserts, last write wins on duplicates) holds either way, this only
    tells benchmarks which indexes have a real bulk write path to hold
    to "faster than scalar".
    """
    cls = index if isinstance(index, type) else type(index)
    return cls.insert_many is not Index.insert_many


def has_native_batch_scan(index: Union[Index, type]) -> bool:
    """Whether ``index`` overrides the per-start ``SortedIndex.scan_many``
    fallback.

    The scan-batch counterpart of :func:`has_native_batch`: the
    ``scan_many`` contract (tuples, order, and simulated charges
    bit-identical to sequential ``scan`` calls) holds either way; this
    only tells benchmarks which sorted indexes have a real vectorized
    range-extraction path to hold to "faster than scalar".  Always False
    for unsorted (hash) indexes, which have no scan at all.
    """
    cls = index if isinstance(index, type) else type(index)
    return (
        issubclass(cls, SortedIndex)
        and cls.scan_many is not SortedIndex.scan_many
    )


def _bound_factory(
    spec: IndexSpec, overrides: Mapping[str, Any]
) -> Callable[..., Index]:
    def make(perf: Optional[PerfContext] = None, **kwargs: Any) -> Index:
        return spec.build(perf, **{**overrides, **kwargs})

    make.spec = spec  # type: ignore[attr-defined]
    return make


def factories(
    figure: Optional[str] = None,
    category: Union[str, Iterable[str], None] = None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, Callable[..., Index]]:
    """A ``label -> factory(perf)`` view over :func:`specs`.

    Labels come from the figure membership when ``figure`` is given
    (``spec.label_in(figure)``), else the canonical name.  ``overrides``
    maps canonical names to extra constructor kwargs — how a benchmark
    pins tuning (e.g. RS's fixed prefix width) without a private table.
    """
    overrides = overrides or {}
    view: Dict[str, Callable[..., Index]] = {}
    for spec in specs(category=category, figure=figure):
        label = spec.label_in(figure) if figure is not None else spec.name
        if label in view:
            raise InvalidConfigurationError(
                f"duplicate label {label!r} in factories(figure={figure!r}, "
                f"category={category!r})"
            )
        view[label] = _bound_factory(spec, overrides.get(spec.name, {}))
    return view


# --------------------------------------------------------------- built-ins
#
# Registration order is presentation order: it fixes row order in
# ``python -m repro info`` and in every figure generated from a
# ``factories(...)`` view, matching the paper's table layout.

register(IndexSpec(
    name="RMI",
    factory=RMIIndex,
    category="learned-readonly",
    aliases=("rmi",),
    figures={"read": "RMI"},
    description="two-stage recursive model index (Kraska et al.)",
    concurrency=ConcurrencySpec(
        scheme="lock_free",
        notes="static after build; lookups touch immutable models",
    ),
))
register(IndexSpec(
    name="RS",
    factory=RadixSplineIndex,
    category="learned-readonly",
    aliases=("rs", "radix-spline", "radixspline"),
    figures={"read": "RS"},
    description="radix table over a one-pass spline (Kipf et al.)",
    concurrency=ConcurrencySpec(
        scheme="lock_free",
        notes="static after build; spline and radix table are immutable",
    ),
))
register(IndexSpec(
    name="FITing-tree-inp",
    factory=FITingTree,
    category="learned-updatable",
    aliases=("fiting-inp", "fiting-tree-inp"),
    figures={"write": "FITing-tree-inp"},
    default_kwargs={"strategy": "inplace"},
    description="FITing-tree with in-place leaf inserts",
    concurrency=ConcurrencySpec(
        scheme="global_lock",
        notes="no CC scheme published; whole tree behind one rwlock",
    ),
))
register(IndexSpec(
    name="FITing-tree-buf",
    factory=FITingTree,
    category="learned-updatable",
    aliases=("fiting-buf", "fiting-tree-buf", "fiting-tree"),
    figures={"read": "FITing-tree", "write": "FITing-tree-buf"},
    default_kwargs={"strategy": "buffer"},
    description="FITing-tree with per-leaf offsite insert buffers",
    concurrency=ConcurrencySpec(
        scheme="global_lock",
        notes="no CC scheme published; whole tree behind one rwlock",
    ),
))
register(IndexSpec(
    name="PGM",
    factory=DynamicPGMIndex,
    category="learned-updatable",
    aliases=("pgm", "pgm-dynamic", "dynamic-pgm"),
    figures={"write": "PGM"},
    description="LSM of bounded-error PGM levels (Ferragina & Vinciguerra)",
    concurrency=ConcurrencySpec(
        scheme="global_lock",
        notes="LSM carries merge into fresh levels off the read path",
    ),
))
register(IndexSpec(
    name="PGM-static",
    factory=PGMIndex,
    category="learned-readonly",
    aliases=("pgm-static",),
    figures={"read": "PGM"},
    description="static bounded-error piecewise-linear PGM",
    concurrency=ConcurrencySpec(
        scheme="lock_free",
        notes="static after build",
    ),
))
register(IndexSpec(
    name="ALEX",
    factory=ALEXIndex,
    category="learned-updatable",
    aliases=("alex",),
    figures={"read": "ALEX", "write": "ALEX"},
    description="gapped-array adaptive learned index (Ding et al.)",
    concurrency=ConcurrencySpec(
        scheme="global_lock",
        retrain_blocking=True,
        notes="ships no CC (Table I); global rwlock, node rebuilds block",
    ),
))
register(IndexSpec(
    name="XIndex",
    factory=XIndexIndex,
    category="learned-updatable",
    aliases=("xindex",),
    figures={"read": "XIndex", "write": "XIndex"},
    description="RMI root over groups with delta buffers (Tang et al.)",
    concurrency=ConcurrencySpec(
        scheme="fine_grained_latch",
        latch_domains=64,
        retrain_blocking=True,
        notes="per-group latches; group merge-retrain blocks writers",
    ),
))
register(IndexSpec(
    name="BTree",
    factory=BPlusTree,
    category="traditional",
    aliases=("btree", "b+tree", "bplustree"),
    figures={"read": "BTree", "write": "BTree"},
    description="cache-conscious B+tree baseline",
    concurrency=ConcurrencySpec(
        scheme="fine_grained_latch",
        latch_domains=256,
        notes="latch crabbing over nodes",
    ),
))
register(IndexSpec(
    name="Skiplist",
    factory=SkipList,
    category="traditional",
    aliases=("skiplist",),
    figures={"read": "Skiplist", "write": "Skiplist"},
    description="deterministic-seeded probabilistic skip list",
    concurrency=ConcurrencySpec(
        scheme="lock_free",
        notes="CAS tower links; conflicts only on the same node",
    ),
))
register(IndexSpec(
    name="Masstree",
    factory=Masstree,
    category="traditional",
    aliases=("masstree",),
    figures={"read": "Masstree", "write": "Masstree"},
    description="trie of B+trees over 8-byte key slices",
    concurrency=ConcurrencySpec(
        scheme="optimistic_read",
        latch_domains=256,
        retry_base=0.15,
        notes="version-validated reads, per-node write latches",
    ),
))
register(IndexSpec(
    name="Bwtree",
    factory=BwTree,
    category="traditional",
    aliases=("bwtree", "bw-tree"),
    figures={"read": "Bwtree", "write": "Bwtree"},
    description="delta-chain Bw-tree with consolidation",
    concurrency=ConcurrencySpec(
        scheme="optimistic_read",
        latch_domains=256,
        retry_base=0.10,
        notes="latch-free delta CAS on the mapping table",
    ),
))
register(IndexSpec(
    name="Wormhole",
    factory=Wormhole,
    category="traditional",
    aliases=("wormhole",),
    figures={"read": "Wormhole", "write": "Wormhole"},
    description="hashed trie over sorted leaf lists",
    concurrency=ConcurrencySpec(
        scheme="fine_grained_latch",
        latch_domains=256,
        notes="per-leaf rwlocks under the hashed anchor trie",
    ),
))
register(IndexSpec(
    name="CCEH",
    factory=CCEH,
    category="hash",
    aliases=("cceh",),
    figures={"read": "CCEH", "write": "CCEH"},
    description="cacheline-conscious extendible hashing (unsorted)",
    concurrency=ConcurrencySpec(
        scheme="fine_grained_latch",
        latch_domains=1024,
        notes="contends per segment; directory grows the domain count",
    ),
))
register(IndexSpec(
    name="LIPP",
    factory=LIPPIndex,
    category="extension",
    aliases=("lipp",),
    figures={"ext": "LIPP"},
    description="precise-position learned index (the paper's §V-B call)",
    concurrency=ConcurrencySpec(
        scheme="global_lock",
        retrain_blocking=True,
        notes="no CC scheme; precise-position subtree rebuilds block",
    ),
))
register(IndexSpec(
    name="APEX",
    factory=APEXIndex,
    category="extension",
    aliases=("apex",),
    figures={"ext": "APEX"},
    description="PM-resident learned index, metadata-only recovery",
    concurrency=ConcurrencySpec(
        scheme="fine_grained_latch",
        latch_domains=256,
        notes="per-node locks with PM-aware SMO protocol",
    ),
))
register(IndexSpec(
    name="FINEdex",
    factory=FINEdexIndex,
    category="extension",
    aliases=("finedex",),
    figures={"ext": "FINEdex"},
    description="level-bin fine-grained learned index",
    concurrency=ConcurrencySpec(
        scheme="fine_grained_latch",
        latch_domains=128,
        retrain_blocking=True,
        notes="level-bin latches; level retraining blocks its bins",
    ),
))

__all__ = [
    "CATEGORIES",
    "FIGURES",
    "IndexSpec",
    "UnknownIndexError",
    "factories",
    "has_native_batch",
    "has_native_batch_insert",
    "has_native_batch_scan",
    "register",
    "resolve",
    "specs",
    "unregister",
]
