"""Set collections: the closed collection ``C`` of unique sets (Sec. 3).

A :class:`SetCollection` stores:

* the sets themselves as frozensets of dense entity ids (see
  :class:`~repro.core.universe.Universe`),
* an inverted index ``entity id -> bitmask of containing sets``, which is the
  workhorse of every algorithm in the paper: partitioning a sub-collection
  ``C`` by entity ``e`` (the yes/no outcome of one membership question) is
  ``C+ = C & mask[e]`` and ``C- = C & ~mask[e]``.

The collection is **content-immutable**: no operation ever changes which
sets a constructed collection holds.  Mutation is expressed as *versioning*
instead — :meth:`SetCollection.apply_delta` takes a :class:`DeltaBatch` of
additions, removals and membership updates and returns a **new** collection
at ``epoch + 1`` that shares every unchanged structure (entity masks,
bit-matrix segments, cached informative stats) with its parent copy-on-write,
so a small delta costs O(changed) while readers of the old epoch keep a
consistent snapshot.  The one in-place operation is :meth:`reshard`, which
swaps the *execution strategy* (kernel sharding) without touching content and
therefore keeps the same epoch.  Sub-collections are plain integer bitmasks
(:mod:`repro.core.bitmask`), never copies of the sets, so algorithms can
explore millions of sub-collections cheaply and use the masks directly as
memoisation keys.

Uniqueness: the paper assumes all sets are unique ("if not, duplicates can be
removed without affecting the search task").  Construction therefore either
rejects duplicates (default) or silently merges them (``dedupe=True``),
remembering which input names collapsed onto each stored set.  Deltas always
reject duplicates: a batch whose result would contain two equal sets raises
:class:`DuplicateSetError`.

See ``docs/collections.md`` for the epoch model end to end (core deltas,
kernel segment sharing, serving epoch-pinning).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from . import kernels
from .bitmask import full_mask, iter_bits, popcount
from .universe import Universe


class DuplicateSetError(ValueError):
    """Raised when two input sets are equal and ``dedupe`` is off."""


class DeltaError(ValueError):
    """Raised when a :class:`DeltaBatch` is inconsistent with the collection.

    Examples: removing or updating a set name the collection does not have,
    adding a name that already exists (without removing it in the same
    batch), removing a membership label that is not a member.  The failed
    :meth:`SetCollection.apply_delta` leaves the collection untouched.
    """


#: Default bound on the per-mask informative-stats cache.  Sustained
#: multi-session serving visits an ever-growing stream of sub-collection
#: masks; an unbounded cache is a memory leak, so entries are evicted in
#: least-recently-used order beyond this many masks.
DEFAULT_INFORMATIVE_CACHE_SIZE = 8192


class DeltaBatch:
    """One atomic batch of collection mutations, applied by
    :meth:`SetCollection.apply_delta`.

    The builder methods chain and may be called repeatedly::

        batch = (
            DeltaBatch()
            .add_sets({"S9": ["milk", "eggs"]})
            .remove_sets(["S3"])
            .update_membership("S1", add=["butter"], remove=["salt"])
        )
        newer = collection.apply_delta(batch)   # epoch N+1

    Semantics (validated against the target collection at apply time):

    * ``add_sets`` — each name must be new, *unless* the same batch removes
      it, which reads as an atomic replacement (the new set reuses the old
      set's slot).
    * ``remove_sets`` — each name must exist and may be removed only once.
    * ``update_membership`` — the named set must exist and must not be
      removed in the same batch; removing a label that is not a member is
      an error, adding a label that is already a member is a no-op.

    A batch is a pure description: it holds no reference to any collection
    and the same batch may be applied to several collections.
    """

    __slots__ = ("_adds", "_removes", "_updates")

    def __init__(self) -> None:
        self._adds: list[tuple[str, tuple[Hashable, ...]]] = []
        self._removes: list[str] = []
        self._updates: list[
            tuple[str, tuple[Hashable, ...], tuple[Hashable, ...]]
        ] = []

    def add_sets(
        self, named: Mapping[str, Iterable[Hashable]]
    ) -> "DeltaBatch":
        """Queue new sets from a ``name -> iterable of labels`` mapping."""
        for name, labels in named.items():
            self._adds.append((name, tuple(labels)))
        return self

    def remove_sets(self, names: Iterable[str]) -> "DeltaBatch":
        """Queue existing sets for removal, by name."""
        self._removes.extend(names)
        return self

    def update_membership(
        self,
        name: str,
        add: Iterable[Hashable] = (),
        remove: Iterable[Hashable] = (),
    ) -> "DeltaBatch":
        """Queue a membership edit of the named set (labels in, labels out)."""
        self._updates.append((name, tuple(add), tuple(remove)))
        return self

    def __len__(self) -> int:
        """Number of queued operations (adds + removes + updates)."""
        return len(self._adds) + len(self._removes) + len(self._updates)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return (
            f"DeltaBatch(adds={len(self._adds)}, "
            f"removes={len(self._removes)}, updates={len(self._updates)})"
        )


class SetCollection:
    """An immutable collection of unique finite sets over a shared universe.

    Parameters
    ----------
    sets:
        Iterable of iterables of entity labels (any hashables).
    names:
        Optional human-readable name per set (defaults to ``S1..Sn`` as in
        the paper's running example).
    universe:
        Optional pre-existing :class:`Universe` to intern labels into; a new
        one is created when omitted.
    dedupe:
        When true, duplicate sets are merged instead of raising
        :class:`DuplicateSetError`.
    backend:
        Entity-statistics kernel backend: ``"bigint"``, ``"numpy"``,
        ``"native"`` or ``"auto"`` (honour ``$REPRO_BACKEND``, then pick
        the fastest importable backend — native's compiled popcount
        extension, else numpy — when the collection is large enough for
        vectorization to win).  See :mod:`repro.core.kernels`; all
        backends produce identical results, only throughput differs.
        Requesting ``"native"`` without the compiled extension degrades
        to numpy with a one-time warning.
    shards:
        When > 1, partition the set axis into this many contiguous ranges
        and run every batched statistic per shard on a worker pool
        (:mod:`repro.core.kernels.sharded`).  Results stay bit-identical
        to the unsharded kernels; only throughput changes.  ``None`` (the
        default) keeps the single-kernel path; see also :meth:`reshard`.
    shard_executor:
        How the shards run: ``"thread"`` (default, a thread pool) or
        ``"serial"``; ``None`` defers to ``$REPRO_SHARD_EXECUTOR``.
    informative_cache_size:
        Bound on the per-mask informative-stats cache
        (:data:`DEFAULT_INFORMATIVE_CACHE_SIZE` masks by default, LRU
        eviction).  ``None`` disables the bound — only sensible for
        short-lived collections.
    """

    __slots__ = (
        "universe",
        "_sets",
        "_names",
        "_entity_masks",
        "_full_mask",
        "_aliases",
        "_index_by_name",
        "_index_by_set",
        "_informative_cache",
        "_informative_cache_size",
        "_kernel",
        "_epoch",
    )

    def __init__(
        self,
        sets: Iterable[Iterable[Hashable]],
        names: Sequence[str] | None = None,
        universe: Universe | None = None,
        dedupe: bool = False,
        backend: str | None = None,
        shards: int | None = None,
        shard_executor: str | None = None,
        informative_cache_size: int | None = DEFAULT_INFORMATIVE_CACHE_SIZE,
    ) -> None:
        self.universe = universe if universe is not None else Universe()
        interned: list[frozenset[int]] = []
        kept_names: list[str] = []
        seen: dict[frozenset[int], int] = {}
        aliases: dict[int, list[str]] = {}
        for position, raw in enumerate(sets):
            name = (
                names[position]
                if names is not None
                else f"S{position + 1}"
            )
            fs = frozenset(self.universe.intern(label) for label in raw)
            if fs in seen:
                if not dedupe:
                    raise DuplicateSetError(
                        f"set {name!r} duplicates set "
                        f"{kept_names[seen[fs]]!r}; pass dedupe=True to merge"
                    )
                aliases.setdefault(seen[fs], []).append(name)
                continue
            seen[fs] = len(interned)
            interned.append(fs)
            kept_names.append(name)
        self._sets: tuple[frozenset[int], ...] = tuple(interned)
        self._names: tuple[str, ...] = tuple(kept_names)
        self._aliases: dict[int, tuple[str, ...]] = {
            idx: tuple(extra) for idx, extra in aliases.items()
        }
        # O(1) lookup maps (construction already had both at hand: ``seen``
        # is exactly set -> index, and names map to their first index).
        self._index_by_set: dict[frozenset[int], int] = seen
        name_index: dict[str, int] = {}
        for idx, name in enumerate(kept_names):
            name_index.setdefault(name, idx)
        self._index_by_name: dict[str, int] = name_index
        masks: dict[int, int] = {}
        for idx, fs in enumerate(self._sets):
            bit = 1 << idx
            for eid in fs:
                masks[eid] = masks.get(eid, 0) | bit
        self._entity_masks: dict[int, int] = masks
        self._full_mask: int = full_mask(len(self._sets))
        self._informative_cache: dict[int, tuple[Sequence[int], Sequence[int]]] = {}
        self._informative_cache_size = informative_cache_size
        self._epoch = 0
        self._kernel = kernels.make_kernel(
            backend,
            self._sets,
            self._entity_masks,
            len(self._sets),
            shards=shards,
            shard_executor=shard_executor,
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_named_sets(
        cls,
        named: Mapping[str, Iterable[Hashable]],
        universe: Universe | None = None,
        dedupe: bool = False,
        backend: str | None = None,
    ) -> "SetCollection":
        """Build from a ``name -> iterable of labels`` mapping."""
        names = list(named)
        return cls(
            (named[name] for name in names),
            names=names,
            universe=universe,
            dedupe=dedupe,
            backend=backend,
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n_sets(self) -> int:
        """``n``: number of unique sets in the collection."""
        return len(self._sets)

    @property
    def n_entities(self) -> int:
        """``m``: number of distinct entities across all sets."""
        return len(self._entity_masks)

    @property
    def full_mask(self) -> int:
        """Bitmask selecting every set (the root sub-collection)."""
        return self._full_mask

    @property
    def epoch(self) -> int:
        """Version number of this collection's content.

        A freshly constructed collection is epoch 0; each
        :meth:`apply_delta` returns a collection at ``epoch + 1``.
        :meth:`reshard` changes only execution strategy and keeps the
        epoch.
        """
        return self._epoch

    @property
    def backend(self) -> str:
        """Name of the entity-statistics kernel backend in use.

        Sharded collections report ``"<base>[xN]"`` (e.g. ``"numpy[x4]"``).
        """
        return self._kernel.name

    @property
    def shards(self) -> int:
        """Number of set-range shards the kernel executes over (1 = none)."""
        return getattr(self._kernel, "n_shards", 1)

    @property
    def kernel(self) -> kernels.EntityStatsKernel:
        """The entity-statistics kernel in use (read-only; see
        :meth:`reshard` to swap execution strategies)."""
        return self._kernel

    def reshard(self, shards: int | None, executor: str | None = None) -> None:
        """Swap the kernel for a variant with ``shards`` set-range shards.

        A pure execution-strategy change: the backend stays the same, every
        statistic stays bit-identical, and the informative-stats cache is
        kept (its entries are exact under any sharding).  ``shards`` of
        ``None``/``0``/``1`` restores the unsharded kernel.  The
        multi-session engine calls this for ``SessionEngine(shards=...)``.

        This is the one *in-place* mutation of a collection.  It never
        changes content — sets, names, masks and every statistic are
        untouched — so the :attr:`epoch` stays the same.  Content changes
        go through :meth:`apply_delta`, which versions instead of
        mutating.
        """
        base = getattr(self._kernel, "base_name", self._kernel.name)
        old = self._kernel
        self._kernel = kernels.make_kernel(
            base,
            self._sets,
            self._entity_masks,
            len(self._sets),
            shards=shards,
            shard_executor=executor,
        )
        if hasattr(old, "close"):
            old.close()

    # ------------------------------------------------------------------ #
    # Epoch versioning: copy-on-write deltas
    # ------------------------------------------------------------------ #

    def apply_delta(self, batch: DeltaBatch) -> "SetCollection":
        """Apply a :class:`DeltaBatch` and return the epoch ``N+1`` collection.

        The result is a new, independent :class:`SetCollection` sharing
        every unchanged structure with this one copy-on-write:

        * the :class:`~repro.core.universe.Universe` is shared outright
          (interning is append-only, so new labels are safe to add);
        * the entity-mask index is a dict copy with only the masks of
          entities belonging to changed sets rewritten;
        * the kernel patches only the bit-matrix columns (and, for
          :class:`~repro.core.kernels.sharded.ShardedKernel`, only the
          shards) that the delta touches, on the same backend family;
        * cached informative stats survive for every mask that selects no
          changed slot.

        A delta touching ``k`` sets therefore costs ``O(k)`` set slots —
        plus one pass over the entity rows for the matrix column patch —
        instead of an ``O(n x m)`` rebuild, and this collection remains
        fully usable: in-flight readers of epoch ``N`` keep an exact
        snapshot.

        Slot layout is deterministic so that an equal-content rebuild is
        byte-identical: an added set fills the slot of a removed one
        (ascending removal order, batch add order), extra adds append at
        the tail, and when removals outnumber adds the kept tail sets swap
        down into the remaining holes (lowest hole takes the lowest kept
        tail set) before the set axis truncates.  Set order carries no
        semantic weight — every statistic is order-independent — it only
        pins down bit positions.

        Raises :class:`DeltaError` on an inconsistent batch and
        :class:`DuplicateSetError` if the result would contain two equal
        sets; either way this collection is left untouched (at most some
        new labels were interned into the shared universe, which is
        harmless).  An empty batch returns ``self`` unchanged — no new
        epoch.
        """
        if not isinstance(batch, DeltaBatch):
            raise TypeError(
                f"apply_delta expects a DeltaBatch, got {type(batch).__name__}"
            )
        if not batch:
            return self
        n_old = len(self._sets)

        # -- resolve removals against this collection ------------------- #
        removed: dict[int, str] = {}
        for name in batch._removes:
            idx = self._index_by_name.get(name)
            if idx is None:
                raise DeltaError(f"remove_sets: unknown set name {name!r}")
            if idx in removed:
                raise DeltaError(f"remove_sets: set {name!r} removed twice")
            removed[idx] = name

        # -- resolve membership updates --------------------------------- #
        updated: dict[int, frozenset[int]] = {}
        for name, add_labels, remove_labels in batch._updates:
            idx = self._index_by_name.get(name)
            if idx is None:
                raise DeltaError(
                    f"update_membership: unknown set name {name!r}"
                )
            if idx in removed:
                raise DeltaError(
                    f"update_membership: set {name!r} is removed in the "
                    f"same batch"
                )
            members = set(updated.get(idx, self._sets[idx]))
            for label in remove_labels:
                if label not in self.universe:
                    raise DeltaError(
                        f"update_membership: {label!r} is not a member "
                        f"of set {name!r}"
                    )
                eid = self.universe.id_of(label)
                if eid not in members:
                    raise DeltaError(
                        f"update_membership: {label!r} is not a member "
                        f"of set {name!r}"
                    )
                members.discard(eid)
            for label in add_labels:
                members.add(self.universe.intern(label))
            updated[idx] = frozenset(members)

        # -- resolve additions ------------------------------------------ #
        added_names: list[str] = []
        added_sets: list[frozenset[int]] = []
        for name, labels in batch._adds:
            if name in added_names:
                raise DeltaError(
                    f"add_sets: duplicate name {name!r} in one batch"
                )
            existing = self._index_by_name.get(name)
            if existing is not None and existing not in removed:
                raise DeltaError(
                    f"add_sets: set name {name!r} already exists; remove "
                    f"it in the same batch to replace it"
                )
            added_names.append(name)
            added_sets.append(
                frozenset(self.universe.intern(label) for label in labels)
            )

        # -- slot layout: replace, append, swap-from-tail, truncate ----- #
        new_sets = list(self._sets)
        new_names = list(self._names)
        dirty_new: set[int] = set()  # new-space slots whose content is new
        dirty_old: set[int] = set()  # old-space slots whose content is gone
        moved: dict[int, int] = {}  # old tail slot -> hole it fills
        for idx, fs in updated.items():
            if fs == self._sets[idx]:
                continue  # the update netted out: slot stays clean
            new_sets[idx] = fs
            dirty_new.add(idx)
            dirty_old.add(idx)
        removal_order = sorted(removed)
        n_replaced = min(len(removal_order), len(added_sets))
        for i in range(n_replaced):
            slot = removal_order[i]
            new_sets[slot] = added_sets[i]
            new_names[slot] = added_names[i]
            dirty_new.add(slot)
            dirty_old.add(slot)
        n_new = n_old - len(removal_order) + len(added_sets)
        for i in range(n_replaced, len(added_sets)):
            new_sets.append(added_sets[i])
            new_names.append(added_names[i])
            dirty_new.add(len(new_sets) - 1)
        if len(removal_order) > n_replaced:
            holes = set(removal_order[n_replaced:])
            low_holes = sorted(h for h in holes if h < n_new)
            kept_tail = [
                t for t in range(n_new, n_old) if t not in holes
            ]
            for hole, tail in zip(low_holes, kept_tail):
                new_sets[hole] = new_sets[tail]
                new_names[hole] = new_names[tail]
                moved[tail] = hole
                dirty_new.add(hole)
                dirty_old.add(hole)
            dirty_old.update(range(n_new, n_old))
            dirty_new.difference_update(range(n_new, n_old))
            del new_sets[n_new:]
            del new_names[n_new:]

        # -- uniqueness + set index (copy, pop old, insert new) --------- #
        index_by_set = dict(self._index_by_set)
        for slot in dirty_old:
            index_by_set.pop(self._sets[slot], None)
        for slot in sorted(dirty_new):
            fs = new_sets[slot]
            other = index_by_set.get(fs)
            if other is not None:
                raise DuplicateSetError(
                    f"delta would make set {new_names[slot]!r} a duplicate "
                    f"of set {new_names[other]!r}"
                )
            index_by_set[fs] = slot

        # -- entity masks: clear old bits, set new bits, drop zeros ----- #
        masks = dict(self._entity_masks)
        touched: set[int] = set()
        for slot in dirty_old:
            bit = 1 << slot
            for eid in self._sets[slot]:
                masks[eid] &= ~bit
                touched.add(eid)
        for slot in dirty_new:
            bit = 1 << slot
            for eid in new_sets[slot]:
                masks[eid] = masks.get(eid, 0) | bit
        for eid in touched:
            if masks[eid] == 0:
                del masks[eid]

        # -- names index (first-wins needs the full rebuild) and aliases  #
        name_index: dict[str, int] = {}
        for idx, name in enumerate(new_names):
            name_index.setdefault(name, idx)
        aliases: dict[int, tuple[str, ...]] = {}
        for old_idx, extra in self._aliases.items():
            if old_idx in removed:
                continue  # a removed set takes its merged aliases with it
            aliases[moved.get(old_idx, old_idx)] = extra

        # -- informative-stats cache carry-over ------------------------- #
        # A cached entry depends only on the membership of the sets its
        # mask selects; it survives iff the mask touches no old-space
        # dirty slot (truncated slots are dirty, so no separate guard).
        dirty_old_mask = 0
        for slot in dirty_old:
            dirty_old_mask |= 1 << slot
        cache: dict[int, tuple[Sequence[int], Sequence[int]]] = {}
        cap = self._informative_cache_size
        for mask, stats in self._informative_cache.items():
            if mask & dirty_old_mask == 0:
                cache[mask] = stats  # parent order keeps LRU recency

        # -- kernel: same backend family, patched segments -------------- #
        sets_tuple = tuple(new_sets)
        delta = kernels.KernelDelta(
            dirty_new=tuple(sorted(dirty_new)),
            dirty_old=tuple(sorted(dirty_old)),
        )
        kernel = kernels.delta_kernel(
            self._kernel, sets_tuple, masks, n_new, delta
        )

        child = object.__new__(SetCollection)
        child.universe = self.universe
        child._sets = sets_tuple
        child._names = tuple(new_names)
        child._aliases = aliases
        child._index_by_set = index_by_set
        child._index_by_name = name_index
        child._entity_masks = masks
        child._full_mask = full_mask(n_new)
        child._informative_cache = cache
        child._informative_cache_size = cap
        child._kernel = kernel
        child._epoch = self._epoch + 1
        return child

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """All sets, as frozensets of entity ids, indexed by set number."""
        return self._sets

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def name_of(self, index: int) -> str:
        return self._names[index]

    def index_of(self, name: str) -> int:
        """Index of the set with the given name (O(1))."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise KeyError(name) from None

    def aliases_of(self, index: int) -> tuple[str, ...]:
        """Names of duplicate input sets merged into set ``index``."""
        return self._aliases.get(index, ())

    def set_labels(self, index: int) -> frozenset[Hashable]:
        """The stored set with entity ids translated back to labels."""
        return frozenset(self.universe.label(e) for e in self._sets[index])

    def entity_mask(self, eid: int) -> int:
        """Bitmask of the sets containing entity ``eid`` (0 if absent)."""
        return self._entity_masks.get(eid, 0)

    def entity_ids(self) -> Iterator[int]:
        """All entity ids present in at least one set."""
        return iter(self._entity_masks)

    def __len__(self) -> int:
        return len(self._sets)

    def __repr__(self) -> str:
        return (
            f"SetCollection(n_sets={self.n_sets}, "
            f"n_entities={self.n_entities})"
        )

    # ------------------------------------------------------------------ #
    # Sub-collection algebra
    # ------------------------------------------------------------------ #

    def count(self, mask: int) -> int:
        """Number of sets in the sub-collection ``mask``."""
        return popcount(mask)

    def partition(self, mask: int, eid: int) -> tuple[int, int]:
        """Split ``mask`` by entity ``eid`` into ``(C+, C-)``.

        ``C+`` holds the sets containing the entity (the user answered
        *yes*), ``C-`` the rest (*no*).
        """
        positive = mask & self._entity_masks.get(eid, 0)
        return positive, mask & ~positive

    def positive_count(self, mask: int, eid: int) -> int:
        """``|C+|`` without materialising the negative side."""
        return popcount(mask & self._entity_masks.get(eid, 0))

    def positive_counts(self, mask: int, eids: Iterable[int]) -> list[int]:
        """Batched :meth:`positive_count` over many entities at once.

        One kernel pass instead of a per-entity loop; on the numpy backend
        the counts for all entities come out of a single batched popcount
        over the packed bit-matrix.  Unknown entity ids count 0.
        """
        counts = self._kernel.positive_counts(mask, eids)
        return counts if isinstance(counts, list) else counts.tolist()

    def positive_counts_many(
        self, masks: Sequence[int], eids: Iterable[int]
    ) -> list[list[int]]:
        """Stacked :meth:`positive_counts`: one count list per mask.

        A single kernel pass answers the same entity questions for many
        sub-collections (sessions) at once; row ``i`` equals
        ``positive_counts(masks[i], eids)`` on every backend.
        """
        rows = self._kernel.positive_counts_many(masks, eids)
        return [
            row if isinstance(row, list) else row.tolist() for row in rows
        ]

    def partition_many(
        self, mask: int, eids: Iterable[int]
    ) -> list[tuple[int, int]]:
        """Batched :meth:`partition` over many entities at once.

        Returns ``(C+, C-)`` pairs parallel to ``eids``; the lookahead
        selectors use this to expand all children of a node in one kernel
        call.
        """
        return self._kernel.partition_many(mask, eids)

    def sets_in(self, mask: int) -> Iterator[int]:
        """Indices of the sets selected by ``mask``, ascending."""
        return iter_bits(mask)

    def entities_in(self, mask: int) -> set[int]:
        """Union of entities over the sets selected by ``mask``."""
        return self._kernel.member_union(mask)

    def informative_entities(
        self,
        mask: int,
        candidates: Iterable[int] | None = None,
    ) -> list[tuple[int, int]]:
        """Informative entities of the sub-collection ``mask``.

        An entity is *informative* (Sec. 3) when it is present in some but
        not all sets of the sub-collection; only informative entities can
        reduce the candidate space, so only they may label tree nodes.

        Returns ``(entity id, |C+|)`` pairs, in ascending entity-id order
        (identical on every backend).  ``candidates`` restricts the scan
        (children of a node only need their parent's informative entities)
        and preserves the caller's order.  Results for the no-candidates
        form are cached per mask since the same sub-collection recurs
        across lookahead invocations.
        """
        eids, counts = self.informative_stats(mask, candidates)
        if isinstance(eids, (list, tuple)):
            return list(zip(eids, counts))
        return list(zip(eids.tolist(), counts.tolist()))

    def informative_stats(
        self,
        mask: int,
        candidates: Iterable[int] | None = None,
    ) -> tuple[Sequence[int], Sequence[int]]:
        """Informative entities as parallel ``(eids, counts)`` sequences.

        The batched form of :meth:`informative_entities` — the hot path of
        every selector.  On the numpy backend both sequences are integer
        arrays produced by one vectorized popcount pass, ready for batched
        scoring (:mod:`repro.core.kernels.scoring`); on the big-int backend
        they are plain lists.  Callers must treat the result as read-only:
        the no-candidates form is cached per mask.

        Ordering contract: ascending entity id when ``candidates`` is
        omitted (identical across backends), the caller's order otherwise.
        """
        n = popcount(mask)
        if candidates is None:
            cached = self._cache_get(mask)
            if cached is not None:
                return cached
            stats = self._freeze_stats(
                self._kernel.scan_informative(mask, n, None)
            )
            self._cache_put(mask, stats)
            return stats
        return self._kernel.scan_informative(mask, n, candidates)

    def informative_stats_many(
        self,
        masks: Sequence[int],
        candidates_list: Sequence[Iterable[int] | None] | None = None,
    ) -> list[tuple[Sequence[int], Sequence[int]]]:
        """Batched :meth:`informative_stats` over many sub-collections.

        Cache hits are returned directly; all misses are answered by *one*
        stacked kernel pass (the multi-session engine's hot path) and then
        cached, so a later per-mask :meth:`informative_stats` call on any
        of these masks is a hit.

        ``candidates_list`` optionally restricts each miss's scan.  Because
        the result is cached as if it came from a full scan, each
        restriction MUST be a superset of the mask's informative entities
        presented in ascending entity-id order — e.g. the informative
        entities of any ancestor sub-collection, which always qualify
        (narrowing can only shrink the informative set).  Results are then
        identical to the unrestricted scan, just cheaper.
        """
        out: list = [None] * len(masks)
        miss_at: list[int] = []
        miss_masks: list[int] = []
        miss_ns: list[int] = []
        miss_cands: list[Iterable[int] | None] = []
        pending: dict[int, list[int]] = {}
        for i, mask in enumerate(masks):
            cached = self._cache_get(mask)
            if cached is not None:
                out[i] = cached
                continue
            if mask in pending:  # duplicate miss: scan once, share result
                pending[mask].append(i)
                continue
            pending[mask] = [i]
            miss_at.append(i)
            miss_masks.append(mask)
            miss_ns.append(popcount(mask))
            miss_cands.append(
                candidates_list[i] if candidates_list is not None else None
            )
        if miss_masks:
            scanned = self._kernel.scan_informative_many(
                miss_masks, miss_ns, miss_cands
            )
            for mask, raw in zip(miss_masks, scanned):
                stats = self._freeze_stats(raw)
                self._cache_put(mask, stats)
                for i in pending[mask]:
                    out[i] = stats
        return out

    def _freeze_stats(
        self, raw: tuple[Sequence[int], Sequence[int]]
    ) -> tuple[Sequence[int], Sequence[int]]:
        """Make scan results immutable before caching.

        The same objects are handed to every caller, so a mutable cached
        list would let one caller corrupt all later selections on its mask.
        """
        eids, counts = raw
        if isinstance(eids, list):
            return tuple(eids), tuple(counts)
        eids.flags.writeable = False
        counts.flags.writeable = False
        return eids, counts

    def _cache_get(
        self, mask: int
    ) -> tuple[Sequence[int], Sequence[int]] | None:
        """Cache lookup; a hit is re-marked as most recently used."""
        cache = self._informative_cache
        stats = cache.get(mask)
        if stats is not None and self._informative_cache_size is not None:
            del cache[mask]  # move to the end: dicts iterate oldest-first
            cache[mask] = stats
        return stats

    def _cache_put(
        self, mask: int, stats: tuple[Sequence[int], Sequence[int]]
    ) -> None:
        cache = self._informative_cache
        cap = self._informative_cache_size
        if cap is not None:
            while len(cache) >= max(cap, 1):
                del cache[next(iter(cache))]
        cache[mask] = stats

    def is_cached(self, mask: int) -> bool:
        """Whether ``mask``'s informative stats are cached (no LRU touch)."""
        return mask in self._informative_cache

    def release_cached(self, mask: int) -> None:
        """Drop one mask's cached stats (a finished session's footprint)."""
        self._informative_cache.pop(mask, None)

    def cached_mask_count(self) -> int:
        """Number of sub-collection masks currently held in the cache."""
        return len(self._informative_cache)

    def clear_caches(self) -> None:
        """Drop the informative-entity cache (frees memory after a run)."""
        self._informative_cache.clear()

    # ------------------------------------------------------------------ #
    # Candidate filtering (Algorithm 2, lines 2-4)
    # ------------------------------------------------------------------ #

    def supersets_of(self, initial: Iterable[Hashable]) -> int:
        """Mask of the sets that contain every entity in ``initial``.

        This is the candidate sub-collection ``CS`` seeded by the user's
        initial example set ``I``.  Labels unknown to the universe cannot be
        contained in any set, so they yield the empty mask.
        """
        mask = self._full_mask
        for label in initial:
            if label not in self.universe:
                return 0
            mask &= self._entity_masks.get(self.universe.id_of(label), 0)
            if mask == 0:
                return 0
        return mask

    def supersets_of_ids(self, initial_ids: Iterable[int]) -> int:
        """Like :meth:`supersets_of` but over already-interned entity ids."""
        mask = self._full_mask
        for eid in initial_ids:
            mask &= self._entity_masks.get(eid, 0)
            if mask == 0:
                return 0
        return mask

    def find(self, labels: Iterable[Hashable]) -> int | None:
        """Index of the set exactly equal to ``labels``, or ``None`` (O(1))."""
        try:
            fs = frozenset(self.universe.id_of(label) for label in labels)
        except KeyError:
            return None
        return self._index_by_set.get(fs)
