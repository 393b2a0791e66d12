"""The LFTA's direct-mapped aggregation hash table (paper Section 3).

"An LFTA can perform aggregation, but it uses a small direct-mapped
hash table.  Hash table collisions result in a tuple computed from the
ejected group being written to the output stream.  Because of temporal
locality, aggregation even with a small hash table is effective in
early data reduction."

The table is an array of slots; each group hashes to exactly one slot
and a collision *ejects* the resident group as a partial aggregate.
Benchmark E4 sweeps the table size against workload locality.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.determinism import stable_hash


class DirectMappedTable:
    """A fixed-size direct-mapped map from group keys to states.

    Slots are placed with :func:`repro.determinism.stable_hash`, not
    builtin ``hash()``: slot choice decides which groups collide and
    get ejected, so with a process-randomized hash two runs of the same
    workload emit different partials (and different E4 numbers).  Group
    keys are flat tuples of primitives, which ``stable_hash`` encodes
    with a formatter cached per key-type signature; it feeds crc32 the
    bytes of the general recursive encoding, so the fast path moves no
    slot, ejection, or snapshot byte.
    """

    __slots__ = ("size", "_slots", "occupied", "collisions", "lookups")

    def __init__(self, size: int = 4096) -> None:
        if size <= 0:
            raise ValueError("table size must be positive")
        self.size = size
        self._slots: List[Optional[Tuple[Any, Any]]] = [None] * size
        self.occupied = 0
        self.collisions = 0
        self.lookups = 0

    def find(self, key: Any) -> Optional[Any]:
        """The state for ``key`` if resident, else None."""
        self.lookups += 1
        entry = self._slots[stable_hash(key) % self.size]
        if entry is not None and entry[0] == key:
            return entry[1]
        return None

    def insert(self, key: Any, state: Any) -> Optional[Tuple[Any, Any]]:
        """Install ``key``; returns the ejected ``(key, state)`` if any."""
        self.lookups += 1
        index = stable_hash(key) % self.size
        ejected = self._slots[index]
        if ejected is not None and ejected[0] == key:
            self._slots[index] = (key, state)
            return None
        self._slots[index] = (key, state)
        if ejected is None:
            self.occupied += 1
        else:
            self.collisions += 1
        return ejected

    def upsert(self, key: Any, make_state: Callable[[], Any]
               ) -> Tuple[Any, Optional[Tuple[Any, Any]]]:
        """Find-or-create the state for ``key``.

        Returns ``(state, ejected)`` where ``ejected`` is the group the
        new key displaced (or None).
        """
        self.lookups += 1
        index = stable_hash(key) % self.size
        entry = self._slots[index]
        if entry is not None and entry[0] == key:
            return entry[1], None
        state = make_state()
        self._slots[index] = (key, state)
        if entry is None:
            self.occupied += 1
        else:
            self.collisions += 1
        return state, entry

    def upsert_slices(self, keys: Iterable[Any],
                      make_state: Callable[[], Any]
                      ) -> Iterator[Tuple[Any, Optional[Tuple[Any, Any]]]]:
        """Upsert a block of group keys -- the surviving keys of one
        block on the LFTA's batched paths (DESIGN section 14).

        A generator yielding ``(state, ejected)`` per key, in order.
        Consumption drives the table mutation: each key's lookup,
        insertion, and accounting happen exactly when its result is
        pulled, so a consumer that runs its window flush before each
        pull and emits each ejection before the next observes the same
        table trajectory as per-row :meth:`upsert` calls.
        """
        size = self.size
        for key in keys:
            # self._slots is re-read per key: evict_all and
            # restore_state replace the slot array, and may run between
            # pulls; this generator must not mutate a stale one.
            self.lookups += 1
            index = stable_hash(key) % size
            slots = self._slots
            entry = slots[index]
            if entry is not None and entry[0] == key:
                yield entry[1], None
                continue
            state = make_state()
            slots[index] = (key, state)
            if entry is None:
                self.occupied += 1
            else:
                self.collisions += 1
            yield state, entry

    def evict_all(self) -> List[Tuple[Any, Any]]:
        """Remove and return every resident group (epoch flush)."""
        groups = [entry for entry in self._slots if entry is not None]
        self._slots = [None] * self.size
        self.occupied = 0
        return groups

    def evict_if(self, should_evict: Callable[[Any], bool]) -> List[Tuple[Any, Any]]:
        """Remove and return groups whose *key* satisfies the predicate."""
        evicted = []
        for index, entry in enumerate(self._slots):
            if entry is not None and should_evict(entry[0]):
                evicted.append(entry)
                self._slots[index] = None
                self.occupied -= 1
        return evicted

    # -- checkpoint/restore (DESIGN section 11) --------------------------
    def snapshot_state(self) -> dict:
        """Table contents and accounting as snapshot primitives.

        Slots are stored sparsely (``{index: entry}``): the table is
        direct-mapped and mostly empty, and replication re-encodes it
        every delta frame, so empty slots must cost nothing on the
        wire.  The caller encodes the result immediately (slot entries
        alias live group-state lists until then).
        """
        return {
            "size": self.size,
            "slots": {index: entry
                      for index, entry in enumerate(self._slots)
                      if entry is not None},
            "occupied": self.occupied,
            "collisions": self.collisions,
            "lookups": self.lookups,
        }

    def restore_state(self, state: dict) -> None:
        if state["size"] != self.size:
            raise ValueError(
                f"snapshot is for a table of size {state['size']}, "
                f"this table has size {self.size}")
        self._slots = [None] * self.size
        for index, entry in state["slots"].items():
            self._slots[index] = entry
        self.occupied = state["occupied"]
        self.collisions = state["collisions"]
        self.lookups = state["lookups"]

    def __len__(self) -> int:
        return self.occupied

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        return (entry for entry in self._slots if entry is not None)

    @property
    def collision_rate(self) -> float:
        """Collisions per lookup; high values mean poor early reduction."""
        return self.collisions / self.lookups if self.lookups else 0.0
