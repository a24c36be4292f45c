"""Conflict-driven lemma store for the deduction engine.

When a deduction query is UNSAT, the incremental solver names the assumptions
its refutation used (the unsat core).  Each hypothesis-dependent assumption
corresponds to one *descriptor* -- a structural fact about the hypothesis,
keyed by the node's path from the root:

* ``("spec", path, component)`` -- the component applied at *path*;
* ``("bind", path, index)`` -- the input binding of the table hole at *path*
  (``index is None`` for the unbound-hole disjunction over all inputs);
* ``("eval", path, attributes)`` -- the abstraction of the concrete table a
  complete subterm at *path* evaluated to.

A *lemma* is the set of descriptors mined from one core.  Because the
formulas behind the descriptors depend on the hypothesis only through node
*identity* (the ``n<id>`` variable families), and node ids map one-to-one to
tree paths, any other hypothesis exhibiting the same descriptors asserts a
renamed copy of the same core -- a subset of its own deduction query -- and
is therefore UNSAT too.  The synthesizer can thus reject whole families of
sibling hypotheses with a subset test, never touching the solver.

Lemmas are only valid for the synthesis problem they were mined from (the
cores also rest on the example formula), so the store lives and dies with one
:class:`~repro.core.deduction.DeductionEngine`; parallel workers get a fresh
store per task, keeping parallel runs bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

#: One structural fact about a hypothesis (see the module docstring).
Descriptor = Tuple
#: A mined blocking lemma: a set of descriptors that is jointly infeasible.
Lemma = FrozenSet[Descriptor]


def _sort_key(descriptor: Descriptor) -> Tuple[str, Tuple, str]:
    """A total order over descriptors (payloads are mixed types)."""
    kind, path = descriptor[0], descriptor[1]
    return (kind, tuple(path), repr(descriptor[2:]))


def encode_descriptor(descriptor: Descriptor) -> list:
    """A JSON-able encoding of one descriptor (tuples become lists)."""
    kind, path = descriptor[0], descriptor[1]
    if kind == "eval":
        return [kind, list(path), list(descriptor[2])]
    # "spec" carries a component name, "bind" an input index or None --
    # both JSON-native already.
    return [kind, list(path), descriptor[2]]


def decode_descriptor(encoded) -> Descriptor:
    """Invert :func:`encode_descriptor` back to the in-memory tuple form."""
    kind, path, payload = encoded
    if kind == "eval":
        return (kind, tuple(path), tuple(int(value) for value in payload))
    if kind == "spec":
        return (kind, tuple(path), str(payload))
    if kind == "bind":
        return (kind, tuple(path), None if payload is None else int(payload))
    raise ValueError(f"unknown descriptor kind {kind!r}")


@dataclass
class LemmaStoreStats:
    """Counters describing one lemma store's activity."""

    learned: int = 0
    #: Lemmas not stored because an existing lemma already subsumed them.
    subsumed: int = 0
    #: Stored lemmas later removed because a more general lemma arrived.
    retired: int = 0
    #: Lemmas rejected because the store was full.
    overflow: int = 0
    lookups: int = 0
    #: Lookups answered "blocked" (each one saved an SMT query).
    prunes: int = 0


@dataclass
class LemmaStore:
    """Blocking lemmas mined from deduction unsat cores.

    Each lemma is indexed under one *designated* descriptor (its smallest
    member under a canonical order).  A lookup walks the hypothesis's own
    descriptors and runs the subset test only for lemmas designated by one of
    them, so every stored lemma is examined at most once per query.
    """

    maxsize: Optional[int] = 256
    stats: LemmaStoreStats = field(default_factory=LemmaStoreStats)

    def __post_init__(self) -> None:
        self._by_key: Dict[Descriptor, List[Lemma]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def lemmas(self) -> List[Lemma]:
        """Every stored lemma (mainly for tests and reporting)."""
        return [lemma for bucket in self._by_key.values() for lemma in bucket]

    def clear(self) -> None:
        """Drop every lemma (counters are left untouched)."""
        self._by_key.clear()
        self._count = 0

    # ------------------------------------------------------------------
    def add(self, descriptors) -> bool:
        """Learn a lemma; returns False when it was subsumed or overflowed.

        A new lemma that is a *superset* of a stored one adds nothing (the
        stored lemma already blocks everything the new one would).  A new
        lemma that is a *subset* of stored ones is strictly more general and
        replaces them.
        """
        lemma: Lemma = frozenset(descriptors)
        if not lemma:
            raise ValueError("refusing the empty lemma (it would block everything)")
        for stored in self.lemmas():
            if stored <= lemma:
                self.stats.subsumed += 1
                return False
        retired = self._remove_supersets(lemma)
        self.stats.retired += retired
        if self.maxsize is not None and self._count >= self.maxsize:
            self.stats.overflow += 1
            return False
        key = min(lemma, key=_sort_key)
        self._by_key.setdefault(key, []).append(lemma)
        self._count += 1
        self.stats.learned += 1
        return True

    def _remove_supersets(self, lemma: Lemma) -> int:
        removed = 0
        for key in list(self._by_key):
            bucket = self._by_key[key]
            kept = [stored for stored in bucket if not lemma <= stored]
            if len(kept) != len(bucket):
                removed += len(bucket) - len(kept)
                if kept:
                    self._by_key[key] = kept
                else:
                    del self._by_key[key]
        self._count -= removed
        return removed

    # ------------------------------------------------------------------
    def export_entries(self) -> List[list]:
        """Every stored lemma as a JSON-able entry (sorted, deterministic).

        Transport format for the warm-start knowledge base: each lemma is a
        sorted list of encoded descriptors (see :func:`encode_descriptor`).
        """
        entries = [
            sorted(
                (encode_descriptor(descriptor) for descriptor in lemma),
                key=lambda encoded: repr(encoded),
            )
            for lemma in self.lemmas()
        ]
        entries.sort(key=lambda entry: repr(entry))
        return entries

    def import_entries(self, entries) -> int:
        """Re-learn previously exported lemmas; returns how many were stored.

        Only valid for the *same* synthesis task the entries were exported
        from (lemmas rest on the example formula) -- the knowledge base
        enforces this by keying exports on the task's table fingerprints.
        Malformed entries are skipped, not raised: a KB written by a newer
        schema must degrade to a cold start.
        """
        imported = 0
        for entry in entries:
            try:
                descriptors = [decode_descriptor(encoded) for encoded in entry]
            except (ValueError, TypeError, IndexError):
                continue
            if descriptors and self.add(descriptors):
                imported += 1
        return imported

    # ------------------------------------------------------------------
    def blocks(self, descriptors: FrozenSet[Descriptor]) -> bool:
        """True when some stored lemma is a subset of *descriptors*."""
        self.stats.lookups += 1
        for descriptor in descriptors:
            for lemma in self._by_key.get(descriptor, ()):
                if lemma <= descriptors:
                    self.stats.prunes += 1
                    return True
        return False
