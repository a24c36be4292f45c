"""Disk-backed cross-run knowledge base (the warm-start cache tier).

Every synthesis run re-derives facts that content-hash fingerprints make
stable *across processes*: concrete component executions, Spec-2 attribute
vectors and mined blocking lemmas.  :class:`KnowledgeBase` persists those facts in one sqlite
file so a later run -- another process, another day, another replica serving
the same traffic -- starts warm instead of cold.  This is the memoized-facts
pattern of cloud-scale interprocedural analysis applied to Morpheus-style
synthesis: facts keyed by content hashes survive the process that computed
them, and reusing them yields the same verdicts as recomputing.

Keying and invalidation
-----------------------

Every fact is addressed by a BLAKE2b digest over

``(schema version, KB salt, library version hash, fact-specific tokens)``

where the fact-specific tokens are content hashes (table fingerprints) plus
the structural identity of the fact (component name, argument values, spec
level, ...).  The **library version hash**
(:meth:`repro.core.component.ComponentLibrary.version_hash`) covers every
component's name, arity and parameter signature: changing a component's
definition changes the hash, so facts computed under the old library are
simply never *found* again -- stale entries are ignored, not silently
replayed, and eventually fall out through LRU eviction.

Safety tiers
------------

* **Executions and attribute vectors** are pure functions of table content
  (plus, for attribute vectors, the example baseline).  Reusing them changes
  *where* a table comes from, never what it contains, so a warm run's search
  trajectory -- programs, verdicts and every search counter -- is
  byte-identical to a cold run.  These are consulted whenever a KB is
  attached.
* **Lemmas** rest on one example's formula: they are exported per task key
  (input/output fingerprints + spec level) and re-imported only for the
  *identical* task, and only when the KB was opened with
  ``reuse_lemmas=True``.  Imported lemmas are sound (they block only
  infeasible hypotheses, so synthesized programs are unchanged) but they
  shift work between the lemma store and the SMT tier, so the
  counter-differential harness keeps them off.
* **OE representatives** are not persisted: a fresh search that merged a
  state against a previous run's representative would skip exploring it --
  the previous run's solutions are not in this run's frontier, so the merge
  argument does not apply.  The ``oe`` scope of :class:`KBView` is no
  longer written by any search; it stays only because the benchmark's
  tracer (``perfbench/tracer.py``) wraps its accessors by name.

Concurrency: one :class:`KnowledgeBase` may be shared by many
:class:`~repro.engine.context.TaskContext`\\ s (threads) -- all sqlite access
is serialised on an internal lock -- and many *processes* may open the same
file (WAL journaling + a busy timeout).  The KB only ever affects how much
work a search performs, never its outcome, so ``--jobs N`` determinism is
preserved no matter how entries race in.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from hashlib import blake2b
from typing import Optional, Tuple

from ..dataframe.cells import CellType
from ..dataframe.profiling import ExecutionStats, install_execution_stats
from ..dataframe.table import Table

#: Bumping this invalidates every existing KB file's entries (the digest
#: prefix changes), e.g. when the serialisation format evolves.
SCHEMA_VERSION = 1

#: Default size cap (rows) before LRU-by-last-used eviction kicks in.
DEFAULT_MAX_ENTRIES = 200_000

#: Upper bounds on the per-task lemma / ``oe`` blobs (entries, not bytes).
MAX_LEMMAS_PER_TASK = 512
MAX_OE_PER_TASK = 8192


@dataclass
class KBStats:
    """Hit/miss/store/eviction counters of one :class:`KnowledgeBase`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the KB (0.0 when never probed)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }


# ----------------------------------------------------------------------
# Canonical token hashing (the key side of every fact)
# ----------------------------------------------------------------------
def _feed(hasher, token) -> None:
    """Feed one key token into *hasher* with an unambiguous type tag."""
    if token is None:
        hasher.update(b"\x00N")
    elif isinstance(token, bytes):
        hasher.update(b"\x00B" + len(token).to_bytes(4, "big"))
        hasher.update(token)
    elif isinstance(token, str):
        data = token.encode("utf-8")
        hasher.update(b"\x00S" + len(data).to_bytes(4, "big"))
        hasher.update(data)
    elif isinstance(token, bool):
        hasher.update(b"\x00b" + (b"1" if token else b"0"))
    elif isinstance(token, int):
        data = str(token).encode("ascii")
        hasher.update(b"\x00I" + len(data).to_bytes(4, "big"))
        hasher.update(data)
    elif isinstance(token, float):
        data = repr(token).encode("ascii")
        hasher.update(b"\x00F" + len(data).to_bytes(4, "big"))
        hasher.update(data)
    elif isinstance(token, (tuple, list)):
        hasher.update(b"\x00T" + len(token).to_bytes(4, "big"))
        for item in token:
            _feed(hasher, item)
        hasher.update(b"\x00t")
    else:
        # Value arguments (frozen dataclasses) and enums: stable repr.
        data = repr(token).encode("utf-8")
        hasher.update(b"\x00R" + len(data).to_bytes(4, "big"))
        hasher.update(data)


def digest_tokens(*tokens) -> bytes:
    """A 16-byte BLAKE2b digest over canonically encoded *tokens*."""
    hasher = blake2b(digest_size=16)
    for token in tokens:
        _feed(hasher, token)
    return hasher.digest()


# ----------------------------------------------------------------------
# Table / failure (de)serialisation (the value side of execution facts)
# ----------------------------------------------------------------------
def _serialize_result(result) -> bytes:
    """Encode an execution result (table or ``EvaluationFailure``) as JSON."""
    from ..core.hypothesis import EvaluationFailure

    if isinstance(result, EvaluationFailure):
        payload = {"f": str(result)}
    else:
        payload = {
            "t": {
                "columns": list(result.columns),
                "col_types": [col_type.value for col_type in result.col_types],
                "rows": [list(row) for row in result.rows],
                "group_cols": list(result.group_cols),
            }
        }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _deserialize_result(blob: bytes):
    """Rebuild a table (or failure) from :func:`_serialize_result` output.

    Table construction normally feeds the installed execution counters
    (``tables_built``, ``cells_interned``); a KB restore must not -- a cold
    run builds the table *inside* ``component.execute`` under live counters,
    and the restore replaces that execution wholesale, so restored work is
    counted by the KB's own stats instead.  The cells are still interned
    into the *installed* pool (exactly the values the skipped execution
    would have interned), only the counting is suppressed.
    """
    from ..core.hypothesis import EvaluationFailure

    payload = json.loads(blob.decode("utf-8"))
    if "f" in payload:
        return EvaluationFailure(payload["f"])
    spec = payload["t"]
    scratch = install_execution_stats(ExecutionStats())
    try:
        table = Table(
            spec["columns"],
            [tuple(row) for row in spec["rows"]],
            col_types=[CellType(value) for value in spec["col_types"]],
            group_cols=tuple(spec["group_cols"]),
        )
    finally:
        install_execution_stats(scratch)
    return table


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class KnowledgeBase:
    """A sqlite-backed, LRU-evicted store of cross-run synthesis facts.

    One row per fact: ``(scope, key digest) -> value blob`` plus a
    ``last_used`` stamp refreshed on every hit.  ``max_entries`` caps the
    table; overflow evicts the least-recently-used rows.  All access is
    thread-safe (one internal lock); the file itself may be shared across
    processes (WAL + busy timeout).

    *version_salt* is mixed into every key digest -- tests use it to
    simulate a library/version bump without rebuilding component objects.
    *reuse_lemmas* opts searches into importing previously mined lemmas for
    byte-identical task keys (see the module docstring's safety tiers).
    """

    def __init__(
        self,
        path: str,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        version_salt: bytes = b"",
        reuse_lemmas: bool = False,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = path
        self.max_entries = max_entries
        self.version_salt = version_salt
        self.reuse_lemmas = reuse_lemmas
        self.stats = KBStats()
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            path, check_same_thread=False, isolation_level=None, timeout=30.0
        )
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS facts ("
                " scope TEXT NOT NULL,"
                " key BLOB NOT NULL,"
                " value BLOB NOT NULL,"
                " last_used REAL NOT NULL,"
                " PRIMARY KEY (scope, key))"
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS facts_lru ON facts (last_used)"
            )
            self._count = self._conn.execute(
                "SELECT COUNT(*) FROM facts"
            ).fetchone()[0]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return self._count

    def close(self) -> None:
        """Close the underlying connection (the object is dead afterwards)."""
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    def get(self, scope: str, key: bytes) -> Optional[bytes]:
        """The stored blob for ``(scope, key)``, refreshing its LRU stamp."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM facts WHERE scope = ? AND key = ?", (scope, key)
            ).fetchone()
            if row is None:
                self.stats.misses += 1
                return None
            self._conn.execute(
                "UPDATE facts SET last_used = ? WHERE scope = ? AND key = ?",
                (time.time(), scope, key),
            )
            self.stats.hits += 1
            return row[0]

    def put(self, scope: str, key: bytes, value: bytes) -> None:
        """Insert or refresh a fact, evicting LRU rows past ``max_entries``."""
        with self._lock:
            now = time.time()
            updated = self._conn.execute(
                "UPDATE facts SET value = ?, last_used = ?"
                " WHERE scope = ? AND key = ?",
                (value, now, scope, key),
            ).rowcount
            if not updated:
                # ON CONFLICT covers the cross-process race between the
                # update miss above and this insert.
                self._conn.execute(
                    "INSERT INTO facts (scope, key, value, last_used)"
                    " VALUES (?, ?, ?, ?)"
                    " ON CONFLICT (scope, key) DO UPDATE"
                    " SET value = excluded.value, last_used = excluded.last_used",
                    (scope, key, value, now),
                )
                self._count += 1
            self.stats.stores += 1
            if self._count > self.max_entries:
                # Writers in other processes make the tracked count an
                # undercount; the true size is re-read before evicting.
                self._count = self._conn.execute(
                    "SELECT COUNT(*) FROM facts"
                ).fetchone()[0]
                excess = self._count - self.max_entries
                if excess > 0:
                    self._conn.execute(
                        "DELETE FROM facts WHERE rowid IN ("
                        " SELECT rowid FROM facts ORDER BY last_used ASC LIMIT ?)",
                        (excess,),
                    )
                    self.stats.evictions += excess
                    self._count -= excess

    # ------------------------------------------------------------------
    def view(self, library_hash: bytes) -> "KBView":
        """A handle binding this KB to one component library's version hash."""
        return KBView(self, library_hash)


class KBView:
    """A :class:`KnowledgeBase` scoped to one library version.

    This is what the search stack holds: every digest it computes mixes in
    the schema version, the KB salt and the library version hash, so facts
    written under a different library (or salt) are never found.
    """

    __slots__ = ("kb", "_prefix")

    def __init__(self, kb: KnowledgeBase, library_hash: bytes) -> None:
        self.kb = kb
        self._prefix = digest_tokens(SCHEMA_VERSION, kb.version_salt, library_hash)

    @property
    def reuse_lemmas(self) -> bool:
        return self.kb.reuse_lemmas

    def _digest(self, *tokens) -> bytes:
        return digest_tokens(self._prefix, *tokens)

    # -- execution facts ----------------------------------------------
    def get_execution(self, key: tuple):
        """The persisted result for one execution-cache key, or ``None``."""
        blob = self.kb.get("exec", self._digest(*key))
        if blob is None:
            return None
        try:
            return _deserialize_result(blob)
        except (ValueError, KeyError, TypeError):
            # A corrupt/legacy row behaves like a miss (and will be
            # overwritten by the write-back after re-execution).
            return None

    def put_execution(self, key: tuple, result) -> None:
        """Persist one execution result (table or failure)."""
        self.kb.put("exec", self._digest(*key), _serialize_result(result))

    # -- attribute vectors --------------------------------------------
    def get_attributes(
        self, fingerprint: bytes, level, baseline_digest: bytes
    ) -> Optional[Tuple[int, int, int, int, int]]:
        """A persisted ``(row, col, group, newCols, newVals)`` vector."""
        blob = self.kb.get(
            "attr", self._digest(fingerprint, level.value, baseline_digest)
        )
        if blob is None:
            return None
        try:
            vector = json.loads(blob.decode("utf-8"))
            if isinstance(vector, list) and len(vector) == 5:
                return tuple(int(item) for item in vector)
        except (ValueError, TypeError):
            pass
        return None

    def put_attributes(
        self, fingerprint: bytes, level, baseline_digest: bytes, attributes
    ) -> None:
        self.kb.put(
            "attr",
            self._digest(fingerprint, level.value, baseline_digest),
            json.dumps(list(attributes)).encode("utf-8"),
        )

    # -- per-task fact blobs (lemmas, the unused ``oe`` scope) ---------
    def task_key(self, inputs, output, level) -> bytes:
        """The fingerprint-derived identity of one synthesis task."""
        return self._digest(
            "task",
            tuple(table.fingerprint() for table in inputs),
            output.fingerprint(),
            level.value,
        )

    def get_lemmas(self, task_key: bytes) -> list:
        """Previously mined lemma entries for this exact task (may be [])."""
        return self._get_json_list("lemmas", task_key)

    def put_lemmas(self, task_key: bytes, entries: list) -> None:
        """Merge mined lemma entries into the task's stored set."""
        self._merge_json_list("lemmas", task_key, entries, MAX_LEMMAS_PER_TASK)

    def get_oe_entries(self, task_key: bytes) -> list:
        """Entries stored under the task's ``oe`` scope (no search writes it)."""
        return self._get_json_list("oe", task_key)

    def put_oe_entries(self, task_key: bytes, entries: list) -> None:
        """Merge entries into the task's ``oe`` scope (no search calls this)."""
        self._merge_json_list("oe", task_key, entries, MAX_OE_PER_TASK)

    # ------------------------------------------------------------------
    def _get_json_list(self, scope: str, key: bytes) -> list:
        blob = self.kb.get(scope, key)
        if blob is None:
            return []
        try:
            payload = json.loads(blob.decode("utf-8"))
            return payload if isinstance(payload, list) else []
        except ValueError:
            return []

    def _merge_json_list(self, scope: str, key: bytes, entries: list, cap: int) -> None:
        if not entries:
            return
        existing = self._get_json_list(scope, key)
        seen = {json.dumps(entry, sort_keys=True) for entry in existing}
        merged = list(existing)
        for entry in entries:
            marker = json.dumps(entry, sort_keys=True)
            if marker not in seen:
                seen.add(marker)
                merged.append(entry)
        self.kb.put(scope, key, json.dumps(merged[:cap]).encode("utf-8"))


# ----------------------------------------------------------------------
# The installed per-task handle
# ----------------------------------------------------------------------
_ACTIVE: Optional[KnowledgeBase] = None


def install_kb(kb: Optional[KnowledgeBase]) -> Optional[KnowledgeBase]:
    """Swap the active knowledge base; returns the previous one.

    Mirrors ``install_intern_pool``/``install_execution_stats``: a
    :class:`~repro.engine.context.TaskContext` installs its handle while
    active, so kernels constructed inside the context pick it up without
    any plumbing through the call stack.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = kb
    return previous


def current_kb() -> Optional[KnowledgeBase]:
    """The active knowledge base (``None`` when warm-start is off)."""
    return _ACTIVE


def set_default_kb(kb: Optional[KnowledgeBase]) -> None:
    """Set the process-default KB (inherited by new :class:`TaskContext`\\ s)."""
    install_kb(kb)


def baseline_digest(inputs) -> bytes:
    """The identity of an example baseline (order-independent: it is a union)."""
    return digest_tokens(
        "baseline", tuple(sorted(table.fingerprint() for table in inputs))
    )
