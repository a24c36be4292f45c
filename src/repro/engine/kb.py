"""Disk-backed cross-run knowledge base (the warm-start cache tier).

Every synthesis run re-derives facts that content-hash fingerprints make
stable *across processes*: concrete component executions, Spec-2
attribute vectors and the deduction verdicts computed from them.
:class:`KnowledgeBase` persists those facts in one sqlite file so a later
run -- another process, another day, another replica serving the same
traffic -- starts warm instead of cold.  This is the memoized-facts pattern
of cloud-scale interprocedural analysis applied to Morpheus-style
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
component's name, arity, parameter signature and the identity (module and
qualified name) of its executor, spec and transfer: a library that swaps
any of them in changes the hash, so facts computed under the old library
are simply never *found* again -- stale entries are ignored, not silently
replayed, and eventually fall out through LRU eviction.  Editing the *body*
of a built-in executor, spec or transfer keeps every name and so needs a
:data:`SCHEMA_VERSION` bump.

Safety tiers
------------

* **Executions and attribute vectors** are pure functions of table content
  (plus, for attribute vectors, the example baseline).  Reusing them changes
  *where* a table comes from, never what it contains, so a warm run's search
  trajectory -- programs, verdicts and every search counter -- is
  byte-identical to a cold run.  These are consulted whenever a KB is
  attached.
* **Deduction verdicts** are ``(feasible, tier)`` facts keyed by the
  example (input fingerprints *in order* -- a binding names an input by
  position -- plus the output fingerprint) and the in-process verdict
  memo's key.  A verdict fact is sound exactly when that memo is: both
  assume the query is a function of the key.  A hit replays the deciding
  tier's bookkeeping (``prescreen_decided``, or ``prescreen_fallback`` and
  ``smt_calls``), so the search and its counters match a cold run.  A check
  the deadline cut short is never written.
* **OE representatives** are not persisted: a fresh search that merged a
  state against a previous run's representative would skip exploring it --
  the previous run's solutions are not in this run's frontier, so the merge
  argument does not apply.
* The task-scoped ``lemmas`` and ``oe`` scopes of :class:`KBView` are
  therefore written by no search; their accessors stay only because the
  benchmark's tracer (``perfbench/tracer.py``) wraps them by name.

Concurrency: one :class:`KnowledgeBase` may be shared by many sessions
(threads) -- its in-process tier, pending writes and sqlite connection are
guarded by one internal lock, and tier hits hand every session the same
immutable table or never-raised failure -- and many *processes* may open the same file (WAL
journaling + a busy timeout).  Writes are behind: a process's facts reach
the file when a batch fills, when a search finishes, and on ``close()`` or
``len()``; hit stamps wait for the next of those that writes a fact, or
for ``close()``/``len()``.  A handle reads the rows that were on disk when
it opened plus the facts it wrote itself: its key index answers any other
probe as a miss without asking sqlite.  So a process opened later sees
everything flushed before it opened, while a handle already open does not
see facts another process flushes after that.  The KB only ever affects
how much work a search performs, never its outcome, so results do not
depend on how entries race in.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Optional, Tuple

from ..dataframe.cells import CellType
from ..dataframe.profiling import ExecutionStats, install_execution_stats
from ..dataframe.table import Table

#: Bumping this invalidates every existing KB file's entries (the digest
#: prefix changes), e.g. when the serialisation format or the key encoding
#: evolves, or when the body of a built-in executor, spec or transfer is
#: edited (the library version hash sees only their names).
SCHEMA_VERSION = 3

#: Default size cap (rows) before LRU-by-last-used eviction kicks in.
DEFAULT_MAX_ENTRIES = 200_000

#: Pending new facts that trigger a flush (one transaction).
FLUSH_BATCH = 1024

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
    #: ``hits`` split by scope (``exec``, ``attr``, ``verdict``, ...).
    scope_hits: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the KB (0.0 when never probed)."""
        return self.hits / self.lookups if self.lookups else 0.0


# ----------------------------------------------------------------------
# Canonical token hashing (the key side of every fact)
# ----------------------------------------------------------------------
def digest_tokens(*tokens) -> bytes:
    """A 16-byte BLAKE2b digest over the ``repr`` of *tokens*.

    Key tokens are ``None``, bools, ints, floats, strings, bytes, tuples of
    those, and frozen value dataclasses: all have a deterministic ``repr``
    that tells the types apart (``1`` / ``1.0`` / ``True`` / ``'1'`` /
    ``b'1'``) and does not depend on the hash seed, so the digest is the
    same in every process.
    """
    return blake2b(repr(tokens).encode("utf-8"), digest_size=16).digest()


# ----------------------------------------------------------------------
# Table / failure (de)serialisation (the value side of execution facts)
# ----------------------------------------------------------------------
def _serialize_result(result) -> bytes:
    """Encode an execution result (table or ``EvaluationFailure``) as JSON.

    A table is written column-wise, its shared column vectors as they are:
    reading ``rows`` would build (and cache on the table) a row tuple per
    row.  ``n_rows`` is explicit because a table with no columns has rows
    no vector can carry.
    """
    if isinstance(result, Table):
        payload = {
            "t": {
                "columns": result.columns,
                "col_types": [col_type.value for col_type in result.col_types],
                "vectors": [result.column_values(name) for name in result.columns],
                "n_rows": result.n_rows,
                "group_cols": result.group_cols,
            }
        }
    else:
        payload = {"f": str(result)}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _deserialize_result(blob: bytes):
    """Rebuild a table (or failure) from :func:`_serialize_result` output.

    Table construction normally feeds the installed execution counters
    (``tables_built``, ``cells_interned``); a KB restore must not -- a cold
    run builds the table *inside* ``component.execute`` under live counters,
    and the restore replaces that execution wholesale, so restored work is
    counted by the KB's own stats instead.  The cells are still interned
    into the *installed* pool (the new cells the skipped execution would
    have interned, and the cells it would have carried), only the counting
    is suppressed.
    """
    from ..core.hypothesis import EvaluationFailure

    payload = json.loads(blob.decode("utf-8"))
    if "f" in payload:
        return EvaluationFailure(payload["f"])
    spec = payload["t"]
    col_types = [CellType(value) for value in spec["col_types"]]
    group_cols = tuple(spec["group_cols"])
    scratch = install_execution_stats(ExecutionStats())
    try:
        if spec["vectors"]:
            table = Table.from_vectors(
                spec["columns"], spec["vectors"], col_types=col_types, group_cols=group_cols
            )
        else:
            # No vector carries the row count of a table without columns.
            table = Table(
                spec["columns"], [()] * spec["n_rows"], col_types=col_types, group_cols=group_cols
            )
    finally:
        install_execution_stats(scratch)
    return table


def _encode_json(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _decode_attributes(blob: bytes) -> Tuple[int, int, int, int, int]:
    vector = json.loads(blob.decode("utf-8"))
    if not (isinstance(vector, list) and len(vector) == 5):
        raise ValueError("not an attribute vector")
    return tuple(int(item) for item in vector)


#: The tiers a verdict fact may name (a deadline-cut check is never stored).
_VERDICT_TIERS = ("prescreen", "smt")


def _decode_verdict(blob: bytes) -> Tuple[bool, str]:
    verdict = json.loads(blob.decode("utf-8"))
    if not (
        isinstance(verdict, list)
        and len(verdict) == 2
        and isinstance(verdict[0], bool)
        and verdict[1] in _VERDICT_TIERS
    ):
        raise ValueError("not a deduction verdict")
    return verdict[0], verdict[1]


def _decode_json_list(blob: bytes) -> list:
    payload = json.loads(blob.decode("utf-8"))
    if not isinstance(payload, list):
        raise ValueError("not a JSON list")
    return payload


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
_INSERT = (
    "INSERT OR IGNORE INTO facts (scope, key, value, last_used) VALUES (?, ?, ?, ?)"
)
_UPDATE = "UPDATE facts SET value = ?, last_used = ? WHERE scope = ? AND key = ?"
_TOUCH = "UPDATE facts SET last_used = ? WHERE scope = ? AND key = ?"
_EVICT = (
    "DELETE FROM facts WHERE rowid IN ("
    " SELECT rowid FROM facts ORDER BY last_used ASC LIMIT ?)"
    " RETURNING scope, key"
)


class KnowledgeBase:
    """A sqlite-backed, LRU-evicted store of cross-run synthesis facts.

    One row per fact: ``(scope, key digest) -> value blob`` plus a
    ``last_used`` stamp refreshed on every hit.  ``max_entries`` caps the
    table; overflow evicts the least-recently-used rows.  All access is
    thread-safe (one internal lock); the file itself may be shared across
    processes (WAL + busy timeout).

    In front of sqlite sits an in-process tier: ``(scope, key)`` -> the
    *decoded* fact (a table, a failure, an attribute tuple), LRU-bounded by
    ``max_entries`` too.  A repeat probe returns the shared object with no
    SQL and no decoding.  Beside it sits the key index: the ``(scope,
    key)`` of every row on disk when the file was opened, plus the rows
    this handle has flushed since, minus those it evicted.  A probe runs a
    ``SELECT`` only for a slot in the index; any other miss costs no SQL.

    Writes are behind: puts wait in a pending map and reach disk in one
    transaction per :meth:`flush`, which runs when :data:`FLUSH_BATCH` new
    facts are pending, when a search finishes, and on :meth:`close` and
    ``len()``.  Hit stamps wait in memory (one per fact) and ride with the
    next of those transactions that writes a fact, or with :meth:`close`
    and ``len()``: a handle that only reads commits nothing until then.

    *version_salt* is mixed into every key digest -- tests use it to
    simulate a library/version bump without rebuilding component objects.
    """

    def __init__(
        self,
        path: str,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        version_salt: bytes = b"",
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = path
        self.max_entries = max_entries
        self.version_salt = version_salt
        self.stats = KBStats()
        self._lock = threading.Lock()
        #: (scope, key) -> decoded fact, least recently used first.
        self._tier: "OrderedDict[tuple, object]" = OrderedDict()
        #: Write-behind: blobs not yet on disk, and the ``last_used`` stamp
        #: of every fact put or hit since the last flush.
        self._blobs: dict = {}
        self._stamps: dict = {}
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
            #: (scope, key) of the rows on disk as this handle knows them.
            self._keys: set = set(self._conn.execute("SELECT scope, key FROM facts"))
            self._count = len(self._keys)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Rows in the file, after flushing this handle's pending facts and stamps."""
        with self._lock:
            self._flush(force=True)
            self._count = self._row_count()
            return self._count

    def entries(self) -> int:
        """The facts this handle knows of, with no write and no scan of the file.

        Rows counted at open (or by the last ``len()``), plus the rows this
        handle inserted, minus those it evicted, plus pending facts not yet
        on disk.
        """
        with self._lock:
            keys = self._keys
            return self._count + sum(1 for slot in self._blobs if slot not in keys)

    def flush(self) -> None:
        """Commit the pending facts and the hit stamps; with no fact pending, do nothing."""
        with self._lock:
            self._flush()

    def close(self) -> None:
        """Flush facts and stamps and close the connection (the object is dead afterwards)."""
        with self._lock:
            self._flush(force=True)
            self._conn.close()

    # -- the bytes API ---------------------------------------------------
    def get(self, scope: str, key: bytes) -> Optional[bytes]:
        """The stored blob for ``(scope, key)``, refreshing its LRU stamp."""
        slot = (scope, key)
        with self._lock:
            blob = self._read(slot)
            self._probed(slot, blob is not None)
            return blob

    def put(self, scope: str, key: bytes, value: bytes) -> None:
        """Insert or replace a fact's blob (its decoded entry is dropped)."""
        slot = (scope, key)
        with self._lock:
            self._tier.pop(slot, None)
            self._write(slot, value)

    # -- the decoded API -------------------------------------------------
    def lookup(self, scope: str, key: bytes, decode, probe: bool = True):
        """The decoded fact for ``(scope, key)``, or ``None``.

        A row *decode* rejects (``ValueError``, ``KeyError``, ``TypeError``:
        a corrupt or legacy blob) is a miss; the write-back after the fact
        is recomputed replaces it.  ``probe=False`` reads without counting
        a hit or miss and without refreshing the stamp.
        """
        slot = (scope, key)
        with self._lock:
            value = self._tier.get(slot)
            if value is not None:
                self._tier.move_to_end(slot)
            else:
                blob = self._read(slot)
                if blob is not None:
                    try:
                        value = decode(blob)
                    except (ValueError, KeyError, TypeError):
                        value = None
                    else:
                        self._remember(slot, value)
            if probe:
                self._probed(slot, value is not None)
            return value

    def store(self, scope: str, key: bytes, value, encode) -> None:
        """Record a decoded fact; ``encode(value)`` is the blob written."""
        blob = encode(value)
        slot = (scope, key)
        with self._lock:
            self._remember(slot, value)
            self._write(slot, blob)

    # -- internals (the lock is held) ----------------------------------
    def _row_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM facts").fetchone()[0]

    def _read(self, slot: tuple) -> Optional[bytes]:
        blob = self._blobs.get(slot)
        if blob is None and slot in self._keys:
            row = self._conn.execute(
                "SELECT value FROM facts WHERE scope = ? AND key = ?", slot
            ).fetchone()
            if row is None:
                # Another handle evicted it since this one opened.
                self._keys.discard(slot)
            else:
                blob = row[0]
        return blob

    def _remember(self, slot: tuple, value) -> None:
        tier = self._tier
        tier[slot] = value
        tier.move_to_end(slot)
        if len(tier) > self.max_entries:
            tier.popitem(last=False)

    def _probed(self, slot: tuple, hit: bool) -> None:
        if hit:
            stats = self.stats
            stats.hits += 1
            scope = slot[0]
            stats.scope_hits[scope] = stats.scope_hits.get(scope, 0) + 1
            self._stamps[slot] = time.time()
        else:
            self.stats.misses += 1

    def _write(self, slot: tuple, blob: bytes) -> None:
        self._blobs[slot] = blob
        self.stats.stores += 1
        self._stamps[slot] = time.time()
        if len(self._blobs) >= FLUSH_BATCH:
            self._flush()

    def _flush(self, force: bool = False) -> None:
        """One transaction: insert or update pending blobs, touch stamps, evict.

        Runs only when facts are pending, or with *force* when only hit
        stamps are.  Costs O(pending): new rows are counted by the ``INSERT
        OR IGNORE`` itself, so the file is never re-counted here.  Rows
        other processes add are counted when the KB is opened and on
        ``len()``.
        """
        if not (self._blobs or force and self._stamps):
            return
        stamps = self._stamps
        writes = [
            (scope, key, blob, stamps[scope, key])
            for (scope, key), blob in self._blobs.items()
        ]
        touches = [
            (stamp, scope, key)
            for (scope, key), stamp in stamps.items()
            if (scope, key) not in self._blobs
        ]
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            inserted = conn.executemany(_INSERT, writes).rowcount if writes else 0
            if inserted < len(writes):
                # Some slots already had rows: overwrite them (re-writing the
                # rows just inserted is harmless and rare).
                conn.executemany(
                    _UPDATE, [(blob, stamp, scope, key) for scope, key, blob, stamp in writes]
                )
            if touches:
                conn.executemany(_TOUCH, touches)
            excess = self._count + inserted - self.max_entries
            evicted = conn.execute(_EVICT, (excess,)).fetchall() if excess > 0 else []
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        self._keys.update(self._blobs)
        self._blobs = {}
        self._stamps = {}
        self._count += inserted - len(evicted)
        self.stats.evictions += len(evicted)
        for scope, key in evicted:
            self._keys.discard((scope, key))
            self._tier.pop((scope, key), None)

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

    def _digest(self, *tokens) -> bytes:
        return digest_tokens(self._prefix, *tokens)

    # -- execution facts ----------------------------------------------
    def get_execution(self, key: tuple):
        """The persisted result for one execution-cache key, or ``None``."""
        return self.kb.lookup("exec", self._digest(*key), _deserialize_result)

    def put_execution(self, key: tuple, result) -> None:
        """Persist one execution result (table or failure)."""
        self.kb.store("exec", self._digest(*key), result, _serialize_result)

    # -- attribute vectors --------------------------------------------
    def get_attributes(
        self, fingerprint: bytes, level, baseline_digest: bytes
    ) -> Optional[Tuple[int, int, int, int, int]]:
        """A persisted ``(row, col, group, newCols, newVals)`` vector."""
        return self.kb.lookup(
            "attr",
            self._digest(fingerprint, level.value, baseline_digest),
            _decode_attributes,
        )

    def put_attributes(
        self, fingerprint: bytes, level, baseline_digest: bytes, attributes
    ) -> None:
        self.kb.store(
            "attr",
            self._digest(fingerprint, level.value, baseline_digest),
            tuple(attributes),
            _encode_json,
        )

    # -- deduction verdicts ------------------------------------------
    def get_verdict(self, example: bytes, key: tuple) -> Optional[Tuple[bool, str]]:
        """The persisted ``(feasible, tier)`` of one deduction query, or ``None``.

        *example* is :func:`example_digest` of the engine's example and
        *key* its verdict-memo key ``(level, partial evaluation, parts)``.
        """
        return self.kb.lookup("verdict", self._verdict_digest(example, key), _decode_verdict)

    def put_verdict(self, example: bytes, key: tuple, verdict: Tuple[bool, str]) -> None:
        """Persist the verdict the prescreen or the SMT tier decided."""
        self.kb.store(
            "verdict", self._verdict_digest(example, key), verdict, _encode_json
        )

    def _verdict_digest(self, example: bytes, key: tuple) -> bytes:
        level, partial_evaluation, parts = key
        return self._digest("verdict", example, level.value, partial_evaluation, parts)

    # -- per-task fact blobs: no search uses them; they stay because the
    # benchmark's tracer wraps get/put_lemmas and get/put_oe_entries --------
    def task_key(self, inputs, output, level) -> bytes:
        """The fingerprint-derived identity of one synthesis task."""
        return self._digest(
            "task",
            tuple(table.fingerprint() for table in inputs),
            output.fingerprint(),
            level.value,
        )

    def get_lemmas(self, task_key: bytes) -> list:
        """Entries stored under the task's ``lemmas`` scope (no search reads it)."""
        return self._get_json_list("lemmas", task_key)

    def put_lemmas(self, task_key: bytes, entries: list) -> None:
        """Merge entries into the task's ``lemmas`` scope (no search calls this)."""
        self._merge_json_list("lemmas", task_key, entries, MAX_LEMMAS_PER_TASK)

    def get_oe_entries(self, task_key: bytes) -> list:
        """Entries stored under the task's ``oe`` scope (no search writes it)."""
        return self._get_json_list("oe", task_key)

    def put_oe_entries(self, task_key: bytes, entries: list) -> None:
        """Merge entries into the task's ``oe`` scope (no search calls this)."""
        self._merge_json_list("oe", task_key, entries, MAX_OE_PER_TASK)

    # ------------------------------------------------------------------
    def _get_json_list(self, scope: str, key: bytes) -> list:
        return list(self.kb.lookup(scope, key, _decode_json_list) or ())

    def _merge_json_list(self, scope: str, key: bytes, entries: list, cap: int) -> None:
        if not entries:
            return
        # The read-modify-write is not a search probe: no hit/miss counted.
        existing = self.kb.lookup(scope, key, _decode_json_list, probe=False) or []
        seen = {json.dumps(entry, sort_keys=True) for entry in existing}
        merged = list(existing)
        for entry in entries:
            marker = json.dumps(entry, sort_keys=True)
            if marker not in seen:
                seen.add(marker)
                merged.append(entry)
        self.kb.store(scope, key, merged[:cap], _encode_json)


def baseline_digest(inputs) -> bytes:
    """The identity of an example baseline (order-independent: it is a union)."""
    return digest_tokens(
        "baseline", tuple(sorted(table.fingerprint() for table in inputs))
    )


def example_digest(inputs, output) -> bytes:
    """The identity of an example: input fingerprints *in order*, then the output.

    Unlike :func:`baseline_digest` the order matters: a deduction query
    binds table holes to inputs by position.
    """
    return digest_tokens(
        "example", tuple(table.fingerprint() for table in inputs), output.fingerprint()
    )
