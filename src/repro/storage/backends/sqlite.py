"""SQLite durability backend (stdlib ``sqlite3``, WAL journal mode).

One SQLite file mirrors the whole database:

* ``r_<table>`` — the row mirror of each relation:
  ``(seq INTEGER PRIMARY KEY AUTOINCREMENT, pk TEXT UNIQUE, row TEXT)``.
  ``seq`` order *is* insertion order; a replace deletes the old row and
  inserts a fresh one, which moves it to the end exactly like the
  in-memory table's ``del`` + re-insert on a Python dict.
* ``_catalog`` — one row per relation with its JSON schema and the exact
  ``Table.version`` counter, bumped inside the same transaction as every
  mutation so recovery restores versions precisely.
* ``l_<listing>`` — materialized listing tables (see :class:`ListingSpec`)
  kept in lockstep with their source relation and indexed by the listing
  key, so the hot worker-page query is a single indexed SQL lookup
  instead of a scan + projection.
* ``_meta`` — format version and backend marker.

Every mutation runs in its own ``BEGIN IMMEDIATE`` transaction, so a
kill at any point leaves the file at a committed prefix of the mutation
stream — the same guarantee the JSONL WAL gets from line-atomic appends.

Pragmas follow the usual embedded-write-heavy recipe: WAL journal mode
(readers don't block the writer), ``synchronous=NORMAL`` (safe with WAL),
foreign keys on, and a generous busy timeout.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.storage.backends.base import Mutation, StorageBackend
from repro.storage.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database
    from repro.storage.schema import TableSchema

_FORMAT_VERSION = 1

_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA foreign_keys=ON",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA busy_timeout=30000",
)


@dataclass(frozen=True)
class ListingSpec:
    """A materialized listing: a keyed projection of one source relation.

    ``columns`` are projected from every row of ``source`` into the
    listing table; ``key`` (one of the projected columns) gets an index,
    making :meth:`SqliteBackend.query_listing` an O(matches) lookup.
    """

    name: str
    source: str
    key: str
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.key not in self.columns:
            raise StorageError(
                f"listing {self.name!r}: key {self.key!r} must be one of "
                f"its projected columns {self.columns!r}"
            )


#: The hot path of the platform's serving tier: "which tasks does this
#: worker currently stand in relation to?" — the worker-page query.  The
#: relationship table holds only worker-driven states (derived Eligible
#: is in-memory ledger state), so the listing does too.
WORKER_PAGE_LISTING = ListingSpec(
    name="worker_page",
    source="relationship",
    key="worker_id",
    columns=("worker_id", "task_id", "status"),
)

DEFAULT_LISTINGS = (WORKER_PAGE_LISTING,)


def _encode_pk(pk: tuple[Any, ...]) -> str:
    return json.dumps(list(pk), separators=(",", ":"))


class SqliteBackend(StorageBackend):
    """Durability mirror backed by a single SQLite file in WAL mode."""

    name = "sqlite"

    def __init__(
        self,
        path: str | Path,
        *,
        listings: tuple[ListingSpec, ...] = DEFAULT_LISTINGS,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._listings: dict[str, list[ListingSpec]] = {}
        for spec in listings:
            self._listings.setdefault(spec.source, []).append(spec)
        # isolation_level=None puts sqlite3 in autocommit mode so the
        # explicit BEGIN IMMEDIATE / COMMIT in _Txn owns transaction scope.
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        self._closed = False
        for pragma in _PRAGMAS:
            self._conn.execute(pragma)
        cur = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='_meta'"
        )
        if cur.fetchone() is None:
            with self._txn():
                self._conn.execute(
                    "CREATE TABLE _meta (key TEXT PRIMARY KEY, value TEXT)"
                )
                self._conn.execute(
                    "CREATE TABLE _catalog ("
                    "name TEXT PRIMARY KEY, schema TEXT NOT NULL, "
                    "version INTEGER NOT NULL DEFAULT 0)"
                )
                self._conn.execute(
                    "INSERT INTO _meta VALUES ('backend', ?), ('format_version', ?)",
                    (self.name, str(_FORMAT_VERSION)),
                )
        else:
            meta = dict(self._conn.execute("SELECT key, value FROM _meta"))
            if meta.get("backend") != self.name:
                raise StorageError(
                    f"{self.path} holds a {meta.get('backend')!r} database, "
                    f"not a sqlite-backend one"
                )
            if meta.get("format_version") != str(_FORMAT_VERSION):
                raise StorageError(
                    f"unsupported sqlite backend format: {meta.get('format_version')!r}"
                )

    # -- transactions --------------------------------------------------------
    def _txn(self):
        return _Txn(self._conn)

    # -- recovery ------------------------------------------------------------
    def restore_into(self, db: "Database") -> bool:
        from repro.storage.persistence import schema_from_dict, topological_order

        catalog = list(
            self._conn.execute("SELECT name, schema, version FROM _catalog")
        )
        if not catalog:
            return False
        schemas = {
            name: schema_from_dict(json.loads(blob)) for name, blob, _ in catalog
        }
        versions = {name: int(version) for name, _, version in catalog}
        for schema in topological_order(list(schemas.values())):
            db.create_table(schema)
        for name in schemas:
            table = db.table(name)
            for (blob,) in self._conn.execute(
                f'SELECT row FROM "r_{name}" ORDER BY seq'
            ):
                table._raw_insert(table._normalise(json.loads(blob)))
            table.version = versions[name]
        return True

    # -- catalogue hooks -----------------------------------------------------
    def on_create_table(self, schema: "TableSchema") -> None:
        from repro.storage.persistence import schema_to_dict

        name = schema.name
        with self._txn():
            self._conn.execute(
                f'CREATE TABLE IF NOT EXISTS "r_{name}" ('
                "seq INTEGER PRIMARY KEY AUTOINCREMENT, "
                "pk TEXT UNIQUE NOT NULL, row TEXT NOT NULL)"
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO _catalog (name, schema, version) "
                "VALUES (?, ?, 0)",
                (name, json.dumps(schema_to_dict(schema), sort_keys=True)),
            )
            for spec in self._listings.get(name, ()):
                self._create_listing_table(spec)

    def _create_listing_table(self, spec: ListingSpec) -> None:
        cols = ", ".join(f'"{c}" TEXT' for c in spec.columns)
        self._conn.execute(
            f'CREATE TABLE IF NOT EXISTS "l_{spec.name}" '
            f"(pk TEXT PRIMARY KEY, {cols})"
        )
        self._conn.execute(
            f'CREATE INDEX IF NOT EXISTS "idx_l_{spec.name}_key" '
            f'ON "l_{spec.name}" ("{spec.key}")'
        )

    def on_drop_table(self, name: str) -> None:
        with self._txn():
            self._conn.execute(f'DROP TABLE IF EXISTS "r_{name}"')
            self._conn.execute("DELETE FROM _catalog WHERE name = ?", (name,))
            for spec in self._listings.get(name, ()):
                self._conn.execute(f'DROP TABLE IF EXISTS "l_{spec.name}"')

    # -- mutation hook -------------------------------------------------------
    def on_mutation(self, mutation: Mutation) -> None:
        name = mutation.table
        with self._txn():
            if mutation.op == "insert":
                self._conn.execute(
                    f'INSERT INTO "r_{name}" (pk, row) VALUES (?, ?)',
                    (_encode_pk(mutation.pk), json.dumps(mutation.row, sort_keys=True)),
                )
            elif mutation.op == "delete":
                self._conn.execute(
                    f'DELETE FROM "r_{name}" WHERE pk = ?', (_encode_pk(mutation.pk),)
                )
            elif mutation.op == "replace":
                # Delete + fresh insert: the row takes a new seq and moves
                # to the end, mirroring the in-memory dict's del+reinsert.
                self._conn.execute(
                    f'DELETE FROM "r_{name}" WHERE pk = ?', (_encode_pk(mutation.pk),)
                )
                self._conn.execute(
                    f'INSERT INTO "r_{name}" (pk, row) VALUES (?, ?)',
                    (
                        _encode_pk(mutation.new_pk),
                        json.dumps(mutation.row, sort_keys=True),
                    ),
                )
            elif mutation.op == "truncate":
                self._conn.execute(f'DELETE FROM "r_{name}"')
            else:
                raise StorageError(f"unknown mutation opcode {mutation.op!r}")
            self._conn.execute(
                "UPDATE _catalog SET version = version + 1 WHERE name = ?", (name,)
            )
            for spec in self._listings.get(name, ()):
                self._apply_listing(spec, mutation)

    def _apply_listing(self, spec: ListingSpec, mutation: Mutation) -> None:
        lname = f"l_{spec.name}"
        if mutation.op == "truncate":
            self._conn.execute(f'DELETE FROM "{lname}"')
            return
        if mutation.op in ("delete", "replace"):
            self._conn.execute(
                f'DELETE FROM "{lname}" WHERE pk = ?', (_encode_pk(mutation.pk),)
            )
        if mutation.op in ("insert", "replace"):
            pk = mutation.new_pk if mutation.op == "replace" else mutation.pk
            cols = ", ".join(f'"{c}"' for c in spec.columns)
            marks = ", ".join("?" for _ in spec.columns)
            self._conn.execute(
                f'INSERT OR REPLACE INTO "{lname}" (pk, {cols}) '
                f"VALUES (?, {marks})",
                (_encode_pk(pk), *(mutation.row[c] for c in spec.columns)),
            )

    # -- listing queries -----------------------------------------------------
    def query_listing(self, listing: str, key_value: Any) -> list[dict[str, Any]]:
        """Fetch a materialized listing by its key (indexed lookup)."""
        for specs in self._listings.values():
            for spec in specs:
                if spec.name == listing:
                    cols = ", ".join(f'"{c}"' for c in spec.columns)
                    rows = self._conn.execute(
                        f'SELECT {cols} FROM "l_{spec.name}" '
                        f'WHERE "{spec.key}" = ? ORDER BY pk',
                        (key_value,),
                    )
                    return [dict(zip(spec.columns, row)) for row in rows]
        raise StorageError(f"no materialized listing named {listing!r}")

    # -- lifecycle -----------------------------------------------------------
    def flush(self) -> None:
        if not self._closed:
            self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._conn.close()

    def describe(self) -> dict[str, Any]:
        listings = [spec.name for specs in self._listings.values() for spec in specs]
        return {
            "backend": self.name,
            "path": str(self.path),
            "listings": sorted(listings),
        }


class _Txn:
    """``BEGIN IMMEDIATE`` … ``COMMIT`` / ``ROLLBACK`` context manager."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")
