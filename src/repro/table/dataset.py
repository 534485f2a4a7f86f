"""DataTable: the dataset management view over the engine.

Implements the demo's dataset operations: CSV load (Fig. 4, with the
storage-increment accounting), Select, Stat, Export, row/cell-granular
branch Diff (Fig. 5), plus normal row CRUD — each write stamping a new
tamper-evident version (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.chunk import Uid
from repro.db.engine import ForkBase, VersionInfo
from repro.errors import SchemaError, UnknownKeyError
from repro.table import csvio
from repro.table.schema import ROW_PREFIX, SCHEMA_KEY, Schema
from repro.types import FMap
from repro.vcs.branches import DEFAULT_BRANCH


@dataclass(frozen=True)
class LoadReport:
    """What a CSV load did to logical and physical storage (Fig. 4)."""

    version: VersionInfo
    rows_loaded: int
    logical_bytes: int  # bytes offered to the store by this load
    physical_bytes_added: int  # bytes actually materialized (post-dedup)
    chunks_new: int
    chunks_deduped: int

    @property
    def dedup_savings(self) -> float:
        """Fraction of offered bytes absorbed by deduplication."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - self.physical_bytes_added / self.logical_bytes

    def describe(self) -> str:
        """Fig.-4-style one-liner."""
        return (
            f"loaded {self.rows_loaded} rows: "
            f"+{self.physical_bytes_added / 1024:.2f} KB physical "
            f"({self.logical_bytes / 1024:.2f} KB logical, "
            f"{self.dedup_savings * 100:.1f}% deduplicated)"
        )


@dataclass(frozen=True)
class RowDiff:
    """One differing row between two dataset versions."""

    pk: str
    kind: str  # "added" | "removed" | "changed"
    old: Optional[Dict[str, str]]
    new: Optional[Dict[str, str]]
    changed_columns: Tuple[str, ...] = ()


@dataclass
class TableDiff:
    """Row- and cell-granular dataset diff (what Fig. 5 visualizes)."""

    rows: List[RowDiff] = field(default_factory=list)
    schema_changed: bool = False
    #: Carried over from the underlying tree diff: pruning effectiveness.
    subtrees_pruned: int = 0
    nodes_loaded: int = 0

    @property
    def added(self) -> List[RowDiff]:
        return [r for r in self.rows if r.kind == "added"]

    @property
    def removed(self) -> List[RowDiff]:
        return [r for r in self.rows if r.kind == "removed"]

    @property
    def changed(self) -> List[RowDiff]:
        return [r for r in self.rows if r.kind == "changed"]

    def is_empty(self) -> bool:
        return not self.rows and not self.schema_changed


@dataclass(frozen=True)
class ColumnStat:
    """The Stat verb's output for one column."""

    column: str
    count: int
    distinct: int
    numeric: bool
    minimum: Optional[Union[float, str]]
    maximum: Optional[Union[float, str]]
    mean: Optional[float]


Predicate = Callable[[Dict[str, str]], bool]


class DataTable:
    """A named, branchable relational dataset."""

    def __init__(self, engine: ForkBase, name: str) -> None:
        self.engine = engine
        self.name = name

    # -- creation / loading -------------------------------------------------------

    @classmethod
    def create(
        cls,
        engine: ForkBase,
        name: str,
        schema: Schema,
        branch: str = DEFAULT_BRANCH,
        message: str = "create table",
    ) -> "DataTable":
        """Create an empty dataset with the given schema."""
        value = FMap.from_dict(engine.store, {SCHEMA_KEY: schema.encode()})
        engine.put(name, value, branch=branch, message=message)
        return cls(engine, name)

    @classmethod
    def load_csv(
        cls,
        engine: ForkBase,
        name: str,
        csv_text: str,
        primary_key: str,
        branch: str = DEFAULT_BRANCH,
        message: str = "load csv",
    ) -> Tuple["DataTable", LoadReport]:
        """Load a CSV as a (new version of a) dataset, with Fig. 4 accounting.

        The returned report's ``physical_bytes_added`` is the storage
        increment the demo displays: large for the first load, tiny for a
        near-duplicate load.
        """
        header, records = csvio.read_records(csv_text)
        schema = Schema.of(header, primary_key)
        mapping: Dict[bytes, bytes] = {SCHEMA_KEY: schema.encode()}
        mapping.update(schema.encode_records(records))
        before = engine.store.stats.snapshot()
        value = FMap.from_dict(engine.store, mapping)
        info = engine.put(name, value, branch=branch, message=message)
        delta = engine.store.stats.delta(before)
        report = LoadReport(
            version=info,
            rows_loaded=len(records),
            logical_bytes=delta.logical_bytes,
            physical_bytes_added=delta.physical_bytes,
            chunks_new=delta.puts_new,
            chunks_deduped=delta.puts_dup,
        )
        return cls(engine, name), report

    # -- plumbing -----------------------------------------------------------------

    def row_map(
        self, branch: Optional[str] = None, version: Optional[Union[Uid, str]] = None
    ) -> FMap:
        """The raw key→row FMap at a branch head or version.

        Public so batch curation can edit many rows in one commit instead
        of reaching into dataset internals.
        """
        obj = self.engine.get(self.name, branch=branch, version=version)
        if not isinstance(obj, FMap):
            raise SchemaError(f"{self.name!r} is not a dataset (type {obj.TYPE_NAME})")
        return obj

    def schema(
        self, branch: Optional[str] = None, version: Optional[Union[Uid, str]] = None
    ) -> Schema:
        """The dataset's schema at a branch head or version."""
        data = self.row_map(branch, version).get(SCHEMA_KEY)
        if data is None:
            raise SchemaError(f"{self.name!r} has no schema entry")
        return Schema.decode(data)

    def _commit(self, value: FMap, branch: str, message: str) -> VersionInfo:
        return self.engine.put(self.name, value, branch=branch, message=message)

    # -- reads ---------------------------------------------------------------------

    def row_count(
        self, branch: Optional[str] = None, version: Optional[Union[Uid, str]] = None
    ) -> int:
        """Number of data rows (schema entry excluded)."""
        return len(self.row_map(branch, version)) - 1

    def get_row(
        self,
        pk: str,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
    ) -> Optional[Dict[str, str]]:
        """Fetch one row by primary key."""
        fmap = self.row_map(branch, version)
        schema = self.schema(branch, version)
        data = fmap.get(schema.key_for(pk))
        if data is None:
            return None
        return schema.decode_row(data)

    def rows(
        self, branch: Optional[str] = None, version: Optional[Union[Uid, str]] = None
    ) -> Iterator[Dict[str, str]]:
        """Iterate all rows in primary-key order."""
        fmap = self.row_map(branch, version)
        schema = self.schema(branch, version)
        for key, value in fmap.items():
            if key.startswith(ROW_PREFIX):
                yield schema.decode_row(value)

    def select(
        self,
        where: Optional[Predicate] = None,
        columns: Optional[List[str]] = None,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, str]]:
        """The Select verb: filter rows, optionally projecting columns."""
        out: List[Dict[str, str]] = []
        for row in self.rows(branch, version):
            if where is not None and not where(row):
                continue
            if columns is not None:
                row = {column: row[column] for column in columns}
            out.append(row)
            if limit is not None and len(out) >= limit:
                break
        return out

    def stat(
        self,
        column: str,
        branch: Optional[str] = None,
        version: Optional[Union[Uid, str]] = None,
    ) -> ColumnStat:
        """The Stat verb: summary statistics for one column."""
        schema = self.schema(branch, version)
        if column not in schema.columns:
            raise SchemaError(f"unknown column {column!r}")
        values = [row[column] for row in self.rows(branch, version)]
        numeric_values: Optional[List[float]] = []
        for value in values:
            try:
                numeric_values.append(float(value))
            except ValueError:
                numeric_values = None
                break
        if numeric_values is not None and values:
            return ColumnStat(
                column=column,
                count=len(values),
                distinct=len(set(values)),
                numeric=True,
                minimum=min(numeric_values),
                maximum=max(numeric_values),
                mean=sum(numeric_values) / len(numeric_values),
            )
        return ColumnStat(
            column=column,
            count=len(values),
            distinct=len(set(values)),
            numeric=False,
            minimum=min(values) if values else None,
            maximum=max(values) if values else None,
            mean=None,
        )

    def export_csv(
        self, branch: Optional[str] = None, version: Optional[Union[Uid, str]] = None
    ) -> str:
        """The Export verb: render the dataset back to CSV."""
        schema = self.schema(branch, version)
        return csvio.render_csv(schema.columns, self.rows(branch, version))

    # -- writes -------------------------------------------------------------------

    def upsert_rows(
        self,
        rows: List[Dict[str, str]],
        branch: str = DEFAULT_BRANCH,
        message: str = "upsert rows",
    ) -> VersionInfo:
        """Insert or replace rows; one new version for the batch."""
        schema = self.schema(branch)
        fmap = self.row_map(branch)
        puts = {schema.row_key(row): schema.encode_row(row) for row in rows}
        return self._commit(fmap.update(puts=puts), branch, message)

    def update_cells(
        self,
        pk: str,
        changes: Dict[str, str],
        branch: str = DEFAULT_BRANCH,
        message: str = "update cells",
    ) -> VersionInfo:
        """Point-update some columns of one row."""
        row = self.get_row(pk, branch=branch)
        if row is None:
            raise UnknownKeyError(f"{self.name}[{pk}]")
        unknown = [column for column in changes if column not in row]
        if unknown:
            raise SchemaError(f"unknown columns: {unknown}")
        row.update(changes)
        return self.upsert_rows([row], branch=branch, message=message)

    def delete_rows(
        self,
        pks: List[str],
        branch: str = DEFAULT_BRANCH,
        message: str = "delete rows",
    ) -> VersionInfo:
        """Remove rows by primary key; one new version for the batch."""
        schema = self.schema(branch)
        fmap = self.row_map(branch)
        deletes = [schema.key_for(pk) for pk in pks]
        return self._commit(fmap.update(deletes=deletes), branch, message)

    # -- branch operations ----------------------------------------------------------

    def branch(self, new_branch: str, from_branch: str = DEFAULT_BRANCH) -> Uid:
        """Fork the dataset (Git-like branch; zero data copied)."""
        return self.engine.branch(self.name, new_branch, from_branch=from_branch)

    def merge(
        self,
        from_branch: str,
        into_branch: str = DEFAULT_BRANCH,
        resolver=None,
        message: str = "",
    ) -> VersionInfo:
        """Three-way merge of dataset branches (row-granular)."""
        return self.engine.merge(
            self.name,
            from_branch=from_branch,
            into_branch=into_branch,
            resolver=resolver,
            message=message,
        )

    def diff(
        self,
        branch_a: Optional[str] = None,
        branch_b: Optional[str] = None,
        version_a: Optional[Union[Uid, str]] = None,
        version_b: Optional[Union[Uid, str]] = None,
    ) -> TableDiff:
        """The Fig. 5 differential query, lifted to rows and cells."""
        tree_diff = self.engine.diff(
            self.name,
            branch_a=branch_a,
            branch_b=branch_b,
            version_a=version_a,
            version_b=version_b,
        )
        schema = self.schema(branch_a, version_a)
        return self._lift_diff(tree_diff, schema)

    def diff_against(
        self,
        other: "DataTable",
        branch: Optional[str] = None,
        other_branch: Optional[str] = None,
    ) -> TableDiff:
        """Cross-dataset differential query (Dataset-1 vs Dataset-2).

        Both datasets must share a schema; content addressing makes this
        exactly as cheap as a branch diff.
        """
        schema = self.schema(branch)
        if other.schema(other_branch) != schema:
            raise SchemaError("datasets have different schemas")
        tree_diff = self.engine.diff_objects(
            self.name, other.name, branch_a=branch, branch_b=other_branch
        )
        return self._lift_diff(tree_diff, schema)

    def _lift_diff(self, tree_diff, schema: Schema) -> TableDiff:
        """Translate a map-level diff into rows and changed columns."""
        out = TableDiff(
            subtrees_pruned=tree_diff.subtrees_pruned,
            nodes_loaded=tree_diff.nodes_loaded,
        )
        for key, value in tree_diff.added.items():
            if key == SCHEMA_KEY:
                out.schema_changed = True
                continue
            out.rows.append(
                RowDiff(schema.pk_of(key), "added", None, schema.decode_row(value))
            )
        for key, value in tree_diff.removed.items():
            if key == SCHEMA_KEY:
                out.schema_changed = True
                continue
            out.rows.append(
                RowDiff(schema.pk_of(key), "removed", schema.decode_row(value), None)
            )
        for key, (old, new) in tree_diff.changed.items():
            if key == SCHEMA_KEY:
                out.schema_changed = True
                continue
            out.rows.append(
                RowDiff(
                    schema.pk_of(key),
                    "changed",
                    schema.decode_row(old),
                    schema.decode_row(new),
                    tuple(schema.changed_columns(old, new)),
                )
            )
        out.rows.sort(key=lambda r: r.pk)
        return out
