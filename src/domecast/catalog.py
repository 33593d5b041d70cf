"""Event-duration catalogs: parsing, validation, summaries.

A catalog row is one eruption with a duration in years, a censoring flag
(ongoing eruptions only give a lower bound on duration), a composition
class, and an optional silica percentage used by the regression model.

A ``Catalog`` stores its rows as read-only numpy columns: ``names`` and
``comp_class`` (object arrays of str and ``CompositionClass``),
``start_year``, ``duration``, ``censored`` and ``silica`` (NaN where
missing).  Every Catalog, parsed, simulated, derived or built from
``EruptionRecord`` rows, passes one check of its columns; parsing builds
no records, so records exist only in ``Catalog(records)`` and ``records``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "CatalogError",
    "CompositionClass",
    "EruptionRecord",
    "Catalog",
    "CatalogSummary",
    "parse_catalog",
    "serialize_catalog",
    "summarize",
    "load_fixture_long_durations",
]

CSV_HEADER = ["volcano", "start_year", "duration_yr", "status", "class", "silica_pct"]

SILICA_MIN = 30.0
SILICA_MAX = 90.0


class CatalogError(ValueError):
    """Malformed or inconsistent catalog input."""


class CompositionClass(Enum):
    MAFIC = "mafic"
    INTERMEDIATE = "intermediate"
    EVOLVED = "evolved"


@dataclass(frozen=True)
class EruptionRecord:
    """One catalog row, checked when it enters a Catalog.

    ``censored=True`` means the eruption was still ongoing at the catalog
    date, so ``duration`` is only a lower bound.
    """

    volcano_name: str
    start_year: float
    duration: float
    censored: bool
    composition_class: CompositionClass
    silica_pct: Optional[float] = None


# Catalog's columns and their dtypes, in EruptionRecord's field order.
_COLUMNS = ("names", "start_year", "duration", "censored", "comp_class", "silica")
_DTYPES = (object, float, float, bool, object, float)


def _check_columns(names, start_year, duration, silica, lines=None) -> None:
    """Raise CatalogError for the first row that breaks a rule, with the
    message of the first rule it breaks, after the row's source line when
    ``lines`` gives it.  NaN silica is missing."""
    rules = (  # (rows broken, values, message) in the order they are checked
        (~(np.isfinite(duration) & (duration > 0)), duration,
         "duration must be finite and > 0, got {}"),
        (~np.isfinite(start_year), start_year, "start_year must be finite, got {}"),
        ((silica < SILICA_MIN) | (silica > SILICA_MAX), silica,
         f"silica_pct {{}} outside [{SILICA_MIN}, {SILICA_MAX}]"),
    )
    faults = [(bad.argmax(), k) for k, (bad, _, _) in enumerate(rules) if bad.any()]
    if faults:
        row, k = min(faults)  # the first row, then its first rule
        _, values, message = rules[k]
        where = f"line {lines[row]}: " if lines else ""
        message = message.format(float(values[row]))
        raise CatalogError(f"{where}{message} for {names[row]!r}")


@dataclass(frozen=True, init=False, eq=False)
class Catalog:
    """Immutable ordered collection of eruptions, held as read-only
    columns (see the module docstring)."""

    names: np.ndarray
    start_year: np.ndarray
    duration: np.ndarray
    censored: np.ndarray
    comp_class: np.ndarray
    silica: np.ndarray
    as_of_date: Optional[str]

    def __init__(
        self, records: Iterable[EruptionRecord], as_of_date: Optional[str] = None
    ):
        records = tuple(records)
        columns = (
            [getattr(r, f.name) for r in records] for f in fields(EruptionRecord)
        )
        self._set_columns(as_of_date, **dict(zip(_COLUMNS, columns)))

    @classmethod
    def _from_columns(cls, as_of_date=None, lines=None, **columns) -> "Catalog":
        """Package-private: a catalog over the given columns, checked as
        every Catalog is; ``lines`` numbers the rows in its messages."""
        catalog = object.__new__(cls)
        catalog._set_columns(as_of_date, lines, **columns)
        return catalog

    def _set_columns(self, as_of_date, lines=None, **columns) -> None:
        for name, dtype in zip(_COLUMNS, _DTYPES):
            column = np.asarray(columns[name], dtype=dtype)  # None -> NaN
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "as_of_date", as_of_date)
        _check_columns(self.names, self.start_year, self.duration, self.silica, lines)

    def _columns(self) -> dict:
        return {name: getattr(self, name) for name in _COLUMNS}

    def _replace(self, **columns) -> "Catalog":
        return Catalog._from_columns(self.as_of_date, **{**self._columns(), **columns})

    def _take(self, index) -> "Catalog":
        return self._replace(**{k: v[index] for k, v in self._columns().items()})

    def _rows(self):
        """Each row as Python values in EruptionRecord's field order."""
        *columns, silica = (v.tolist() for v in self._columns().values())
        return zip(*columns, (None if math.isnan(x) else x for x in silica))

    @cached_property
    def records(self) -> tuple[EruptionRecord, ...]:
        """The rows as EruptionRecords, built on first access."""
        return tuple(EruptionRecord(*row) for row in self._rows())

    @property
    def n(self) -> int:
        return len(self.duration)

    @property
    def n1(self) -> int:
        """Number of uncensored (completed) records."""
        return self.n - self.n0

    @property
    def n0(self) -> int:
        """Number of censored (ongoing) records."""
        return int(np.count_nonzero(self.censored))

    def filter_class(self, cls: CompositionClass) -> "Catalog":
        return self._take(self.comp_class == cls)

    def completed_only(self) -> "Catalog":
        return self._take(~self.censored)

    def concat(self, other: "Catalog") -> "Catalog":
        theirs = other._columns()
        return self._replace(
            **{k: np.concatenate((v, theirs[k])) for k, v in self._columns().items()}
        )

    def _key(self) -> tuple:
        # The rows hold None for missing silica, so NaN silica compares equal.
        return self.as_of_date, tuple(self._rows())

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class CatalogSummary:
    total: int
    completed: int
    ongoing: int
    by_class: dict = field(default_factory=dict)  # class value -> (total, completed, ongoing)


def parse_catalog(source, as_of_date: Optional[str] = None) -> Catalog:
    """Parse a catalog from CSV text or a readable stream.

    Expected header: ``volcano,start_year,duration_yr,status,class,silica_pct``
    with status in {completed, ongoing} and class in
    {mafic, intermediate, evolved}.  Lines starting with ``#`` are ignored.

    Raises CatalogError with a line number on any malformed row.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    rows = []  # (line number, the row's values in _COLUMNS order)
    header_seen = False
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = next(csv.reader([line]))
        if not header_seen:
            got = [c.strip().lower() for c in row]
            if got != CSV_HEADER:
                raise CatalogError(
                    f"line {line_no}: expected header {','.join(CSV_HEADER)!r}, "
                    f"got {line!r}"
                )
            header_seen = True
            continue
        if len(row) != 6:
            raise CatalogError(f"line {line_no}: expected 6 fields, got {len(row)}")
        name, start_s, dur_s, status, cls_s, sil_s = (c.strip() for c in row)
        try:
            start_year = float(start_s)
            duration = float(dur_s)
        except ValueError:
            raise CatalogError(f"line {line_no}: non-numeric year/duration") from None
        status_l = status.lower()
        if status_l not in ("completed", "ongoing"):
            raise CatalogError(f"line {line_no}: unknown status {status!r}")
        try:
            comp = CompositionClass(cls_s.lower())
        except ValueError:
            raise CatalogError(
                f"line {line_no}: unknown composition class {cls_s!r}"
            ) from None
        try:
            silica = float(sil_s) if sil_s else None
        except ValueError:
            silica = math.nan
        if silica != silica:  # NaN, which the silica column keeps for missing
            raise CatalogError(f"line {line_no}: bad silica_pct {sil_s!r}")
        rows.append(
            (line_no, name, start_year, duration, status_l == "ongoing", comp, silica)
        )

    if not header_seen:
        raise CatalogError("empty catalog: no header found")
    if not rows:
        raise CatalogError("empty catalog")
    lines, *columns = zip(*rows)
    return Catalog._from_columns(as_of_date, lines, **dict(zip(_COLUMNS, columns)))


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to CSV; parse_catalog round-trips it exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for name, start_year, duration, censored, comp, silica in catalog._rows():
        writer.writerow(
            [
                name,
                repr(start_year),
                repr(duration),
                "ongoing" if censored else "completed",
                comp.value,
                "" if silica is None else repr(silica),
            ]
        )
    return out.getvalue()


def summarize(catalog: Catalog) -> CatalogSummary:
    by_class = {}
    for cls in CompositionClass:
        sub = catalog.filter_class(cls)
        by_class[cls.value] = (sub.n, sub.n1, sub.n0)
    return CatalogSummary(
        total=catalog.n,
        completed=catalog.n1,
        ongoing=catalog.n0,
        by_class=by_class,
    )


# Durations (years) of all catalog eruptions lasting five years or more,
# ascending; censored=True marks eruptions still ongoing at the catalog date.
_LONG_DURATION_FIXTURE = (
    (5.0, 1310, "OKATAINA", False),
    (5.4, 1970, "KARANGETANG [API SIAU]", False),
    (5.4, 1870, "CEBORUCO, VOLCAN", False),
    (5.4, 1991, "SOPUTAN", False),
    (5.4, 1944, "SHIVELUCH", False),
    (5.5, 1951, "LAMINGTON", False),
    (6.0, 1872, "SINARKA", False),
    (6.6, 1980, "ST. HELENS", False),
    (7.1, 1994, "ETNA", False),
    (8.6, 1984, "LASCAR", False),
    (8.7, 1897, "DONA JUANA", False),
    (10.2, 2005, "POPOCATEPETL", True),
    (10.3, 2004, "REVENTADOR", True),
    (11.3, 2000, "SOPUTAN", False),
    (12.4, 1970, "KARYMSKY", False),
    (13.0, 1973, "CHILLAN, NEVADOS DE", False),
    (13.2, 2002, "FUEGO", True),
    (13.3, 2001, "KARYMSKY", True),
    (15.4, 1999, "MAYON", False),
    (16.2, 1998, "IBU", True),
    (18.5, 1913, "COLIMA", False),
    (19.7, 1995, "SOUFRIERE HILLS", True),
    (23.0, 1972, "BAGANA", False),
    (23.7, 1991, "KARANGETANG [API SIAU]", True),
    (27.0, 1883, "BOGOSLOF", False),
    (27.1, 1796, "BOGOSLOF", False),
    (27.6, 1973, "LANGILA", False),
    (34.6, 1980, "SHIVELUCH", True),
    (40.0, 1869, "COLIMA", False),
    (42.5, 1968, "ARENAL", False),
    (45.0, 1890, "VICTORY", False),
    (57.8, 1957, "COLIMA", True),
    (59.4, 1955, "BEZYMIANNY", True),
    (68.4, 1946, "SEMERU", True),
    (78.8, 1934, "SANGAY", False),
    (92.7, 1922, "SANTA MARIA [SANTIAGUITO]", True),
    (187.7, 1728, "SANGAY", False),
    (246.6, 1768, "MERAPI", True),
)


def load_fixture_long_durations() -> list[tuple[float, int, str, bool]]:
    """Embedded list of (duration_yr, start_year, name, censored) for all
    catalog eruptions lasting five years or longer, sorted ascending.

    The tuples carry no composition class or silica, so they feed
    summaries and survival plots, not the model fits."""
    return [tuple(row) for row in _LONG_DURATION_FIXTURE]
