"""Event-duration catalogs: parsing, validation, summaries.

A catalog row is one eruption with a duration, a censoring flag (ongoing
eruptions only give a lower bound on duration), a composition class, and
an optional silica percentage used by the regression model.  The CSV's
duration column names its units, ``duration_yr`` or ``duration_days``;
every Catalog in memory holds years.

A ``Catalog`` is its six read-only numpy columns: ``names`` and
``comp_class`` (object arrays of str and ``CompositionClass``),
``start_year``, ``duration``, ``censored`` and ``silica`` (NaN where
missing).  Its one constructor, ``Catalog(names=..., ..., silica=...)``,
serves parsing, simulation and derived catalogs alike and checks the
columns once.  No path builds ``EruptionRecord`` rows except the
``records`` view.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Optional

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
DAYS_PER_YEAR = 365.25
# The duration column's accepted headings -> the file's duration units per year
_DURATION_UNITS = {"duration_yr": 1.0, "duration_days": DAYS_PER_YEAR}

SILICA_MIN = 30.0
SILICA_MAX = 90.0


class CatalogError(ValueError):
    """Malformed or inconsistent catalog input; from the column check,
    ``row`` is the index of the row at fault."""

    row = None


class CompositionClass(Enum):
    MAFIC = "mafic"
    INTERMEDIATE = "intermediate"
    EVOLVED = "evolved"


@dataclass(frozen=True)
class EruptionRecord:
    """One catalog row: the row type of ``Catalog.records``, the view
    that ``bench/workloads.catalog_digest`` reads until it hashes columns
    (ROADMAP item 1).

    ``censored=True`` means the eruption was still ongoing at the catalog
    date, so ``duration`` is only a lower bound.
    """

    volcano_name: str
    start_year: float
    duration: float
    censored: bool
    composition_class: CompositionClass
    silica_pct: Optional[float] = None


# Catalog's columns -> their dtypes, in EruptionRecord's field order.
_COLUMNS = {"names": object, "start_year": float, "duration": float,
            "censored": bool, "comp_class": object, "silica": float}


def _check_columns(names, start_year, duration, silica) -> None:
    """Raise CatalogError for the first row that breaks a rule, with the
    message of the first rule it breaks; the error's ``row`` is that
    row's index.  NaN silica is missing."""
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
        error = CatalogError(f"{message.format(float(values[row]))} for {names[row]!r}")
        error.row = int(row)
        raise error


@dataclass(frozen=True, kw_only=True, eq=False)
class Catalog:
    """Immutable ordered collection of eruptions, held as read-only
    columns (see the module docstring).  Each column is converted to its
    dtype (None silica becomes NaN) and the columns are checked once."""

    names: np.ndarray
    start_year: np.ndarray
    duration: np.ndarray
    censored: np.ndarray
    comp_class: np.ndarray
    silica: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            column = np.asarray(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        _check_columns(self.names, self.start_year, self.duration, self.silica)

    def _take(self, index) -> "Catalog":
        return replace(self, **{name: getattr(self, name)[index] for name in _COLUMNS})

    def _rows(self):
        """Each row as Python values in EruptionRecord's field order."""
        *columns, silica = (getattr(self, name).tolist() for name in _COLUMNS)
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


@dataclass(frozen=True)
class CatalogSummary:
    total: int
    completed: int
    ongoing: int
    by_class: dict = field(default_factory=dict)  # class value -> (total, completed, ongoing)


def parse_catalog(source) -> Catalog:
    """Parse a catalog from CSV text or a readable stream.

    Expected header: ``volcano,start_year,duration_yr,status,class,silica_pct``
    with status in {completed, ongoing} and class in
    {mafic, intermediate, evolved}; ``duration_days`` in place of
    ``duration_yr`` gives durations in days, which are divided by
    ``DAYS_PER_YEAR``.  Lines starting with ``#`` are ignored.

    Raises CatalogError with a line number on any malformed row, quoting
    its values as the file gives them.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    rows = []  # (line number, the row's values in _COLUMNS order)
    units_per_year = None  # set by the header
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = next(csv.reader([line]))
        if units_per_year is None:
            got = [c.strip().lower() for c in row]
            if len(got) == 6 and got[2] in _DURATION_UNITS:
                units_per_year = _DURATION_UNITS[got[2]]
                got[2] = CSV_HEADER[2]
            if got != CSV_HEADER:
                raise CatalogError(
                    f"line {line_no}: expected header {','.join(CSV_HEADER)!r}, "
                    f"or duration_days in place of duration_yr, got {line!r}"
                )
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

    if units_per_year is None:
        raise CatalogError("empty catalog: no header found")
    if not rows:
        raise CatalogError("empty catalog")
    lines, *columns = zip(*rows)
    try:
        catalog = Catalog(**dict(zip(_COLUMNS, columns)))
        if units_per_year != 1.0:
            catalog = replace(catalog, duration=catalog.duration / units_per_year)
    except CatalogError as error:
        raise CatalogError(f"line {lines[error.row]}: {error}") from None
    return catalog


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
