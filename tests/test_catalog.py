import pytest

from domecast.catalog import (
    Catalog,
    CatalogError,
    CompositionClass,
    load_fixture_long_durations,
    parse_catalog,
    serialize_catalog,
    summarize,
)

HEADER = "volcano,start_year,duration_yr,status,class,silica_pct\n"


def test_parse_basic_row():
    text = HEADER + "SINABUNG,2013.71,1.49,ongoing,intermediate,58.0\n"
    cat = parse_catalog(text)
    assert cat.n == 1
    r = cat.records[0]
    assert r.censored is True
    assert r.duration == 1.49
    assert r.composition_class is CompositionClass.INTERMEDIATE
    assert r.silica_pct == 58.0


def test_parse_counts_and_order():
    text = HEADER + (
        "A,1990,2.0,completed,mafic,\n"
        "# a comment line\n"
        "B,1995,3.0,ongoing,evolved,70.5\n"
        "C,2000,1.0,completed,intermediate,\n"
    )
    cat = parse_catalog(text)
    assert (cat.n, cat.n0, cat.n1) == (3, 1, 2)
    assert [r.volcano_name for r in cat.records] == ["A", "B", "C"]


def test_empty_catalog_rejected():
    with pytest.raises(CatalogError, match="empty catalog"):
        parse_catalog(HEADER)
    with pytest.raises(CatalogError, match="empty catalog"):
        parse_catalog("")


def test_zero_duration_reports_line():
    text = HEADER + "A,1990,2.0,completed,mafic,\nB,1991,0,completed,mafic,\n"
    with pytest.raises(CatalogError, match="line 3"):
        parse_catalog(text)


def test_non_finite_year_or_duration_reports_line():
    rows = (
        "A,1990,2.0,completed,mafic,\n"
        "{}\n"
        "C,2000,1.0,completed,intermediate,\n"
        "D,2005,3.5,ongoing,evolved,66.0\n"
    )
    for bad, field in (
        ("B,nan,inf,completed,mafic,", "duration"),
        ("B,1995,inf,completed,mafic,", "duration"),
        ("B,nan,2.0,completed,mafic,", "start_year"),
        ("B,-inf,2.0,ongoing,mafic,", "start_year"),
    ):
        with pytest.raises(CatalogError, match=f"line 3: {field} must be finite"):
            parse_catalog(HEADER + rows.format(bad))


def test_duration_days_header_reads_days_as_years():
    rows = "A,1990,730.5,completed,mafic,\nB,1995,7189,ongoing,evolved,70.5\n"
    days = parse_catalog(HEADER.replace("duration_yr", "Duration_Days") + rows)
    assert days.duration.tolist() == [2.0, 7189 / 365.25]
    assert days == parse_catalog(HEADER + "A,1990,2.0,completed,mafic,\n"
                                 f"B,1995,{7189 / 365.25!r},ongoing,evolved,70.5\n")
    # Serialized in years, it reads back equal.
    assert parse_catalog(serialize_catalog(days)) == days


def test_duration_days_bad_row_quotes_the_file():
    header = HEADER.replace("duration_yr", "duration_days")
    text = header + "A,1990,730.5,completed,mafic,\nB,1991,-3,completed,mafic,\n"
    with pytest.raises(CatalogError) as caught:
        parse_catalog(text)
    assert str(caught.value) == "line 3: duration must be finite and > 0, got -3.0 for 'B'"
    # A day count that is 0 years in floating point is named by its line too.
    with pytest.raises(CatalogError, match="line 3: duration must .* got 0.0 for 'B'"):
        parse_catalog(text.replace("-3", "5e-324"))


def test_header_names_both_duration_columns():
    for header in ("volcano,start_year,duration_hr,status,class,silica_pct\n",
                   "volcano,start_year,duration_days,status,class\n"):
        with pytest.raises(CatalogError, match="line 1: expected header .*duration_days"):
            parse_catalog(header + "A,1990,2.0,completed,mafic,\n")


def test_unknown_class_and_status():
    with pytest.raises(CatalogError, match="composition class"):
        parse_catalog(HEADER + "A,1990,2.0,completed,granitic,\n")
    with pytest.raises(CatalogError, match="status"):
        parse_catalog(HEADER + "A,1990,2.0,maybe,mafic,\n")


def test_silica_bounds():
    for silica in ("12.0", "95.0", "nan"):  # NaN is refused, not read as missing
        with pytest.raises(CatalogError, match="line 2: .*silica"):
            parse_catalog(HEADER + f"A,1990,2.0,completed,mafic,{silica}\n")


def test_round_trip(small_catalog):
    text = serialize_catalog(small_catalog)
    again = parse_catalog(text)
    assert again.records == small_catalog.records
    assert serialize_catalog(again) == text


def test_summarize_counts(small_catalog):
    s = summarize(small_catalog)
    assert s.total == s.completed + s.ongoing == 4
    class_totals = sum(v[0] for v in s.by_class.values())
    assert class_totals == s.total


def test_summarize_single_completed():
    text = HEADER + "A,1990,2.0,completed,mafic,\n"
    s = summarize(parse_catalog(text))
    assert (s.total, s.completed, s.ongoing) == (1, 1, 0)


def test_summarize_permutation_invariant(small_catalog):
    reordered = Catalog(tuple(reversed(small_catalog.records)))
    assert summarize(reordered) == summarize(small_catalog)


class TestLongDurationFixture:
    def test_count(self):
        rows = load_fixture_long_durations()
        assert len(rows) == 38

    def test_censored_count(self):
        # 13 starred rows: the 14th ongoing eruption (Sinabung) was under
        # five years and therefore is not part of the long-duration list.
        rows = load_fixture_long_durations()
        assert sum(1 for r in rows if r[3]) == 13

    def test_extremes(self):
        rows = load_fixture_long_durations()
        assert rows[0] == (5.0, 1310, "OKATAINA", False)
        assert rows[-1] == (246.6, 1768, "MERAPI", True)

    def test_sorted_and_bounded(self):
        durations = [r[0] for r in load_fixture_long_durations()]
        assert all(d >= 5.0 for d in durations)
        assert durations == sorted(durations)
