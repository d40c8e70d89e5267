import contextlib
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gafs import nslkdd
from gafs.nslkdd import (
    DOS_ATTACKS,
    FEATURE_NAMES,
    NUMERIC_COLUMNS,
    SYMBOLIC_COLUMNS,
    DegenerateMaskError,
    FeatureMask,
    ParseError,
    build_codebook,
    encode,
    parse_file,
    project,
    relabel,
)

import oracles


def make_line(protocol="tcp", service="http", flag="SF", label="normal",
              difficulty=None):
    row = ["0"] * 41
    row[1], row[2], row[3] = protocol, service, flag
    fields = row + [label]
    if difficulty is not None:
        fields.append(str(difficulty))
    return ",".join(fields)


# ---------------------------------------------------------------- parse_file


def test_parse_counts_and_difficulty(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(make_line(difficulty=21) + "\n" + make_line(label="smurf", difficulty=3) + "\n")
    ds = parse_file(path)
    assert len(ds) == 2
    assert tuple(ds.labels) == ("normal", "smurf")
    assert list(ds.symbolic["protocol_type"]) == ["tcp", "tcp"]
    # the difficulty is validated, then dropped: 38 numeric columns remain
    assert ds.features[:, nslkdd._NUMERIC_INDEX].shape == (2, len(NUMERIC_COLUMNS)) == (2, 38)
    assert not ds.features[:, nslkdd._NUMERIC_INDEX].any()


def test_parse_42_column_variant(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(make_line() + "\n")
    ds = parse_file(path)
    assert tuple(ds.labels) == ("normal",)
    assert ds.features[:, nslkdd._NUMERIC_INDEX].shape == (1, 38)
    assert {name: list(ds.symbolic[name]) for name in SYMBOLIC_COLUMNS} == {
        "protocol_type": ["tcp"], "service": ["http"], "flag": ["SF"]}


def test_parse_mixed_42_and_43_columns(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(make_line(difficulty=5) + "\n" + make_line(label="pod") + "\n"
                    + make_line(label="land", difficulty=7) + "\n")
    assert tuple(parse_file(path).labels) == ("normal", "pod", "land")


def test_parse_accepts_utf8_bom(tmp_path):
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(make_line(protocol="udp") + "\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_file(bom).symbolic == parse_file(plain).symbolic
    assert list(parse_file(bom).symbolic["protocol_type"]) == ["udp"]


def test_parse_accepts_trailing_blank_lines(tmp_path):
    path = tmp_path / "trailing.txt"
    path.write_text(make_line() + "\n" + make_line(label="pod") + "\n\n   \n\t\r\n\n")
    assert tuple(parse_file(path).labels) == ("normal", "pod")


def test_parse_interior_blank_line_names_file_and_line(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text(make_line() + "\n  \n" + make_line() + "\n")
    with pytest.raises(ParseError, match=r"^gap\.txt: line 2: blank line"):
        parse_file(path)


def test_parse_strips_whitespace_around_symbolic_fields(tmp_path):
    path = tmp_path / "spaced.txt"
    path.write_text(make_line(protocol=" tcp", service="http ", flag=" SF ") + "\n"
                    + make_line() + "\n")
    raw = parse_file(path)
    book = build_codebook(raw)
    assert book.columns == {"protocol_type": {"tcp": 0}, "service": {"http": 0}, "flag": {"SF": 0}}
    features = encode(raw, book).features
    assert np.array_equal(features[0], features[1])


def test_parse_whitespace_only_symbolic_field_is_empty(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(make_line() + "\n" + make_line(service="  ") + "\n")
    with pytest.raises(ParseError, match=r"^bad\.txt: line 2: column 'service': empty field"):
        parse_file(path)


def test_parse_splits_lines_on_newline_only(tmp_path):
    # str.splitlines would also break at these characters and shift the count
    path = tmp_path / "odd.txt"
    path.write_text(make_line(label="nor\x0bm\x1cal\x85\u2028") + "\n" + "1,2,3\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match=r"^odd\.txt: line 2: "):
        parse_file(path)


def test_parse_crlf_matches_lf(tmp_path):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lines = [make_line(difficulty=1), make_line(protocol="udp", label="pod")]
    lf.write_bytes(("\n".join(lines) + "\n").encode())
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    a, b = parse_file(lf), parse_file(crlf)
    assert a.labels == b.labels
    assert a.symbolic == b.symbolic
    numeric = nslkdd._NUMERIC_INDEX
    assert a.features[:, numeric].tobytes() == b.features[:, numeric].tobytes()


def test_parse_error_line_numbers_span_blocks(tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("\n".join([make_line()] * 10 + ["1,2"] + [make_line()]) + "\n")
    with mock.patch.object(nslkdd, "_BLOCK_LINES", 3):
        with pytest.raises(ParseError, match=r"^long\.txt: line 11: "):
            parse_file(path)


def test_parse_empty_file(tmp_path):
    empty, blank = tmp_path / "empty.txt", tmp_path / "blank.txt"
    empty.write_text("")
    blank.write_text("\n  \n\t\r\n")
    # np.loadtxt warns on empty input, so parse_file must not call it here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in (empty, blank):
            raw = parse_file(path)
            assert len(raw) == 0
            assert raw.features[:, nslkdd._NUMERIC_INDEX].shape == (0, len(NUMERIC_COLUMNS))


def test_parse_wrong_column_count_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(make_line() + "\n" + "1,2,3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_file(path)


def test_parse_empty_field_names_line(tmp_path):
    fields = make_line().split(",")
    fields[5] = ""
    path = tmp_path / "bad.txt"
    path.write_text(",".join(fields) + "\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_file(path)


def test_parse_empty_label_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(make_line(label=" ") + "\n")
    with pytest.raises(ParseError, match="label"):
        parse_file(path)


def test_parse_bad_difficulty_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(make_line(difficulty="x") + "\n")
    with pytest.raises(ParseError, match="difficulty"):
        parse_file(path)


def test_parse_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_file(tmp_path / "nope.txt")


# ------------------------------------------- C reader against block checker


def with_field(column, value, **fields):
    """make_line(**fields) with the field in file ``column`` set to ``value``."""
    parts = make_line(**fields).split(",")
    parts[column] = value
    return ",".join(parts)


def parse_outcome(path):
    """parse_file's numeric bytes, symbolic values and labels, or its error."""
    try:
        raw = parse_file(path)
    except ParseError as error:
        return str(error)
    numeric = raw.features[:, nslkdd._NUMERIC_INDEX]
    return numeric.dtype, numeric.shape, numeric.tobytes(), raw.symbolic, raw.labels


_LINE, _LINE_43 = make_line(), make_line(label="pod", difficulty=7)

# (file text, whether parse_file must fall back to the block checker)
_READER_CASES = {
    # float() accepts these and np.loadtxt rejects them; the checker refuses them
    "underscore": (with_field(0, "1_0") + "\n", True),
    "arabic-indic digits": (with_field(4, "\u0661\u0662") + "\n", True),
    "fullwidth digits": (with_field(5, "\uff11\uff12") + "\n", True),
    "field ending in cr": (with_field(0, "3\r") + "\n", True),
    "cr inside a label": (make_line(label="nor\rmal") + "\n", True),
    # np.loadtxt accepts these as whitespace around a number; float() does not
    "file separator around a number": (with_field(0, "\x1c1") + "\n", True),
    "unit separator after a number": (with_field(4, "1\x1f") + "\n", True),
    # a fixed-width string array would drop the trailing NULs
    "trailing nul in a label": (make_line(label="normal\x00") + "\n", False),
    "nul in a number": (with_field(4, "1\x00") + "\n", True),
    # plain text to both readers
    "hash in a label": (make_line(label="nor#mal") + "\n" + _LINE + "\n", False),
    "quotes in a label": (make_line(label='"normal"') + "\n" + _LINE + "\n", False),
    "quote in a service": (make_line(service='ht"tp') + "\n", False),
    "spaced symbolic fields": (make_line(protocol=" tcp", flag="SF ") + "\n", False),
    "spaced numbers": (with_field(0, " 7 ") + "\n", False),
    # defects, worded by the block checker
    "ragged row": (_LINE + "\n1,2,3\n" + _LINE + "\n", True),
    "too many columns": (_LINE + "\n" + _LINE_43 + ",9\n", True),
    # the read's dtype has a field per column, so it refuses these lines itself
    "one column more in a 43-column file": (f"{_LINE_43}\n{_LINE_43},9\n{_LINE_43}\n", True),
    "one column fewer in a 42-column file": (f"{_LINE}\n{_LINE[:_LINE.rindex(',')]}\n{_LINE}\n",
                                             True),
    "interior blank line": (_LINE + "\n\n" + _LINE + "\n", True),
    "whitespace-only line": (_LINE + "\n \t\n" + _LINE + "\n", True),
    "blank line beside a long one": (_LINE + "\n\n" + _LINE + ",0" * 41 + "\n", True),
    "empty numeric field": (with_field(5, "") + "\n", True),
    "blank service": (make_line(service=" ") + "\n", True),
    "blank label": (_LINE + "\n" + make_line(label="  ") + "\n", True),
    "non-finite number": (_LINE + "\n" + with_field(4, "1e999") + "\n", True),
    "bad difficulty": (_LINE_43 + "\n" + make_line(difficulty="7.5") + "\n", True),
    # accepted variants; a file that mixes 42 and 43 columns goes to the checker
    "crlf": (_LINE_43 + "\r\n" + _LINE + "\r\n", True),
    "mixed 42 and 43 columns": ("\n".join([_LINE, _LINE_43, _LINE, _LINE_43]) + "\n", True),
    "spaced difficulty": (make_line(difficulty=" 3 ") + "\n", False),
    "bom": ("\ufeff" + _LINE_43 + "\n" + _LINE + "\n\n", True),
    # whole numbers the int64 read refuses, read by the checker; -0 keeps its sign
    "negative zero count": (with_field(4, "-0") + "\n", True),
    "decimal count": (with_field(0, "3.5") + "\n", True),
    "count past int64": (with_field(4, "99999999999999999999") + "\n", True),
    # int() accepts it and the int64 read does not; the checker refuses it
    "underscored difficulty": (make_line(difficulty="1_0") + "\n", True),
    # and ones it reads, to the checker's float64
    "signed count": (with_field(22, "+7") + "\n", False),
    "count past 2**53": (with_field(4, str(2**53 + 1)) + "\n", False),
}


@pytest.mark.parametrize("case", _READER_CASES)
def test_c_reader_matches_block_checker(tmp_path, case):
    text, falls_back = _READER_CASES[case]
    path = tmp_path / "case.txt"
    path.write_bytes(text.encode())
    with mock.patch.object(nslkdd, "_parse_block", wraps=nslkdd._parse_block) as spy:
        got = parse_outcome(path)
    assert spy.called == falls_back
    with mock.patch.object(nslkdd, "_load_columns", return_value=None):
        expected = parse_outcome(path)
    assert got == expected


@pytest.mark.parametrize("case", _READER_CASES)
def test_c_reader_warns_of_nothing(tmp_path, case):
    path = tmp_path / "case.txt"
    path.write_bytes(_READER_CASES[case][0].encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_outcome(path)
    assert [str(warning.message) for warning in caught] == []


@pytest.mark.parametrize("value", ["1_0", "0.5_0", "\u0663", " \uff17 "])
@pytest.mark.parametrize("column", [0, 4, 24])  # duration, src_bytes, serror_rate
@pytest.mark.parametrize("reader", ["C reader", "block checker"])
def test_numbers_with_underscores_or_non_ascii_digits_are_refused(tmp_path, value, column,
                                                                  reader):
    # float() reads each of these ("1_0" as 10 and "\u0663" as 3); numpy's C read does not
    path = tmp_path / "case.txt"
    path.write_text(_LINE + "\n" + with_field(column, value) + "\n", encoding="utf-8")
    checker = (mock.patch.object(nslkdd, "_load_columns", return_value=None)
               if reader == "block checker" else contextlib.nullcontext())
    message = (f"case.txt: line 2: column {FEATURE_NAMES[column]!r}: "
               f"cannot parse {value!r} as a number")
    with checker, pytest.raises(ParseError) as err:
        parse_file(path)
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_difficulty_with_underscores_or_non_ascii_digits_is_refused(tmp_path, value):
    path = tmp_path / "case.txt"
    path.write_text(_LINE_43 + "\n" + make_line(difficulty=value) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_file(path)
    assert str(err.value) == f"case.txt: line 2: difficulty column {value!r} is not an integer"


@pytest.mark.parametrize("reader", ["C reader", "block checker"])
def test_unicode_space_around_a_number_is_stripped(tmp_path, reader):
    path = tmp_path / "case.txt"
    padded = make_line(difficulty="\u2003 3").split(",")
    padded[0], padded[24] = "\u2003 5", "0.5\u2003"
    path.write_text(",".join(padded) + "\n", encoding="utf-8")
    checker = (mock.patch.object(nslkdd, "_load_columns", return_value=None)
               if reader == "block checker" else contextlib.nullcontext())
    with checker:
        raw = parse_file(path)
    assert (raw.features[0, 0], raw.features[0, 24]) == (5.0, 0.5)


# lines that differ in a number, the service and the label, so a block read
# into the wrong rows shows; with 1-3 line blocks line 8 is in the last block
_VARIED = [with_field(0, str(i), service=("http", "ftp", "smtp")[i % 3],
                      label=("normal", "pod")[i % 2], difficulty=i) for i in range(7)]
_MIXED = [line.rpartition(",")[0] if i % 3 else line for i, line in enumerate(_VARIED)]

# (file lines, whether parse_file must fall back to the block checker)
_BLOCK_CASES = {
    "mixed 42 and 43 columns across blocks": (_MIXED, True),
    "one column more in the last block": (_VARIED + [_VARIED[0] + ",0"], True),
    "one column fewer in the last block": (_VARIED + [_VARIED[0].rpartition(",")[0]], True),
    "float-only number in the last block": (_VARIED + [with_field(0, "1_0", difficulty=7)], True),
    "non-finite number in the last block": (_VARIED + [with_field(4, "1e999", difficulty=7)], True),
    "blank label in the last block": (_VARIED + [make_line(label=" ", difficulty=7)], True),
    "bad difficulty in the last block": (_VARIED + [make_line(difficulty="7.5")], True),
    "bad difficulty in the last block of a mixed file": (_MIXED + [make_line(difficulty="x")], True),
}


@pytest.mark.parametrize("block_lines", [1, 2, 3])
@pytest.mark.parametrize("case", [*_READER_CASES, *_BLOCK_CASES])
def test_c_reader_outcome_does_not_depend_on_block_size(tmp_path, case, block_lines):
    if case in _READER_CASES:
        text, falls_back = _READER_CASES[case]
    else:
        lines, falls_back = _BLOCK_CASES[case]
        text = "\n".join(lines) + "\n"
    path = tmp_path / "case.txt"
    path.write_bytes(text.encode())
    outcomes = []
    for size in (nslkdd._BLOCK_LINES, block_lines):
        with mock.patch.object(nslkdd, "_BLOCK_LINES", size), \
                mock.patch.object(nslkdd, "_parse_block", wraps=nslkdd._parse_block) as spy:
            outcomes.append(parse_outcome(path))
        assert spy.called == falls_back
    assert outcomes[1] == outcomes[0]
    if case in _BLOCK_CASES and isinstance(outcomes[0], str):  # a defect, worded
        assert outcomes[0].startswith("case.txt: line 8: ")


def test_c_reader_short_block_falls_back(tmp_path):
    path = tmp_path / "case.txt"
    path.write_text("\n".join(_VARIED) + "\n")
    expected = parse_outcome(path)
    loadtxt = np.loadtxt
    with mock.patch.object(nslkdd, "_BLOCK_LINES", 3), \
            mock.patch.object(np, "loadtxt", lambda *args, **kwargs: loadtxt(*args, **kwargs)[1:]), \
            mock.patch.object(nslkdd, "_parse_block", wraps=nslkdd._parse_block) as spy:
        assert parse_outcome(path) == expected
    assert spy.called


def test_c_reader_reads_whole_numbers_and_difficulty_as_int64(tmp_path):
    path = tmp_path / "clean.txt"
    path.write_text("\n".join(_VARIED) + "\n")
    reads = []
    loadtxt = np.loadtxt

    def spy(lines, dtype, **kwargs):
        # one field per run of columns, in file order: the read takes every column
        assert "usecols" not in kwargs
        kinds = [dtype[name].base for name in dtype.names for _ in range(dtype[name].shape[0])]
        assert len(kinds) == len(FEATURE_NAMES) + 2
        reads.append(dict(enumerate(kinds)))
        return loadtxt(lines, dtype, **kwargs)

    with mock.patch.object(np, "loadtxt", spy):
        parse_outcome(path)
    whole = {FEATURE_NAMES.index(name) for name in NUMERIC_COLUMNS if not name.endswith("_rate")}
    assert len(whole) == 23
    assert reads
    for kinds in reads:
        assert {column for column, kind in kinds.items() if kind == np.int64} == whole | {42}


# ------------------------------------------------------------------ codebook


def test_codebook_first_appearance_order(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text(
        make_line(protocol="udp") + "\n"
        + make_line(protocol="tcp") + "\n"
        + make_line(protocol="icmp") + "\n"
        + make_line(protocol="tcp") + "\n"
    )
    book = build_codebook(parse_file(path))
    assert book.columns["protocol_type"] == {"udp": 0, "tcp": 1, "icmp": 2}


def test_codebook_codes_contiguous_from_zero(synth_encoded):
    _, _, book = synth_encoded
    for mapping in book.columns.values():
        assert sorted(mapping.values()) == list(range(len(mapping)))


def test_codebook_rebuild_is_identical(synth_files):
    train_path, _ = synth_files
    a = build_codebook(parse_file(train_path))
    b = build_codebook(parse_file(train_path))
    assert a.columns == b.columns
    for col in a.columns:
        assert list(a.columns[col].items()) == list(b.columns[col].items())


def test_codebook_save_keeps_category_and_extension_order(tmp_path, synth_encoded):
    _, _, book = synth_encoded
    assert book.extensions, "the synthetic test file should extend the codebook"
    path = tmp_path / "codebook.json"
    book.save(path)
    text = path.read_text()
    assert text == json.dumps(book.to_dict(), indent=2) + "\n"
    doc = json.loads(text)
    assert doc["built_from"] == book.provenance
    for col in book.columns:
        assert list(doc["columns"][col].items()) == list(book.columns[col].items())
    assert doc["extensions"] == [list(e) for e in book.extensions]


# -------------------------------------------------------------------- encode


def test_encode_symbolic_lookup(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(make_line(protocol="udp") + "\n" + make_line(protocol="tcp") + "\n")
    raw = parse_file(path)
    ds = encode(raw, build_codebook(raw))
    assert ds.features[0, 1] == 0.0
    assert ds.features[1, 1] == 1.0


def test_encode_training_set_never_grows_codebook(synth_files):
    train_path, _ = synth_files
    raw = parse_file(train_path)
    book = build_codebook(raw)
    sizes = {col: len(m) for col, m in book.columns.items()}
    encode(raw, book)
    assert {col: len(m) for col, m in book.columns.items()} == sizes
    assert book.extensions == []


def test_encode_unseen_category_appends_and_warns(synth_files):
    train_path, test_path = synth_files
    raw_train = parse_file(train_path)
    book = build_codebook(raw_train)
    k = len(book.columns["service"])
    assert "telnet" not in book.columns["service"]
    encode(parse_file(test_path), book)
    assert book.columns["service"]["telnet"] == k
    assert ("service", "telnet", k) in book.extensions
    assert any("telnet" in w for w in book.warnings())


def test_parse_bad_numeric_names_file_line_and_column(tmp_path):
    fields = make_line().split(",")
    fields[0] = "abc"
    path = tmp_path / "bad.txt"
    path.write_text(make_line() + "\n" + ",".join(fields) + "\n")
    with pytest.raises(ParseError, match=r"^bad\.txt: line 2: column 'duration': .*'abc'"):
        parse_file(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_parse_non_finite_names_file_line_and_column(tmp_path, value):
    fields = make_line().split(",")
    fields[4] = value
    path = tmp_path / "bad.txt"
    path.write_text(make_line() + "\n" + make_line() + "\n" + ",".join(fields) + "\n")
    with pytest.raises(ParseError,
                       match=r"^bad\.txt: line 3: column 'src_bytes': .* not finite"):
        parse_file(path)


def test_encode_is_deterministic(synth_files):
    train_path, _ = synth_files
    raw = parse_file(train_path)
    a = encode(raw, build_codebook(raw))
    b = encode(parse_file(train_path), build_codebook(parse_file(train_path)))
    assert np.array_equal(a.features, b.features)
    assert a.labels == b.labels


def test_second_encode_leaves_the_first_dataset_unchanged(synth_files):
    train_path, _ = synth_files
    raw = parse_file(train_path)
    numeric = raw.features[:, nslkdd._NUMERIC_INDEX]
    book = build_codebook(raw)
    first = encode(raw, book)
    assert first.features is raw.features  # the first encode takes the matrix
    kept = first.features.copy()
    reversed_book = nslkdd.Codebook({name: {value: code for code, value in
                                            enumerate(reversed(mapping))}
                                     for name, mapping in book.columns.items()})
    second = encode(raw, reversed_book)
    assert second.features is not first.features
    assert first.features.tobytes() == kept.tobytes()
    symbolic = [FEATURE_NAMES.index(name) for name in SYMBOLIC_COLUMNS]
    assert not np.array_equal(second.features[:, symbolic], kept[:, symbolic])
    for name, j in zip(SYMBOLIC_COLUMNS, symbolic):
        mapping = reversed_book.columns[name]
        assert second.features[:, j].tolist() == [mapping[v] for v in raw.symbolic[name]]
    assert np.array_equal(raw.features[:, nslkdd._NUMERIC_INDEX], numeric)
    assert np.array_equal(np.delete(second.features, symbolic, axis=1), numeric)
    assert encode(raw, book).features.tobytes() == kept.tobytes()


# ---------------------------------------------------- row-wise reference load


def rowwise_load(train_path, test_path):
    """(train features, train labels, test features, test labels, codebook doc)."""
    train = oracles.rowwise_parse(train_path, len(FEATURE_NAMES), role="training")
    test = oracles.rowwise_parse(test_path, len(FEATURE_NAMES), role="test")
    book = oracles.rowwise_codebook(train, FEATURE_NAMES, SYMBOLIC_COLUMNS)
    train_features, train_labels = oracles.rowwise_encode(
        train, book, FEATURE_NAMES, SYMBOLIC_COLUMNS)
    test_features, test_labels = oracles.rowwise_encode(
        test, book, FEATURE_NAMES, SYMBOLIC_COLUMNS)
    return train_features, train_labels, test_features, test_labels, book


def columnar_load(train_path, test_path):
    train_raw = parse_file(train_path, role="training")
    test_raw = parse_file(test_path, role="test")
    book = build_codebook(train_raw)
    train, test = encode(train_raw, book), encode(test_raw, book)
    return train.features, tuple(train.labels), test.features, tuple(test.labels), book.to_dict()


def assert_same_load(expected, got):
    exp_train, exp_train_labels, exp_test, exp_test_labels, exp_book = expected
    train, train_labels, test, test_labels, book = got
    assert train.dtype == test.dtype == np.float64
    # the matrix the load wrote is column-major, and equals the row-wise one
    assert train.flags.f_contiguous and test.flags.f_contiguous
    assert train.tobytes() == exp_train.tobytes()
    assert test.tobytes() == exp_test.tobytes()
    assert train_labels == exp_train_labels
    assert test_labels == exp_test_labels
    # dumped without sort_keys: category and extension order count
    assert json.dumps(book) == json.dumps(exp_book)


@pytest.mark.parametrize("reader", ["C reader", "block checker"])
@pytest.mark.parametrize("block_lines", [None, 7])
def test_columnar_load_matches_rowwise_reference(synth_files, block_lines, reader):
    train_path, test_path = synth_files
    expected = rowwise_load(train_path, test_path)
    assert expected[4]["extensions"], "the test file should carry an unseen service"
    checker = (mock.patch.object(nslkdd, "_load_columns", return_value=None)
               if reader == "block checker" else contextlib.nullcontext())
    with mock.patch.object(nslkdd, "_BLOCK_LINES", block_lines or nslkdd._BLOCK_LINES), \
            checker, mock.patch.object(nslkdd, "_parse_block", wraps=nslkdd._parse_block) as spy:
        assert_same_load(expected, columnar_load(train_path, test_path))
    assert spy.called == (reader == "block checker")


_token = st.text(alphabet="abcdefgh_ABC-", min_size=1, max_size=4)
_number = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12).map(str),
    st.sampled_from(["0", "0.00", "0.1", "1e3", "-0.0", ".5", "7.", "2.5E-7",
                     "1.7976931348623157e308", "5e-324", "123456789.123456789"]),
)
# whole numbers within int64, past 2**53 too
_whole_number = st.integers(min_value=-10**18, max_value=10**18).map(str)


def _nslkdd_lines(symbols, whole=_number,
                  difficulty=st.none() | st.integers(min_value=0, max_value=21)):
    """Lists of NSL-KDD lines, each 42 or 43 columns, with no stray whitespace;
    the 23 whole-number columns are drawn from ``whole``, the rates from
    ``_number``, and each line's difficulty (None for none) from ``difficulty``."""
    def line(parts):
        numbers, symbolic, label, difficulty = parts
        fields = numbers[:1] + symbolic + numbers[1:] + [label]
        return ",".join(fields + ([] if difficulty is None else [str(difficulty)]))

    parts = st.tuples(
        st.tuples(*(_number if name.endswith("_rate") else whole
                    for name in NUMERIC_COLUMNS)).map(list),
        st.lists(symbols, min_size=len(SYMBOLIC_COLUMNS), max_size=len(SYMBOLIC_COLUMNS)),
        _token,
        difficulty,
    )
    return st.lists(parts.map(line), min_size=1, max_size=8)


# numbers that float(), and so the row-wise reference, reads but np.loadtxt
# rejects: a file holding one is parsed by the block checker, which refuses it
_float_only_number = st.sampled_from(["1_0", "1_000.5", "\u0661\u0662", "\u0663.\u0665",
                                      "\uff11\uff12", "-\uff17"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    train=_nslkdd_lines(st.sampled_from(["tcp", "udp", "icmp"])),
    test=_nslkdd_lines(st.sampled_from(["tcp", "udp", "icmp", "igmp", "gre"])),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    block_lines=st.integers(min_value=1, max_value=5),
    float_only=st.none() | st.tuples(
        _float_only_number, st.integers(min_value=0, max_value=7),
        st.sampled_from(nslkdd._NUMERIC_INDEX)),
)
def test_columnar_load_matches_rowwise_reference_property(
        tmp_path, train, test, newline, final_newline, block_lines, float_only):
    if float_only is not None:  # put the number into one field of the training file
        number, row, column = float_only
        train, row = list(train), row % len(train)
        fields = train[row].split(",")
        fields[column] = number
        train[row] = ",".join(fields)
    paths = []
    for name, lines in (("train.txt", train), ("test.txt", test)):
        path = tmp_path / name
        path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
        paths.append(path)
    with mock.patch.object(nslkdd, "_BLOCK_LINES", block_lines), \
            mock.patch.object(nslkdd, "_parse_block", wraps=nslkdd._parse_block) as spy:
        if float_only is None:
            assert_same_load(rowwise_load(*paths), columnar_load(*paths))
            return
        with pytest.raises(ParseError) as err:
            columnar_load(*paths)
    assert "train.txt" in {call.args[1] for call in spy.call_args_list}
    assert str(err.value) == (f"train.txt: line {row + 1}: column {FEATURE_NAMES[column]!r}: "
                              f"cannot parse {number!r} as a number")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # one width per file: train with a difficulty on every line, test with none
    train=_nslkdd_lines(st.sampled_from(["tcp", "udp", "icmp"]), whole=_whole_number,
                        difficulty=st.integers(min_value=0, max_value=21)),
    test=_nslkdd_lines(st.sampled_from(["tcp", "udp", "icmp", "igmp", "gre"]),
                       whole=_whole_number, difficulty=st.none()),
    newline=st.sampled_from(["\n", "\r\n"]),
    block_lines=st.integers(min_value=1, max_value=5),
)
def test_int64_read_matches_rowwise_reference_property(tmp_path, train, test, newline, block_lines):
    names = ("train.txt", "test.txt")
    texts = [newline.join(lines) + newline for lines in (train, test)]
    paths = []
    for name, text in zip(names, texts):
        path = tmp_path / name
        path.write_bytes(text.encode())
        paths.append(path)
    expected = rowwise_load(*paths)
    reads = []
    load = nslkdd._load_columns

    def spy(lines, difficulty):
        loaded = load(lines, difficulty)
        reads.append((difficulty, loaded is not None))
        return loaded

    with mock.patch.object(nslkdd, "_BLOCK_LINES", block_lines), \
            mock.patch.object(nslkdd, "_load_columns", spy), \
            mock.patch.object(nslkdd, "_parse_block", wraps=nslkdd._parse_block) as checker:
        assert_same_load(expected, columnar_load(*paths))
    # the C reader serves each file, unless a "-0" (a rate's -0.0) sends it to
    # the checker; it reads the training file's difficulty
    clean = ["-0" not in text for text in texts]
    assert reads == [(name == "train.txt", True) for name, ok in zip(names, clean) if ok]
    checked = {call.args[1] for call in checker.call_args_list}
    assert checked == {name for name, ok in zip(names, clean) if not ok}


# ------------------------------------------------------------------- relabel


def test_relabel_target_vs_rest(synth_encoded):
    train, _, _ = synth_encoded
    binary = relabel(train, {"flood"})
    expected = np.array([lbl == "flood" for lbl in train.labels])
    assert np.array_equal(binary.targets, expected)
    assert len(binary) == len(train)


def test_relabel_other_attacks_are_negative(synth_encoded):
    train, _, _ = synth_encoded
    binary = relabel(train, {"flood"})
    burst_rows = [i for i, lbl in enumerate(train.labels) if lbl == "burst"]
    assert burst_rows, "fixture should contain the other attack"
    assert not binary.targets[burst_rows].any()


def test_relabel_case_insensitive_and_trimmed(synth_encoded):
    train, _, _ = synth_encoded
    a = relabel(train, {"flood"})
    b = relabel(train, {" FLOOD "})
    assert np.array_equal(a.targets, b.targets)


def test_relabel_empty_target_set_rejected(synth_encoded):
    train, _, _ = synth_encoded
    with pytest.raises(ValueError, match="empty"):
        relabel(train, set())


# ------------------------------------------------------------------- project


def test_project_all_ones_is_identity(synth_flood):
    train, _ = synth_flood
    out = project(train, FeatureMask.all_on())
    assert np.array_equal(out.features, train.features)
    assert out.feature_names == train.feature_names


def test_project_single_column(synth_flood):
    train, _ = synth_flood
    out = project(train, FeatureMask.from_names(["land"]))
    assert out.features.shape == (len(train), 1)
    assert out.feature_names == ("land",)


def test_project_column_count_matches_mask(synth_flood):
    train, _ = synth_flood
    mask = FeatureMask.from_names(["duration", "src_bytes", "count"])
    out = project(train, mask)
    assert out.features.shape[1] == mask.selected_count


def test_project_is_idempotent(synth_flood):
    train, _ = synth_flood
    mask = FeatureMask.from_names(["protocol_type", "wrong_fragment"])
    once = project(train, mask)
    twice = project(once, mask)
    assert np.array_equal(once.features, twice.features)
    assert once.feature_names == twice.feature_names


def test_project_all_zero_mask_rejected(synth_flood):
    train, _ = synth_flood
    with pytest.raises(DegenerateMaskError):
        project(train, FeatureMask((False,) * 41))


def test_project_leaves_input_unmodified(synth_flood):
    train, _ = synth_flood
    before = train.features.copy()
    out = project(train, FeatureMask.from_names(["duration"]))
    out.features[:] = -1.0
    assert np.array_equal(train.features, before)


# --------------------------------------------------------------- FeatureMask


def test_mask_requires_41_genes():
    with pytest.raises(ValueError):
        FeatureMask((True,) * 40)


def test_mask_from_names_rejects_unknown():
    with pytest.raises(ValueError, match="unknown feature"):
        FeatureMask.from_names(["duration", "no_such_feature"])


def test_mask_bits_round_trip():
    mask = FeatureMask.from_indices([0, 6, 40])
    assert mask.selected_count == 3
    assert FeatureMask.from_bits(mask.bits()) == mask
    assert mask.selected_names() == ("duration", "land", "dst_host_srv_rerror_rate")


@pytest.mark.parametrize("indices, bad", [([50, -1], "-1, 50"), ([0, 41], "41"),
                                          ([0, 1.5], "1.5")])
def test_mask_from_indices_rejects_indices_outside_the_features(indices, bad):
    with pytest.raises(ValueError, match=rf"^feature index\(es\) {bad} outside 0\.\.40$"):
        FeatureMask.from_indices(indices)


@pytest.mark.parametrize("gene", ["0", "1", "", 2, -1, 0.0, 1.0, None, np.int64(2)])
def test_mask_rejects_genes_other_than_bools_and_0_1(gene):
    with pytest.raises(ValueError,
                       match=rf"^mask genes must be bools or 0/1, got {re.escape(repr(gene))}$"):
        FeatureMask((True,) * 40 + (gene,))
    with pytest.raises(ValueError, match="mask genes must be bools or 0/1"):
        FeatureMask((gene,) * 41)
    with pytest.raises(ValueError, match="mask genes must be bools or 0/1"):
        FeatureMask.from_array([gene] * 41)


def test_mask_stores_bools_and_0_1_as_bools():
    mask = FeatureMask((1, 0, np.True_, np.False_, np.int64(1), np.uint8(0)) + (False,) * 35)
    assert mask.genes == (True, False, True, False, True, False) + (False,) * 35
    assert all(type(g) is bool for g in mask.genes) and mask.selected_count == 3
    assert FeatureMask.from_array(np.array(mask.genes, dtype=np.int8)) == mask


@pytest.mark.parametrize("bits", ["1" * 40 + "x", "1 " * 20 + "1", "1" * 40 + "2"])
def test_mask_from_bits_rejects_other_characters(bits):
    with pytest.raises(ValueError, match="mask bits must be '0' or '1'"):
        FeatureMask.from_bits(bits)


def test_report_aliases_are_a_bijection_off_the_canonical_names():
    from gafs.nslkdd import REPORT_ALIASES

    assert set(REPORT_ALIASES) <= set(FEATURE_NAMES)
    aliases = list(REPORT_ALIASES.values())
    assert len(set(aliases)) == len(aliases)
    # an alias may never shadow a different canonical feature
    for canonical, alias in REPORT_ALIASES.items():
        assert alias not in FEATURE_NAMES


# ---------------------------------------------------------------- real data


@pytest.mark.real_data
def test_real_row_counts(real_encoded):
    train, test, _ = real_encoded
    assert len(train) == 125_973
    assert len(test) == 22_544


@pytest.mark.real_data
def test_real_per_attack_test_counts(real_encoded):
    _, test, _ = real_encoded
    expected = {
        "neptune": 4657, "smurf": 665, "back": 359,
        "teardrop": 12, "pod": 41, "land": 7,
    }
    for attack, count in expected.items():
        binary = relabel(test, {attack})
        assert int(binary.targets.sum()) == count, attack


@pytest.mark.real_data
def test_real_dos_total_positives(real_encoded):
    _, test, _ = real_encoded
    binary = relabel(test, DOS_ATTACKS)
    assert int(binary.targets.sum()) == 5741
