import json
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
    Codebook,
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
    assert ds.labels == ("normal", "smurf")
    assert ds.symbolic["protocol_type"] == ["tcp", "tcp"]
    # the difficulty is validated, then dropped: 38 numeric columns remain
    assert ds.numeric.shape == (2, len(NUMERIC_COLUMNS)) == (2, 38)
    assert not ds.numeric.any()


def test_parse_42_column_variant(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(make_line() + "\n")
    ds = parse_file(path)
    assert ds.labels == ("normal",)
    assert ds.numeric.shape == (1, 38)
    assert {name: ds.symbolic[name] for name in SYMBOLIC_COLUMNS} == {
        "protocol_type": ["tcp"], "service": ["http"], "flag": ["SF"]}


def test_parse_mixed_42_and_43_columns(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(make_line(difficulty=5) + "\n" + make_line(label="pod") + "\n"
                    + make_line(label="land", difficulty=7) + "\n")
    assert parse_file(path).labels == ("normal", "pod", "land")


def test_parse_accepts_utf8_bom(tmp_path):
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(make_line(protocol="udp") + "\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_file(bom).symbolic == parse_file(plain).symbolic
    assert parse_file(bom).symbolic["protocol_type"] == ["udp"]


def test_parse_accepts_trailing_blank_lines(tmp_path):
    path = tmp_path / "trailing.txt"
    path.write_text(make_line() + "\n" + make_line(label="pod") + "\n\n   \n\t\r\n\n")
    assert parse_file(path).labels == ("normal", "pod")


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
    assert a.numeric.tobytes() == b.numeric.tobytes()


def test_parse_error_line_numbers_span_blocks(tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("\n".join([make_line()] * 10 + ["1,2"] + [make_line()]) + "\n")
    with mock.patch.object(nslkdd, "_BLOCK_LINES", 3):
        with pytest.raises(ParseError, match=r"^long\.txt: line 11: "):
            parse_file(path)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert len(parse_file(path)) == 0


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


def test_codebook_round_trip_preserves_order(tmp_path, synth_encoded):
    _, _, book = synth_encoded
    path = tmp_path / "codebook.json"
    book.save(path)
    loaded = Codebook.load(path)
    assert loaded.columns == book.columns
    assert loaded.provenance == book.provenance
    assert loaded.extensions == book.extensions
    for col in book.columns:
        assert list(loaded.columns[col].items()) == list(book.columns[col].items())


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
    return train.features, train.labels, test.features, test.labels, book.to_dict()


def assert_same_load(expected, got):
    exp_train, exp_train_labels, exp_test, exp_test_labels, exp_book = expected
    train, train_labels, test, test_labels, book = got
    assert train.dtype == test.dtype == np.float64
    assert train.tobytes() == exp_train.tobytes()
    assert test.tobytes() == exp_test.tobytes()
    assert train_labels == exp_train_labels
    assert test_labels == exp_test_labels
    # dumped without sort_keys: category and extension order count
    assert json.dumps(book) == json.dumps(exp_book)


@pytest.mark.parametrize("block_lines", [None, 7])
def test_columnar_load_matches_rowwise_reference(synth_files, block_lines):
    train_path, test_path = synth_files
    expected = rowwise_load(train_path, test_path)
    assert expected[4]["extensions"], "the test file should carry an unseen service"
    with mock.patch.object(nslkdd, "_BLOCK_LINES", block_lines or nslkdd._BLOCK_LINES):
        assert_same_load(expected, columnar_load(train_path, test_path))


_token = st.text(alphabet="abcdefgh_ABC-", min_size=1, max_size=4)
_number = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12).map(str),
    st.sampled_from(["0", "0.00", "0.1", "1e3", "-0.0", ".5", "7.", "2.5E-7",
                     "1.7976931348623157e308", "5e-324", "123456789.123456789"]),
)


def _nslkdd_lines(symbols):
    """Lists of NSL-KDD lines, each 42 or 43 columns, with no stray whitespace."""
    def line(parts):
        numbers, symbolic, label, difficulty = parts
        fields = numbers[:1] + symbolic + numbers[1:] + [label]
        return ",".join(fields + ([] if difficulty is None else [str(difficulty)]))

    parts = st.tuples(
        st.lists(_number, min_size=len(NUMERIC_COLUMNS), max_size=len(NUMERIC_COLUMNS)),
        st.lists(symbols, min_size=len(SYMBOLIC_COLUMNS), max_size=len(SYMBOLIC_COLUMNS)),
        _token,
        st.none() | st.integers(min_value=0, max_value=21),
    )
    return st.lists(parts.map(line), min_size=1, max_size=8)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    train=_nslkdd_lines(st.sampled_from(["tcp", "udp", "icmp"])),
    test=_nslkdd_lines(st.sampled_from(["tcp", "udp", "icmp", "igmp", "gre"])),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    block_lines=st.integers(min_value=1, max_value=5),
)
def test_columnar_load_matches_rowwise_reference_property(
        tmp_path, train, test, newline, final_newline, block_lines):
    paths = []
    for name, lines in (("train.txt", train), ("test.txt", test)):
        path = tmp_path / name
        path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
        paths.append(path)
    expected = rowwise_load(*paths)
    with mock.patch.object(nslkdd, "_BLOCK_LINES", block_lines):
        assert_same_load(expected, columnar_load(*paths))


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
