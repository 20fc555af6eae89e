"""Word-vector pooling, precomputed embeddings, and language fallback."""

import json
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from polyemo import dense_features
from polyemo.dense_features import (
    DEFAULT_PROMPT_TEMPLATE,
    EmbeddingTable,
    FallbackPolicy,
    LlmBackendConfig,
    OovReport,
    embed_documents,
    http_transport,
    load_precomputed_embeddings,
    load_word_vectors,
    parse_reply,
    render_prompt,
    resolve_language,
)
from polyemo.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    FormatError,
    PolyemoError,
    ResolutionError,
    TransportError,
)


def write_vectors(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def row_of(table, token):
    """The row of ``token`` in ``table``, -1 if it holds none."""
    return int(table.lookup([token])[0])


class TestLoadWordVectors:
    def test_with_header(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "2 3\na 1 0 0\nb 0 1 0\n")
        table = load_word_vectors(p)
        assert table.dimension == 3
        assert sorted(table.tokens) == ["a", "b"]
        np.testing.assert_array_equal(table.matrix[row_of(table, "a")], [1.0, 0.0, 0.0])

    def test_without_header(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1.5 -2\nb 0 4\n")
        table = load_word_vectors(p)
        assert table.dimension == 2
        np.testing.assert_array_equal(table.matrix[row_of(table, "a")], [1.5, -2.0])

    def test_leading_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "\ufeffhello 1 2\nworld 3 4\n")
        table = load_word_vectors(p)
        assert table.tokens[0] == "hello"
        np.testing.assert_array_equal(table.matrix[row_of(table, "hello")], [1.0, 2.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(FormatError, match="line 3"):
            load_word_vectors(p)

    def test_non_numeric_value(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1 oops\n")
        with pytest.raises(FormatError, match="line 1"):
            load_word_vectors(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value(self, tmp_path, value):
        p = write_vectors(tmp_path / "v.vec", f"a 1 2\nb {value} 1\n")
        with pytest.raises(FormatError, match=r"v\.vec: line 2: non-finite"):
            load_word_vectors(p)

    def test_duplicate_token_overwrites(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1 1\na 2 2\n")
        table = load_word_vectors(p)
        np.testing.assert_array_equal(table.matrix[row_of(table, "a")], [2.0, 2.0])

    def test_empty_file(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "")
        with pytest.raises(FormatError, match="no vector entries"):
            load_word_vectors(p)

    def test_not_utf8_names_its_line(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_bytes(b"a 1 2\nb 3 4\n\xff\xfe 1 2\n")
        with pytest.raises(FormatError, match=r"v\.vec: line 3: not UTF-8"):
            load_word_vectors(p)

    def test_not_utf8_past_the_first_read_names_its_line(self, tmp_path):
        # the text layer decodes whole chunks, so the line is found apart
        p = tmp_path / "v.vec"
        lines = [f"w{i} {i}.5 -1".encode() for i in range(3000)]
        lines[2500] = b"caf\xe9 1 2"
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FormatError, match=r"line 2501: not UTF-8"):
            load_word_vectors(p)

    def test_missing_file_names_its_path(self, tmp_path):
        p = tmp_path / "nope.vec"
        with pytest.raises(DataError, match=f"cannot read {p}: "):
            load_word_vectors(p)

    def test_language_tag_kept(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1 2\n")
        assert load_word_vectors(p, language="swa").language == "swa"

    def test_non_decimal_header_is_an_entry_line(self, tmp_path):
        # "²".isdigit() holds but int("²") fails: the line is an entry, not a header
        p = write_vectors(tmp_path / "v.vec", "3 \u00b2\na 1\n")
        with pytest.raises(FormatError, match=r"v\.vec: line 1: could not convert"):
            load_word_vectors(p)

    def test_header_dimension_zero_is_a_header(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "1 0\na 1\n")
        with pytest.raises(FormatError, match="line 2 has 1 values, expected 0"):
            load_word_vectors(p)

    def test_token_without_values_names_its_line(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "\nfoo\n")
        with pytest.raises(FormatError, match="line 2 has a token but no vector values"):
            load_word_vectors(p)

    def test_header_only_file_has_no_entries(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "0 3\n\n")
        with pytest.raises(FormatError, match="no vector entries"):
            load_word_vectors(p)


# ---------------------------------------------------------------------------
# frozen copies of the line-by-line .vec parser and the np.mean pooling loop
# that the array-based table replaced; the fast paths must match them bit for bit


def _reference_index(tokens):
    """The token -> row map the table once kept, as a comprehension over ``enumerate``, with its duplicate check."""
    index = {t: i for i, t in enumerate(tokens)}
    if len(index) != len(tokens):
        raise ConfigError("embedding table tokens must be distinct")
    return index


class TestEmbeddingTableLookup:
    @given(tokens=st.lists(st.text(alphabet="abcé", min_size=1, max_size=3), max_size=40))
    def test_same_rows_or_same_error_as_the_comprehension(self, tokens):
        matrix = np.arange(2.0 * len(tokens)).reshape(-1, 2)
        try:
            expected = _reference_index(tokens)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=f"^{exc}$"):
                EmbeddingTable(tuple(tokens), matrix)
            return
        table = EmbeddingTable(tuple(tokens), matrix)
        rows = table.lookup(list(expected))
        assert [table.matrix[r].tolist() for r in rows] == [matrix[i].tolist() for i in expected.values()]
        assert list(table.tokens) == sorted(expected)  # rows follow the tokens, in code-point order

    # tokens that share their first 8 bytes, are prefixes of others, hold NUL bytes or multi-byte characters
    TOKENS = st.lists(
        st.builds(
            lambda stem, tail: stem + tail,
            st.sampled_from(["", "abcdefgh", "abcdefg\x00", "\x00", "é" * 4, "𝄞𝄞"]),
            st.text(alphabet=["a", "b", "\x00", "é", "𝄞", "\x7f"], max_size=12),
        ).filter(bool),
        unique=True,
        max_size=30,
    )

    @settings(max_examples=300)
    @given(tokens=TOKENS, others=st.lists(st.text(max_size=20), max_size=10), data=st.data())
    def test_lookup_agrees_with_a_dict(self, tokens, others, data):
        table = EmbeddingTable(tuple(tokens), np.arange(float(len(tokens)))[:, None])
        reference = dict(zip(tokens, range(len(tokens))))
        queries = list(tokens) + others + ["", "a\nb", "\n"]
        queries += [t[:cut] for t in tokens for cut in (1, 7, 8, 9, len(t) - 1)]  # prefixes of table tokens
        queries += [t + suffix for t in tokens[:5] for suffix in ("\x00", "a", "\n")]
        queries = data.draw(st.permutations(queries))
        rows = table.lookup(queries)
        assert rows.dtype == np.int64 and rows.shape == (len(queries),)
        for query, row in zip(queries, rows.tolist()):
            want = reference.get(query)
            assert (row == -1) if want is None else table.matrix[row, 0] == want, (query, row)
        assert table.tokens == tuple(sorted(tokens))
        assert [t.encode() for t in table.tokens] == sorted(t.encode() for t in tokens)  # code points sort as UTF-8

    @given(
        suffixes=st.lists(st.text(alphabet=["0", "1", "\x00", "é"], max_size=4), min_size=1, max_size=200, unique=True),
        data=st.data(),
    )
    def test_long_runs_of_one_key_are_bisected(self, suffixes, data):
        # every token shares its first 8 bytes: one run, bisected down to dense_features._SCAN rows
        tokens = ["abcdefgh" + s for s in suffixes]
        table = EmbeddingTable(tuple(tokens), np.arange(float(len(tokens)))[:, None])
        reference = dict(zip(tokens, range(len(tokens))))
        queries = tokens + ["abcdefgh" + s + "\x00" for s in suffixes[:20]] + ["abcdefg", "abcdefgi", "abcdefgh2"]
        queries = data.draw(st.permutations(queries))
        rows = table.lookup(queries)
        for query, row in zip(queries, rows.tolist()):
            want = reference.get(query)
            assert (row == -1) if want is None else table.matrix[row, 0] == want, (query, row)

    def test_a_table_holds_no_empty_or_newline_token(self):
        for tokens in (("a", ""), ("a", "b\nc")):
            with pytest.raises(ConfigError, match="non-empty and hold no newlines"):
                EmbeddingTable(tokens, np.zeros((2, 1)))

    def test_token_bytes_must_be_sorted_distinct_utf8(self):
        matrix = np.zeros((2, 1))
        for data, message in (
            (b"b\na", "ascending code-point order"),
            (b"abcdefghj\nabcdefghi", "ascending code-point order"),
            (b"abcdefghi\nabcdefghi", "distinct"),
            (b"a\n\xff", "not UTF-8"),
            (b"a\n", "non-empty"),
        ):
            with pytest.raises(ConfigError, match=message):
                EmbeddingTable(np.frombuffer(data, dtype=np.uint8), matrix)
        table = EmbeddingTable(np.frombuffer(b"a\nb", dtype=np.uint8), np.array([[1.0], [2.0]]))
        assert table.tokens == ("a", "b") and row_of(table, "b") == 1


def _reference_load(path):
    """Token -> vector dict as the line loop built it, or the FormatError text it raised."""
    vectors = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            parts = [p for p in parts if p != ""]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                dim = int(parts[1])
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    return f"{path}: line {lineno} has a token but no vector values"
            if len(values) != dim:
                return f"{path}: line {lineno} has {len(values)} values, expected {dim}"
            try:
                vector = np.array([float(v) for v in values])
            except ValueError as exc:
                return f"{path}: line {lineno}: {exc}"
            if not np.isfinite(vector).all():
                return f"{path}: line {lineno}: non-finite vector value"
            vectors[token] = vector
    if dim is None or not vectors:
        return f"{path}: no vector entries found"
    return vectors


def _reference_pool(docs, vectors, dimension):
    rows = np.zeros((len(docs), dimension))
    for i, tokens in enumerate(docs):
        hits = [vectors[t] for t in tokens if t in vectors]
        if hits:
            rows[i] = np.mean(hits, axis=0)
    return rows


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


VALUE_TEXT = st.integers(0, 9).flatmap(
    lambda k: st.sampled_from(["0", "-0", "1e-320", "nan", "inf", "-Infinity", "1_0", "x"])
    if k == 0
    else st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if k < 5
    else st.floats(min_value=-1e3, max_value=1e3).map(lambda v: "%.5f" % v)  # "-0.00000" too
)


@st.composite
def vec_files(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    lines = []
    if draw(st.booleans()):
        lines.append(f"{n} {dim}")
    for _ in range(n):
        token = draw(st.sampled_from(["a", "b", "c", "é", "12", "x-y"]))  # duplicates likely
        count = dim - 1 if draw(st.integers(0, 15)) == 0 else dim  # now and then too few values
        values = draw(st.lists(VALUE_TEXT, min_size=count, max_size=count))
        gap = draw(st.sampled_from([" ", " ", " ", "  "]))  # mostly single spaces
        line = gap.join([token] + values)
        if draw(st.booleans()):
            line += " "  # fastText's trailing space
        if draw(st.integers(0, 10)) == 0:
            line = " " + line
        lines.append(line)
        if draw(st.integers(0, 10)) == 0:
            lines.append(draw(st.sampled_from(["", "   "])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


class TestFastParseMatchesLineLoop:
    @settings(max_examples=300)
    @given(vec_files())
    def test_same_table_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.vec"
            path.write_text(text, encoding="utf-8")
            want = _reference_load(path)
            if isinstance(want, str):
                with pytest.raises(FormatError) as info:
                    load_word_vectors(path)
                assert str(info.value) == want
                return
            table = load_word_vectors(path)
        assert table.tokens == tuple(sorted(want))  # a later duplicate's row wins
        assert table.matrix.dtype == np.float64
        for token, vector in want.items():
            assert _bits(table.matrix[row_of(table, token)]).tolist() == _bits(vector).tolist()

    def test_fasttext_layout_takes_the_fast_path(self, tmp_path, monkeypatch):
        p = write_vectors(tmp_path / "v.vec", "3 2\na 1 2 \nb -0.00000 4 \na 5 6 \n")

        def no_line_pass(values, path, lineno):
            raise AssertionError("the per-line pass ran on well-formed input")

        monkeypatch.setattr(dense_features, "_parse_vector", no_line_pass)
        table = load_word_vectors(p)
        assert table.tokens == ("a", "b")
        np.testing.assert_array_equal(table.matrix, [[5.0, 6.0], [-0.0, 4.0]])
        assert np.signbit(table.matrix[1, 0])

    def test_short_line_names_its_line_number(self, tmp_path):
        p = write_vectors(tmp_path / "v.vec", "a 1 2 \nb 3 4 \nc 5 \n")
        with pytest.raises(FormatError, match=r"v\.vec: line 3 has 1 values, expected 2"):
            load_word_vectors(p)


class TestPoolingMatchesMeanLoop:
    @given(
        st.integers(2, 6),  # dimension 1 is test_dimension_one_sums_in_token_order
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "oov", "zz"]), max_size=12), max_size=10),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(self, dim, docs, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(4, dim)) * 10.0 ** rng.integers(-8, 8, size=(4, dim))
        matrix[rng.random(size=matrix.shape) < 0.2] = -0.0
        table = EmbeddingTable(tokens=("a", "b", "c", "d"), matrix=matrix)
        vectors = {t: matrix[i] for i, t in enumerate(table.tokens)}
        if not docs:
            docs = [[]]
        got, report = embed_documents(docs, table)
        want = _reference_pool(docs, vectors, dim)
        assert _bits(got).tolist() == _bits(want).tolist()
        n_tokens = sum(len(d) for d in docs)
        n_oov = sum(t not in vectors for d in docs for t in d)
        fully = sum(all(t not in vectors for t in d) for d in docs)
        assert (report.n_documents, report.n_tokens, report.n_oov_tokens, report.n_fully_oov) == (
            len(docs),
            n_tokens,
            n_oov,
            fully,
        )

    def test_repeated_tokens_and_fully_oov_documents(self, rng):
        matrix = rng.normal(size=(3, 5))
        table = EmbeddingTable(tokens=("a", "b", "c"), matrix=matrix)
        docs = [["a", "a", "b", "a", "c", "c"], ["zz", "q"], [], ["b"] * 40, ["c", "oov", "a"]]
        got, report = embed_documents(docs, table)
        vectors = dict(zip(table.tokens, matrix))
        assert _bits(got).tolist() == _bits(_reference_pool(docs, vectors, 5)).tolist()
        assert report == OovReport(n_documents=5, n_fully_oov=2, n_tokens=51, n_oov_tokens=3)

    def test_dimension_one_sums_in_token_order(self, rng):
        # numpy's 1-D mean sums pairwise; the pooled value is the in-order sum
        values = rng.normal(size=(30, 1)) * 10.0 ** rng.integers(-8, 8, size=(30, 1))
        tokens = tuple(f"t{i}" for i in range(30))
        table = EmbeddingTable(tokens=tokens, matrix=values)
        got, _ = embed_documents([list(tokens)], table)
        total = 0.0
        for v in values[:, 0]:
            total += v
        assert got[0, 0] == total / 30
        np.testing.assert_allclose(got[0], np.mean(values, axis=0), rtol=1e-12)


def scipy_pool(docs, table):
    """The pooling that in-order sums replaced, frozen: a CSR hit-count matrix times the hit rows, over the counts."""
    token_rows = table.lookup([t for doc in docs for t in doc])
    hit = token_rows >= 0
    ends = np.cumsum([len(doc) for doc in docs], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(hit)))[np.concatenate(([0], ends))]
    counts = np.diff(indptr)
    ids, columns = np.unique(token_rows[hit], return_inverse=True)
    hit_matrix = sp.csr_matrix((np.ones(len(columns)), columns, indptr), shape=(len(counts), len(ids)))
    sums = hit_matrix @ table.rows(ids)
    rows = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=rows, where=counts[:, None] > 0)
    return rows


class TestPoolingMatchesScipyProduct:
    @given(
        st.sampled_from([1, 2, 12]),
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "oov", "zz"]), max_size=40), max_size=12),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(self, dim, docs, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(5, dim)) * 10.0 ** rng.integers(-8, 8, size=(5, dim))
        matrix[rng.random(size=matrix.shape) < 0.2] = -0.0
        table = EmbeddingTable(tokens=("a", "b", "c", "d", "e"), matrix=matrix)
        docs = docs + [[], ["oov", "zz"], ["a"] * 30]
        got, _ = embed_documents(docs, table)
        assert _bits(got).tolist() == _bits(scipy_pool(docs, table)).tolist()


class TestEmbedDocuments:
    def table(self):
        return EmbeddingTable(tokens=("a", "b"), matrix=np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_single_token(self):
        m, report = embed_documents([["a"]], self.table())
        np.testing.assert_array_equal(m, [[1.0, 2.0]])
        assert report.n_oov_tokens == 0

    def test_mean_pooling(self):
        m, _ = embed_documents([["a", "b"]], self.table())
        np.testing.assert_allclose(m, [[2.0, 1.5]])

    def test_all_oov_is_zero_row(self):
        m, report = embed_documents([["z", "q"]], self.table())
        np.testing.assert_array_equal(m, [[0.0, 0.0]])
        assert report.n_fully_oov == 1
        assert report.n_oov_tokens == 2
        assert report.n_tokens == 2

    def test_oov_tokens_excluded_from_mean(self):
        m, report = embed_documents([["a", "zzz"]], self.table())
        np.testing.assert_array_equal(m, [[1.0, 2.0]])
        assert report.n_oov_tokens == 1

    def test_repeated_token_all_same_vector(self):
        # pooling is linear: identical tokens pool to their own vector
        m, _ = embed_documents([["b", "b", "b"]], self.table())
        np.testing.assert_allclose(m, [[3.0, 1.0]])

    def test_permutation_invariance(self, rng):
        table = EmbeddingTable(
            tokens=tuple(f"t{i}" for i in range(10)), matrix=rng.normal(size=(10, 3))
        )
        doc = [f"t{i}" for i in range(10)]
        m1, _ = embed_documents([doc], table)
        m2, _ = embed_documents([list(reversed(doc))], table)
        np.testing.assert_allclose(m1, m2, atol=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            embed_documents([["a"]], EmbeddingTable(tokens=(), matrix=np.zeros((0, 2))))

    def test_report_totals(self):
        docs = [["a"], ["z"], ["a", "b", "q"]]
        _, report = embed_documents(docs, self.table())
        assert report.n_documents == 3
        assert report.n_tokens == 5
        assert report.n_oov_tokens == 2
        assert report.n_fully_oov == 1


class TestPrecomputedEmbeddings:
    def test_csv_with_header(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1,v2\nd1,1,2\nd2,3,4\n")
        m = load_precomputed_embeddings(p, ["d1", "d2"])
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_alignment_follows_requested_order(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\nd2,2\n")
        m = load_precomputed_embeddings(p, ["d2", "d1"])
        np.testing.assert_array_equal(m, [[2.0], [1.0]])

    def test_text_format(self, tmp_path):
        p = write_vectors(tmp_path / "e.vec", "2 2\nd1 1 2\nd2 3 4\n")
        m = load_precomputed_embeddings(p, ["d1", "d2"])
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_id_named(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\n")
        with pytest.raises(AlignmentError, match="'d9'"):
            load_precomputed_embeddings(p, ["d1", "d9"])

    def test_duplicate_id(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\nd1,2\n")
        with pytest.raises(AlignmentError, match="duplicate"):
            load_precomputed_embeddings(p, ["d1"])

    def test_extra_ids_ignored(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1\nd1,1\nd2,2\nd3,3\n")
        m = load_precomputed_embeddings(p, ["d2"])
        np.testing.assert_array_equal(m, [[2.0]])

    def test_non_finite_value(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1,v2\nd1,1,2\nd2,nan,4\n")
        with pytest.raises(FormatError, match=r"e\.csv: line 3: non-finite"):
            load_precomputed_embeddings(p, ["d1", "d2"])

    def test_ragged_rows(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "id,v1,v2\nd1,1,2\nd2,3\n")
        with pytest.raises(FormatError, match="line 3"):
            load_precomputed_embeddings(p, ["d1", "d2"])

    def test_ragged_row_after_blank_line_names_its_line(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "a,1,2\n\nb,1\n")
        with pytest.raises(FormatError, match=r"e\.csv: line 3 has 1 values, expected 2"):
            load_precomputed_embeddings(p, ["a", "b"])

    def test_rows_without_values_rejected(self, tmp_path):
        p = write_vectors(tmp_path / "e.vec", "d1\nd2\n")
        with pytest.raises(FormatError, match="line 1 has a token but no vector values"):
            load_precomputed_embeddings(p, ["d1", "d2"])

    def test_empty_file(self, tmp_path):
        p = write_vectors(tmp_path / "e.csv", "\n\n")
        with pytest.raises(FormatError, match="no vector entries"):
            load_precomputed_embeddings(p, ["d1"])

    def test_not_utf8_names_its_line(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_bytes(b"id,a,b\nd1,1,2\nd\xff,3,4\n")
        with pytest.raises(FormatError, match=r"e\.csv: line 3: not UTF-8"):
            load_precomputed_embeddings(p, ["d1"])


def _reference_precomputed(path, ids):
    """Frozen copy of the loader the shared vector reader replaced: a matrix, or it raises."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: file is empty")
    by_id = {}
    dim = None
    delim = "," if "," in lines[0] else None
    start = 0
    first = lines[0].split(delim)
    if delim == "," and first[0].strip() == "id":
        start = 1
    elif delim is None and len(first) == 2 and first[0].isdigit() and first[1].isdigit():
        start = 1
        dim = int(first[1])
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = [p.strip() for p in line.split(delim)] if delim else line.split()
        key, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise FormatError(f"{path}: line {lineno} has {len(values)} values, expected {dim}")
        if key in by_id:
            raise AlignmentError(f"{path}: duplicate embedding for id {key!r}")
        try:
            vector = np.array([float(v) for v in values])
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        if not np.isfinite(vector).all():
            raise FormatError(f"{path}: line {lineno}: non-finite vector value")
        by_id[key] = vector
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise AlignmentError(f"{path}: missing embeddings for ids {missing!r}")
    return np.vstack([by_id[i] for i in ids])


PRECOMPUTED_IDS = ["d1", "d2", "d3", "12", "id"]


@st.composite
def precomputed_files(draw):
    """A CSV or word-vector-format embeddings file: a header on line 1 or none,
    blank lines only after entries, and now and then a short row or a duplicate id."""
    csv = draw(st.booleans())
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    lines = []
    if draw(st.booleans()):
        lines.append("id," + ",".join(f"v{j}" for j in range(dim)) if csv else f"{n} {dim}")
    for _ in range(n):
        key = draw(st.sampled_from(PRECOMPUTED_IDS))
        short = dim > 1 and draw(st.integers(0, 15)) == 0  # a row keeps at least one value
        values = draw(st.lists(VALUE_TEXT, min_size=dim - short, max_size=dim - short))
        gap = draw(st.sampled_from([",", ",", ", ", " , "] if csv else [" ", " ", "  "]))
        line = gap.join([key] + values)
        if draw(st.integers(0, 10)) == 0:
            line = " " + line
        if draw(st.booleans()):
            line += " "
        lines.append(line)
        if draw(st.integers(0, 10)) == 0:
            lines.append(draw(st.sampled_from(["", "   "])))
    ids = draw(st.lists(st.sampled_from(PRECOMPUTED_IDS[:3] + ["zz"]), min_size=1, max_size=4))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""])), ids


class TestPrecomputedMatchesOldLoader:
    @settings(max_examples=300)
    @given(precomputed_files())
    def test_same_matrix_or_an_error(self, case):
        text, ids = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.txt"
            path.write_text(text, encoding="utf-8")
            try:
                want = _reference_precomputed(path, ids)
            except PolyemoError:
                with pytest.raises(PolyemoError):
                    load_precomputed_embeddings(path, ids)
                return
            got = load_precomputed_embeddings(path, ids)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert _bits(got).tolist() == _bits(want).tolist()


class TestPromptRendering:
    def backend(self):
        return LlmBackendConfig(endpoint="http://localhost/x", model="m")

    def test_both_substitutions_present(self):
        prompt = render_prompt(self.backend(), ["English", "Amharic"], "Oromo")
        assert "English, Amharic" in prompt
        assert "Oromo" in prompt
        assert prompt == DEFAULT_PROMPT_TEMPLATE.format(
            known_languages="English, Amharic", given_language="Oromo"
        )

    def test_deterministic(self):
        a = render_prompt(self.backend(), ["A", "B"], "C")
        b = render_prompt(self.backend(), ["A", "B"], "C")
        assert a == b

    def test_empty_known_list(self):
        with pytest.raises(ConfigError):
            render_prompt(self.backend(), [], "Oromo")

    def test_template_placeholder_validation(self):
        with pytest.raises(ConfigError, match="known_languages"):
            LlmBackendConfig(endpoint="e", model="m", prompt_template="{given_language}")
        with pytest.raises(ConfigError):
            LlmBackendConfig(
                endpoint="e",
                model="m",
                prompt_template="{known_languages} {known_languages} {given_language}",
            )


class TestParseReply:
    def policy(self, **kw):
        defaults = dict(
            supported_languages=("am", "en"),
            display_names={"am": "Amharic", "en": "English"},
        )
        defaults.update(kw)
        return FallbackPolicy(**defaults)

    def test_single_name(self):
        reply = "The most similar language is Amharic."
        assert parse_reply(reply, self.policy()) == "am"

    def test_case_insensitive(self):
        assert parse_reply("AMHARIC, clearly", self.policy()) == "am"

    def test_earliest_position_wins(self):
        assert parse_reply("English, though Amharic is close", self.policy()) == "en"

    def test_longer_name_wins_at_same_position(self):
        policy = FallbackPolicy(
            supported_languages=("x", "y"),
            display_names={"x": "Mara", "y": "Marathi"},
        )
        assert parse_reply("Marathi is closest", policy) == "y"

    def test_no_name_raises_with_reply(self):
        with pytest.raises(ResolutionError, match="cannot tell"):
            parse_reply("cannot tell", self.policy())


class CannedTransport:
    """Transport double returning a fixed reply and counting invocations."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = 0
        self.prompts = []

    def __call__(self, config, prompt):
        self.calls += 1
        self.prompts.append(prompt)
        return self.reply


class TestResolveLanguage:
    def backend(self):
        return LlmBackendConfig(endpoint="http://localhost/x", model="m")

    def test_native(self):
        policy = FallbackPolicy(supported_languages=("ru", "en"))
        assert resolve_language("ru", policy) == ("ru", "native")

    def test_static_map(self):
        policy = FallbackPolicy(
            supported_languages=("am",), static_map={"om": "am"}
        )
        assert resolve_language("om", policy) == ("am", "static")

    def test_static_map_to_unsupported_rejected(self):
        with pytest.raises(ConfigError, match="unsupported"):
            FallbackPolicy(supported_languages=("am",), static_map={"om": "xx"})

    def test_malformed_cache_line_names_line(self, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_text("xx\tam\nom am\n", encoding="utf-8")
        policy = FallbackPolicy(
            supported_languages=("am",), llm_backend=self.backend(), cache_path=str(cache)
        )
        with pytest.raises(FormatError, match=r"cache\.tsv: line 2"):
            resolve_language("om", policy, CannedTransport("Amharic"))

    def test_cache_that_is_not_utf8_names_line(self, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(b"xx\tam\nom\t\xffam\n")
        policy = FallbackPolicy(
            supported_languages=("am",), llm_backend=self.backend(), cache_path=str(cache)
        )
        with pytest.raises(FormatError, match=r"cache\.tsv: line 2: not UTF-8 text"):
            resolve_language("om", policy, CannedTransport("Amharic"))

    def test_llm_resolution_and_cache(self, tmp_path):
        transport = CannedTransport("The most similar language is Amharic.")
        policy = FallbackPolicy(
            supported_languages=("am", "en"),
            display_names={"am": "Amharic", "en": "English", "om": "Oromo"},
            llm_backend=self.backend(),
            cache_path=str(tmp_path / "cache.tsv"),
        )
        assert resolve_language("om", policy, transport) == ("am", "llm")
        assert transport.calls == 1
        assert "Oromo" in transport.prompts[0]
        assert "Amharic, English" in transport.prompts[0]
        # second resolution is served from the cache: no further transport use
        assert resolve_language("om", policy, transport) == ("am", "llm")
        assert transport.calls == 1
        cache = (tmp_path / "cache.tsv").read_text(encoding="utf-8")
        assert cache == "om\tam\n"

    def test_cache_keeps_earlier_entries(self, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_text("xx\tam\n", encoding="utf-8")
        policy = FallbackPolicy(
            supported_languages=("am",), llm_backend=self.backend(), cache_path=str(cache)
        )
        assert resolve_language("om", policy, CannedTransport("Amharic")) == ("am", "llm")
        assert cache.read_text(encoding="utf-8") == "xx\tam\nom\tam\n"

    def test_failed_cache_write_keeps_previous_cache(self, tmp_path, fill_disk):
        cache = tmp_path / "cache.tsv"
        cache.write_text("xx\tam\n", encoding="utf-8")
        policy = FallbackPolicy(
            supported_languages=("am",), llm_backend=self.backend(), cache_path=str(cache)
        )
        fill_disk()
        with pytest.raises(OSError, match="no space"):
            resolve_language("om", policy, CannedTransport("Amharic"))
        assert cache.read_text(encoding="utf-8") == "xx\tam\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_llm_without_cache_queries_each_time(self):
        transport = CannedTransport("English")
        policy = FallbackPolicy(
            supported_languages=("en",),
            display_names={"en": "English"},
            llm_backend=self.backend(),
        )
        resolve_language("zz", policy, transport)
        resolve_language("zz", policy, transport)
        assert transport.calls == 2

    def test_no_route_raises(self):
        policy = FallbackPolicy(supported_languages=("en",))
        with pytest.raises(ResolutionError, match="'xx'"):
            resolve_language("xx", policy)

    def test_static_map_preferred_over_backend(self):
        transport = CannedTransport("English")
        policy = FallbackPolicy(
            supported_languages=("en", "am"),
            static_map={"om": "am"},
            llm_backend=self.backend(),
        )
        assert resolve_language("om", policy, transport) == ("am", "static")
        assert transport.calls == 0


class FakeResponse:
    """What ``urllib.request.urlopen`` returns: a context manager with a status and a body."""

    def __init__(self, body, status=200):
        self.body = body
        self.status = status

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body if isinstance(self.body, bytes) else json.dumps(self.body).encode("utf-8")


class TestHttpTransport:
    def config(self):
        return LlmBackendConfig(endpoint="http://example.invalid/v1/chat", model="tiny")

    def test_payload_shape_and_reply_extraction(self, monkeypatch):
        seen = {}

        def fake_urlopen(request, timeout=None):
            seen.update(
                url=request.full_url,
                json=json.loads(request.data),
                headers=dict(request.header_items()),
                timeout=timeout,
            )
            return FakeResponse(
                {"choices": [{"message": {"content": "Amharic"}}]}
            )

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        monkeypatch.setenv("EMO_LLM_API_KEY", "sekrit")
        reply = http_transport(self.config(), "which?")
        assert reply == "Amharic"
        assert seen["url"] == "http://example.invalid/v1/chat"
        assert seen["json"] == {
            "model": "tiny",
            "messages": [{"role": "user", "content": "which?"}],
        }
        assert seen["headers"]["Authorization"] == "Bearer sekrit"
        assert seen["timeout"] == 30.0

    def test_endpoint_env_override(self, monkeypatch):
        seen = {}

        def fake_urlopen(request, **kw):
            seen["url"] = request.full_url
            return FakeResponse({"choices": [{"message": {"content": "x"}}]})

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        monkeypatch.setenv("EMO_LLM_ENDPOINT", "http://other.invalid/chat")
        http_transport(self.config(), "p")
        assert seen["url"] == "http://other.invalid/chat"

    def test_http_error_becomes_transport_error(self, monkeypatch):
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda *a, **k: FakeResponse({}, status=500)
        )
        with pytest.raises(TransportError, match="request failed"):
            http_transport(self.config(), "p")

    @pytest.mark.parametrize(
        "error",
        [
            urllib.error.HTTPError("http://example.invalid", 503, "unavailable", {}, None),
            urllib.error.URLError("connection refused"),
            TimeoutError("timed out"),
        ],
        ids=["http-error", "url-error", "timeout"],
    )
    def test_raised_errors_become_transport_error(self, monkeypatch, error):
        def fake_urlopen(*a, **k):
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        with pytest.raises(TransportError, match="request failed"):
            http_transport(self.config(), "p")

    def test_malformed_body(self, monkeypatch):
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda *a, **k: FakeResponse({"unexpected": True})
        )
        with pytest.raises(TransportError, match="malformed"):
            http_transport(self.config(), "p")

    def test_body_that_is_not_json(self, monkeypatch):
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda *a, **k: FakeResponse(b"<html>busy</html>")
        )
        with pytest.raises(TransportError, match="malformed"):
            http_transport(self.config(), "p")
