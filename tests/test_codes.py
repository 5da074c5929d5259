"""Prefix-code machinery: construction, verification, file I/O."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dymatch import (CodeFormatError, DyadicPmf, PrefixCode, SymbolAlphabet,
                     canonical_code, load_code, parse_code_table,
                     verify_kraft)
from dymatch.cli import _parse_alphabet
from dymatch.codes import format_code_table, prefix_violations, table_token
from dymatch.facade import matcher_code, source_code

ABC = SymbolAlphabet(("a", "b", "c"))
# the 29 code points that str.isspace() accepts
WHITESPACE = [c for c in map(chr, range(0x110000)) if c.isspace()]
# look like bits to a reader but are not "0" or "1"
BIT_LOOKALIKES = ["\uff10", "\uff11", "\u0660", "\u0661", "\u00b9",
                  "\u2070", "\ud800", "\x00", "o", "l", "2"]


@st.composite
def dropped_dyadic(draw):
    """A DyadicPmf of a random full binary tree's leaves, shuffled, with
    dropped symbols among them; a tree of one leaf has length 0."""
    lengths = [0]
    for _ in range(draw(st.integers(0, 40))):
        i = draw(st.integers(0, len(lengths) - 1))
        lengths[i:i + 1] = [lengths[i] + 1] * 2
    lengths += [None] * draw(st.integers(0, 4))
    return DyadicPmf(tuple(draw(st.permutations(lengths))))


def sorted_canonical_code(d, names):
    """canonical_code written as one sort of (length, index) pairs."""
    order = sorted((l, i) for i, l in enumerate(d.lengths) if l is not None)
    if order[0][0] == 0:
        raise ValueError(
            f"cannot assign an empty codeword: the pmf puts all its mass on "
            f"{names[order[0][1]]!r}, and a one-symbol code has "
            f"no bits to parse")
    assigned = {}
    code = 0
    prev_len = order[0][0]
    for pos, (l, i) in enumerate(order):
        if pos > 0:
            code = (code + 1) << (l - prev_len)
            prev_len = l
        assigned[i] = format(code, f"0{l}b")
    entries = [(names[i], assigned[i])
               for i in range(len(names)) if i in assigned]
    return PrefixCode(entries)


class TestSymbolAlphabet:
    """What an alphabet may hold: SymbolAlphabet keeps order and
    distinctness, and table_token spells each symbol, as the command
    line's _parse_alphabet applies it to --alphabet tokens."""

    def test_ordering_and_lookup(self):
        assert list(ABC) == ["a", "b", "c"]
        assert ABC.symbols[1] == "b" and len(ABC) == 3
        assert _parse_alphabet("c,a,b", 3).symbols == ("c", "a", "b")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="alphabet must be non-empty"):
            SymbolAlphabet(())

    def test_space_allowed(self):
        assert SymbolAlphabet(("a", " ")).symbols == ("a", " ")
        assert table_token(" ") == "_"
        assert _parse_alphabet("a, ", 2).symbols == ("a", " ")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SymbolAlphabet(("a", "a"))

    def test_rejects_comment_char(self):
        # a leading # would start a comment line; an inner one is spelled
        for s in ("#", "#a"):
            with pytest.raises(ValueError, match="starts with '#'"):
                _parse_alphabet(f"a,{s}", 2)
        assert _parse_alphabet("a,b#", 2).symbols == ("a", "b#")

    @pytest.mark.parametrize("c", WHITESPACE)
    def test_rejects_each_whitespace(self, c):
        # anywhere in a token; the space alone is spelled, as _
        names = [c + "lr", "l" + c + "r", "lr" + c, c]
        for s in names:
            if c == " ":
                assert table_token(s) == s.replace(" ", "_")
                assert _parse_alphabet(f"lrm,{s}", 2).symbols == ("lrm", s)
                continue
            for check in (table_token,
                          lambda s: _parse_alphabet(f"lrm,{s}", 2)):
                with pytest.raises(ValueError) as err:
                    check(s)
                assert str(err.value) == (
                    f"symbol {s!r} is empty, starts with '#' or holds "
                    f"whitespace other than a space")

    def test_accepts_every_other_code_point(self):
        # every code point but _ and the 28 whitespace characters other
        # than the space is spelled inside a token, and the same less #
        # at its start
        def spelled(symbols):
            count = 0
            for s in symbols:
                try:
                    table_token(s)
                except ValueError:
                    continue
                count += 1
            return count

        chars = [chr(i) for i in range(0x110000)]
        assert spelled("l" + c for c in chars) == 0x110000 - 29
        assert spelled(c + "l" for c in chars) == 0x110000 - 30


class TestPrefixCode:
    def test_basic_lookup(self):
        code = PrefixCode([("a", "0"), ("b", "10"), ("c", "11")])
        assert code.bits_for("b") == "10"
        assert code.entries == (("a", "0"), ("b", "10"), ("c", "11"))
        assert code.max_length == 2
        assert verify_kraft(code) == 1

    def test_rejects_prefix_violation(self):
        with pytest.raises(ValueError):
            PrefixCode([("a", "0"), ("b", "01")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one entry"):
            PrefixCode([])

    def test_unknown_symbol(self):
        code = PrefixCode([("a", "0"), ("b", "1")])
        with pytest.raises(ValueError, match="symbol 'c' not in code"):
            code.bits_for("c")

    def test_rejects_duplicate_symbol(self):
        with pytest.raises(ValueError):
            PrefixCode([("a", "0"), ("a", "1")])

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            PrefixCode([("a", "0x1")])

    @given(st.text("01", max_size=4), st.characters(),
           st.text("01", max_size=4))
    @example("", " ", "")
    def test_rejects_each_non_bit(self, head, c, tail):
        for bad in (c, *BIT_LOOKALIKES):
            if bad in "01":
                continue
            bits = head + bad + tail
            with pytest.raises(ValueError) as err:
                PrefixCode([("a", "0"), ("b", bits)])
            assert str(err.value) \
                == f"codeword for 'b' must be non-empty bits, got {bits!r}"

    def test_incomplete_allowed_but_flagged(self):
        code = PrefixCode([("a", "0"), ("b", "10")])
        assert verify_kraft(code) == Fraction(3, 4)

    def test_immutable(self):
        code = PrefixCode([("a", "0"), ("b", "1")])
        with pytest.raises(AttributeError):
            code.entries = (("a", "1"), ("b", "0"))


class TestPrefixViolations:
    def test_prefix_of_two_words(self):
        pairs = [("a", "0"), ("b", "01"), ("c", "1"), ("d", "00")]
        assert prefix_violations(pairs) == [
            (("a", "0"), ("d", "00")), (("a", "0"), ("b", "01"))]

    def test_chain(self):
        pairs = [("c", "011"), ("a", "0"), ("b", "01"), ("d", "1")]
        assert prefix_violations(pairs) == [
            (("a", "0"), ("b", "01")), (("a", "0"), ("c", "011")),
            (("b", "01"), ("c", "011"))]

    def test_shipped_tables_clean(self):
        assert prefix_violations(matcher_code().entries) == []
        assert prefix_violations(source_code().entries) == []

    @given(st.lists(st.text("01", min_size=1, max_size=6), min_size=1,
                    max_size=10, unique=True))
    def test_all_pairs(self, words):
        pairs = [(f"s{i}", b) for i, b in enumerate(words)]
        want = sorted(((x, y) for x in pairs for y in pairs
                       if x != y and y[1].startswith(x[1])),
                      key=lambda v: (v[1][1], v[0][1]))
        assert prefix_violations(pairs) == want


class TestCanonicalCode:
    def test_three_symbols(self):
        code = canonical_code(DyadicPmf((1, 2, 2)), ("a", "b", "c"))
        assert dict(code.entries) == {"a": "0", "b": "10", "c": "11"}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 2"):
            canonical_code(DyadicPmf((1, 2, 2)), ("a", "b"))

    def test_four_equal(self):
        code = canonical_code(DyadicPmf((2, 2, 2, 2)), ("a", "b", "c", "d"))
        assert [b for _, b in code.entries] == ["00", "01", "10", "11"]

    def test_lengths_survive(self):
        d = DyadicPmf((3, 3, 2, 2, 3, 3))
        code = canonical_code(d, tuple("abcdef"))
        assert sorted(len(b) for _, b in code.entries) == sorted(
            l for l in d.lengths)
        assert verify_kraft(code) == 1

    def test_dropped_symbols_get_no_codeword(self):
        code = canonical_code(DyadicPmf((1, None, 1)), ("a", "b", "c"))
        assert [s for s, _ in code.entries] == ["a", "c"]

    def test_alphabet_index_breaks_length_ties(self):
        # b and c share length 2; b comes first in the names
        code = canonical_code(DyadicPmf((2, 2, 1)), ("a", "b", "c"))
        assert dict(code.entries) == {"c": "0", "a": "10", "b": "11"}

    def test_rejects_empty_codeword(self):
        with pytest.raises(ValueError):
            canonical_code(DyadicPmf((0, None)), ("a", "b"))

    @given(dropped_dyadic(), st.text(alphabet="01", max_size=200))
    @example(DyadicPmf((None, 0, None)), "")
    # a caterpillar tree, one leaf at each depth: codewords past 64 bits,
    # and past 1074, where 2^-l is 0 as a float
    @example(DyadicPmf((*range(1, 71), 70, None)), "1" * 69 + "0" + "1" * 70)
    @example(DyadicPmf((None, *range(1, 1101), 1100)),
             "1" * 1099 + "0" + "1" * 1100 + "0")
    def test_same_as_sorted_assignment(self, d, bits):
        # the whole code, against the oracle built through PrefixCode's
        # own checks: entries, lookup and parsing
        names = tuple(f"s{i}" for i in range(len(d)))
        try:
            want = sorted_canonical_code(d, names)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                canonical_code(d, names)
            assert str(err.value) == str(e)
            return
        got = canonical_code(d, names)
        assert got == want
        assert got.max_length == want.max_length
        for name, l in zip(names, d.lengths):
            assert (name in got) == (l is not None)
            if l is not None:
                assert got.bits_for(name) == want.bits_for(name)
        assert got.parse(bits) == want.parse(bits)

    def test_rejects_a_name_given_to_two_coded_symbols(self):
        names = ("a", "b", "a")
        with pytest.raises(ValueError) as want:
            PrefixCode([("a", "0"), ("b", "10"), ("a", "11")])
        with pytest.raises(ValueError, match="duplicate symbol 'a'") as err:
            canonical_code(DyadicPmf((1, 2, 2)), names)
        assert str(err.value) == str(want.value)

    def test_accepts_a_name_repeated_on_a_dropped_symbol(self):
        code = canonical_code(DyadicPmf((1, None, 1)), ("a", "a", "c"))
        assert code.entries == (("a", "0"), ("c", "1"))
        assert code.bits_for("a") == "0"

    @pytest.mark.parametrize("lengths, kraft", [((1, 2), "3/4"),
                                                ((1, 1, 1), "3/2")])
    def test_counter_refuses_incomplete_lengths(self, lengths, kraft):
        # lengths that bypassed DyadicPmf's Kraft check end the counter
        # away from 2^max_len
        d = object.__new__(DyadicPmf)
        object.__setattr__(d, "lengths", lengths)
        with pytest.raises(ValueError, match=f"Kraft sum is {kraft}, not 1"):
            canonical_code(d, tuple("abc"[:len(lengths)]))

    def test_matcher_length_multiset(self):
        # same multiset as the shipped table; bit patterns are canonical,
        # not the shipped ones
        shipped = matcher_code()
        lengths = tuple(len(b) for _, b in shipped.entries)
        blocks = tuple(map("".join, itertools.product("lrm", repeat=3)))
        rebuilt = canonical_code(DyadicPmf(lengths), blocks)
        assert sorted(len(b) for _, b in rebuilt.entries) == sorted(lengths)
        assert verify_kraft(rebuilt) == 1


class TestShippedTables:
    def test_source_kraft_exactly_one(self):
        assert verify_kraft(source_code()) == 1

    def test_matcher_kraft_exactly_one(self):
        assert verify_kraft(matcher_code()) == 1

    def test_source_shape(self):
        code = source_code()
        assert len(code) == 27
        assert code.bits_for("e") == "110"
        assert code.bits_for(" ") == "000"
        lengths = sorted(len(b) for _, b in code.entries)
        assert lengths == [3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5,
                           6, 6, 6, 6, 6, 8, 8, 9, 9, 9, 9]

    def test_matcher_shape(self):
        code = matcher_code()
        assert len(code) == 27
        assert code.bits_for("lll") == "0010"
        counts = {}
        for _, b in code.entries:
            counts[len(b)] = counts.get(len(b), 0) + 1
        assert counts == {4: 9, 5: 11, 6: 5, 7: 2}


class TestCodeTableIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "code.tsv"
        path.write_text(format_code_table(source_code()), encoding="utf-8")
        again = load_code(path)
        assert again == source_code()

    def test_space_symbol_round_trip(self, tmp_path):
        code = PrefixCode([(" ", "0"), ("a", "1")])
        path = tmp_path / "space.tsv"
        path.write_text(format_code_table(code), encoding="utf-8")
        assert load_code(path).bits_for(" ") == "0"
        assert "_\t0" in path.read_text()

    def test_underscore_symbol_rejected_on_save(self):
        code = PrefixCode([("x_y", "0"), ("a", "1")])
        with pytest.raises(ValueError):
            format_code_table(code)

    @pytest.mark.parametrize("sym", ["#a", "", "a\tb", "a\nb", "\u00a0",
                                     "a\x1cb"])
    def test_unreadable_symbol_rejected_on_save(self, tmp_path, sym):
        # each would read back as a comment, an empty or cut symbol, or
        # not at all; nothing is written
        path = tmp_path / "bad.tsv"
        with pytest.raises(ValueError, match="is empty, starts with '#'"):
            path.write_text(format_code_table(
                PrefixCode([(sym, "0"), ("b", "1")])), encoding="utf-8")
        assert not path.exists()

    @pytest.mark.parametrize("sym", ["a#", " #", "a b", "  ", " a ",
                                     "\ufeff"])
    def test_spelled_symbol_saved(self, tmp_path, sym):
        # a space is written as _, and only a leading # starts a comment
        path = tmp_path / "ok.tsv"
        code = PrefixCode([(sym, "0"), ("b", "1")])
        path.write_text(format_code_table(code), encoding="utf-8")
        assert load_code(path) == code

    @given(st.lists(st.text(alphabet="ab _#\t\u00a0", max_size=4),
                    min_size=1, max_size=6, unique=True))
    @example(["#a", "b"])
    @example([" ", "a#"])
    def test_accepted_code_reads_back_equal(self, symbols):
        # every code the writer accepts is the code the reader gives back
        n = len(symbols).bit_length()
        code = PrefixCode((s, format(i, f"0{n}b"))
                          for i, s in enumerate(symbols))
        try:
            text = format_code_table(code)
        except ValueError:
            return
        assert PrefixCode(parse_code_table(text)) == code

    def test_parse_reports_line_and_column(self):
        with pytest.raises(CodeFormatError) as err:
            parse_code_table("a\t010\nb\t01x\n")
        assert err.value.line == 2
        assert err.value.column == 5
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("line, column", [
        ("a\t  01x", 7), ("a  \t01x", 7), ("a\t \t01x  ", 7),
        ("a\t\u200901x", 6)])
    def test_parse_column_counts_whitespace(self, line, column):
        # the column is the bad bit's place in the raw line, whatever
        # whitespace precedes the codeword
        with pytest.raises(CodeFormatError, match="invalid bit 'x'") as err:
            parse_code_table(line)
        assert err.value.column == column
        assert line[column - 1] == "x"

    def test_parse_rejects_missing_tab(self):
        with pytest.raises(CodeFormatError) as err:
            parse_code_table("a 010\n")
        assert err.value.line == 1

    def test_parse_rejects_empty_symbol(self):
        with pytest.raises(CodeFormatError, match="empty symbol") as err:
            parse_code_table("a\t0\n \t1\n")
        assert (err.value.line, err.value.column) == (2, 1)

    def test_parse_rejects_empty_codeword(self):
        with pytest.raises(CodeFormatError, match="empty codeword") as err:
            parse_code_table("a\t0\nb\t \n")
        assert (err.value.line, err.value.column) == (2, 4)

    def test_parse_rejects_duplicates(self):
        with pytest.raises(CodeFormatError):
            parse_code_table("a\t0\na\t1\n")
        with pytest.raises(CodeFormatError):
            parse_code_table("a\t0\nb\t0\n")

    def test_parse_rejects_empty(self):
        with pytest.raises(CodeFormatError):
            parse_code_table("# only a comment\n")

    def test_load_rejects_prefix_violation(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t0\nb\t01\n")
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_comments_and_blanks_ignored(self):
        pairs = parse_code_table("# header\n\na\t0\n  # indented\nb\t1\n")
        assert pairs == [("a", "0"), ("b", "1")]
