import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldwave import config as cfg
from coldwave import output
from coldwave.grid import Domain
from coldwave.operators import KAPPA_MAX
from coldwave.solvers import ModelProblem


class TestPlasmaConfig:
    def test_aliases_fill_defaults(self):
        state = cfg.parse_plasma({
            "B0": 1.0,
            "species": [{"name": "electron", "density_m3": 1e19},
                        {"name": "proton", "density_m3": 1e19}],
        })
        el, pr = state.species
        assert el.charge_sign == -1 and pr.charge_sign == +1
        assert el.mass == pytest.approx(9.1093837015e-31)
        assert pr.mass == pytest.approx(1.67262192369e-27)

    def test_alias_overridable(self):
        state = cfg.parse_plasma({
            "B0": 0.0,
            "species": [{"name": "electron", "density_m3": 0.0, "Z": 1,
                         "mass_kg": 1e-30}],
        })
        assert state.species[0].mass == 1e-30

    def test_custom_species_requires_fields(self):
        with pytest.raises(ValueError, match=re.escape(
                "invalid plasma configuration: species[0] ('dust'): missing "
                "mass_kg; species[0] ('dust'): charge_sign must be -1 or 1")):
            cfg.parse_plasma(
                {"B0": 0.0, "species": [{"name": "dust", "density_m3": 1.0}]})

    def test_negative_density_diagnosed(self):
        with pytest.raises(ValueError, match=re.escape(
                "species[0] ('electron'): density_m3 must be >= 0")):
            cfg.parse_plasma(
                {"B0": 0.0,
                 "species": [{"name": "electron", "density_m3": -1.0}]})

    def test_vacuum_valid(self):
        state = cfg.parse_plasma({"B0": 0.0, "species": []})
        assert state.species == () and state.B0 == 0.0

    def test_defaults(self):
        state = cfg.parse_plasma({"species": [
            {"name": "ion", "mass_kg": 3.3e-27, "charge_sign": 1}]})
        (ion,) = state.species
        assert state.B0 == 0.0
        assert (ion.charge_number, ion.density) == (1, 0.0)
        assert cfg.parse_plasma({}).species == ()

    @pytest.mark.parametrize("Z, valid", [
        (1, True), (2, True), (2.0, True), (2.7, False), (0.5, False),
        (0, False), (-1, False), (math.inf, False), (math.nan, False),
        ("2", False)])
    def test_charge_number_whole(self, Z, valid):
        data = {"B0": 1.0, "species": [
            {"name": "electron", "density_m3": 1e19},
            {"name": "ion", "mass_kg": 3.3e-27, "charge_sign": 1, "Z": Z,
             "density_m3": 1e19}]}
        if valid:
            assert cfg.parse_plasma(data).species[1].charge_number == Z
        else:
            with pytest.raises(ValueError, match=re.escape(
                    "invalid plasma configuration: species[1] ('ion'): Z "
                    "must be a whole number >= 1") + "$"):
                cfg.parse_plasma(data)


class TestProblemConfig:
    def base(self):
        return {
            "kappa": 0.5,
            "domain": {"rects": [[-1.0, 1.0, -1.0, 1.0]]},
            "grid": {"nx": 17, "ny": 17},
            "bc": {"type": "closed_dirichlet"},
            "forcing": {"kind": "sine_bump"},
        }

    def test_parse_roundtrip(self):
        prob, (nx, ny) = cfg.parse_problem(self.base())
        assert prob.kappa == 0.5
        assert (nx, ny) == (17, 17)
        assert prob.bc == "closed_dirichlet"

    def refusal(self, data):
        """The refusals of ``parse_problem`` on ``data``."""
        with pytest.raises(ValueError) as info:
            cfg.parse_problem(data)
        prefix = "invalid problem configuration: "
        assert str(info.value).startswith(prefix)
        return str(info.value)[len(prefix):].split("; ")

    def test_kappa_out_of_range(self):
        bad = self.base()
        bad["kappa"] = 3.0
        assert self.refusal(bad) \
            == ["kappa out of range [0, 2] for closed_dirichlet"]

    def test_mixed_kappa_tighter(self):
        bad = self.base()
        bad["kappa"] = 1.5
        bad["bc"] = {"type": "mixed", "G": ["top"]}
        bad["forcing"] = {"kind": "zero2"}
        bad["domain"] = {"rects": [[0.0, 1.0, 0.0, 0.75]]}
        assert self.refusal(bad) == ["kappa out of range [0, 1] for mixed"]

    @pytest.mark.parametrize("bc", sorted(KAPPA_MAX))
    def test_kappa_range_shared_with_model_problem(self, bc):
        data = {**self.base(), "bc": {"type": bc}, "forcing": {}}
        data["kappa"] = KAPPA_MAX[bc]
        assert cfg.parse_problem(data)[0].kappa == KAPPA_MAX[bc]
        data["kappa"] = KAPPA_MAX[bc] + 0.5
        message = f"kappa out of range [0, {KAPPA_MAX[bc]:g}] for {bc}"
        assert self.refusal(data) == [message]
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelProblem(data["kappa"], Domain.rectangle(0, 1, 0, 1), bc=bc)

    def test_grid_minimum(self):
        bad = self.base()
        bad["grid"]["nx"] = 4
        assert self.refusal(bad) == ["grid.nx must be an integer >= 8"]

    def test_unknown_segment(self):
        bad = self.base()
        bad["bc"] = {"type": "mixed", "G": ["north"]}
        bad["kappa"] = 0.0
        bad["forcing"] = {"kind": "zero2"}
        assert self.refusal(bad) == ["unknown boundary segment 'north' in G"]

    def test_every_refusal_listed(self):
        bad = self.base()
        bad.update(kappa="a", grid={"nx": 4, "ny": 3.5},
                   forcing={"kind": "gauss", "params": {"cx": "c", "w": 0}})
        assert self.refusal(bad) == [
            "kappa must be a number", "grid.nx must be an integer >= 8",
            "grid.ny must be an integer >= 8",
            "forcing.params.cx must be a number",
            "forcing.params.w must be > 0"]

    def test_defaults(self):
        prob, shape = cfg.parse_problem(
            {"kappa": 0.5, "domain": {"rects": [[0.0, 1.0, 0.0, 1.0]]}})
        assert shape == (33, 33)
        assert (prob.bc, prob.G) == ("closed_dirichlet", ())
        assert prob.forcing is None
        prob, shape = cfg.parse_problem(
            {"kappa": 0.5, "domain": {"rects": [[0.0, 1.0, 0.0, 1.0]]},
             "grid": {"ny": 9}, "bc": {"type": "mixed"}})
        assert shape == (33, 9) and (prob.bc, prob.G) == ("mixed", ())
        assert prob.forcing == (None, None)

    DIRICHLET_KINDS = "(zero, one, sine_bump, gauss, samples)"
    MIXED_KINDS = "(zero2, smooth2, samples2)"

    @pytest.mark.parametrize("bc, forcing, message", [
        ("closed_dirichlet", {"kind": "nope"},
         "forcing kind 'nope' is not a closed_dirichlet kind "
         f"{DIRICHLET_KINDS}"),
        ("closed_dirichlet", {"kind": ["zero"]},
         "forcing kind ['zero'] is not a closed_dirichlet kind "
         f"{DIRICHLET_KINDS}"),
        ("closed_dirichlet", {"kind": "smooth2"},
         "forcing kind 'smooth2' is not a closed_dirichlet kind "
         f"{DIRICHLET_KINDS}"),
        ("mixed", {"kind": "zero"},
         f"forcing kind 'zero' is not a mixed kind {MIXED_KINDS}"),
        ("mixed", {"kind": "samples2", "values1": [[0.0] * 9] * 9},
         "missing forcing.values2"),
    ])
    def test_forcing_kind_refused(self, bc, forcing, message):
        data = {**self.base(), "kappa": 0.0, "bc": {"type": bc},
                "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
                "grid": {"nx": 9, "ny": 9}, "forcing": forcing}
        assert self.refusal(data) == [message]

    def test_kind_reads_only_its_keys(self):
        data = {**self.base(),
                "forcing": {"kind": "one", "params": [1], "values": 5}}
        assert cfg.parse_problem(data)[0].forcing(0.5, 0.5) == 1.0

    def test_samples_forcing(self):
        data = self.base()
        data["grid"] = {"nx": 8, "ny": 8}
        data["forcing"] = {"kind": "samples",
                           "values": np.zeros((8, 8)).tolist()}
        prob, _ = cfg.parse_problem(data)
        assert isinstance(prob.forcing, np.ndarray)


class TestFieldConfig:
    def test_affine_quadratic(self):
        f = cfg.parse_field({"kind": "affine_quadratic", "a": 2.0, "b": 0.5})
        assert f(1.0, 1.0) == pytest.approx(0.5 + 2.0)
        assert f.dx(0.0, 0.0) == pytest.approx(0.5)

    def test_constant_default(self):
        f = cfg.parse_field(None, default=1.0)
        assert f(3.0, -2.0) == 1.0

    def test_table(self):
        f = cfg.parse_field({
            "kind": "expression-table",
            "xs": [0.0, 1.0], "zs": [0.0, 1.0],
            "values": [[0.0, 0.0], [1.0, 1.0]],
        })
        assert f(0.5, 0.3) == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cfg.parse_field({"kind": "mystery"})


class TestForcingRegistry:
    @staticmethod
    def forcing(kind, rect=(0.0, 1.0, 0.0, 1.0), bc="closed_dirichlet"):
        return cfg.parse_problem({
            "kappa": 0.0, "domain": {"rects": [list(rect)]},
            "bc": {"type": bc}, "forcing": {"kind": kind}})[0].forcing

    def test_scalar_kinds(self):
        assert self.forcing("zero") is None
        for kind in ("one", "sine_bump", "gauss"):
            f = self.forcing(kind)
            assert np.isfinite(f(np.array([0.5]), np.array([0.5]))).all()

    def test_sine_bump_vanishes_on_box(self):
        f = self.forcing("sine_bump", (-1.0, 1.0, -1.0, 1.0))
        assert f(np.array([-1.0]), np.array([0.3]))[0] == pytest.approx(0.0,
                                                                        abs=1e-15)

    def test_vector_kinds(self):
        f1, f2 = self.forcing("smooth2", bc="mixed")
        assert np.isfinite(f1(0.3, 0.4)) and np.isfinite(f2(0.3, 0.4))
        with pytest.raises(ValueError,
                           match="forcing kind 'nope' is not a mixed kind"):
            self.forcing("nope", bc="mixed")


def cell_oracle(value):
    """Per-cell CSV rule: floats through fmt_float, integers (bool
    included) through int, a str as itself; a str with no UTF-8
    encoding (a lone surrogate) raises UnicodeEncodeError."""
    if isinstance(value, (float, np.floating)):
        return output.fmt_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    text.encode()
    return text


def csv_oracle(header, rows):
    """CSV text of a header and row tuples, cell by cell, ending in one
    newline unless the last row already does."""
    text = "\n".join([header, *(",".join(map(cell_oracle, row))
                                 for row in rows)])
    return text if text.endswith("\n") else text + "\n"


def assert_same_text(got, want):
    """got == want, reported by the first differing line: pytest's diff
    of two texts of 1e4 lines takes minutes, and Hypothesis builds one
    for every failing example it shrinks."""
    got, want = got.split("\n"), want.split("\n")
    first = next(((k, a, b) for k, (a, b) in enumerate(zip(got, want))
                  if a != b), None)
    assert (first, len(got)) == (None, len(want))


def csv_text(header, blocks):
    """What write_csv writes to stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        output.write_csv(header, blocks)
    return buf.getvalue()


def expanded(column):
    """The 1-D array a CSV column stands for: values[index] for a
    (values, index) pair, the column itself otherwise."""
    if isinstance(column, tuple):
        values, index = column
        return values[index]
    return column


def columns_of(rows):
    """One block holding these rows: str cells in an object column,
    numbers in the dtype numpy gives them."""
    return tuple(np.array(col, dtype=object if isinstance(col[0], str)
                          else None) for col in zip(*rows))


SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                  5e-324, -5e-324, 2.2250738585072009e-308,
                                  1.7976931348623157e308])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   SPECIAL_FLOATS)
# column dtype -> cell values; the str kinds cover object and numpy str
COLUMN_CELLS = {
    np.dtype(np.float64): FLOATS,
    np.dtype(np.float32): st.floats(width=32),
    np.dtype(np.int64): st.integers(-2 ** 63, 2 ** 63 - 1),
    np.dtype(np.uint64): st.integers(0, 2 ** 64 - 1),
    np.dtype(np.bool_): st.booleans(),
    np.dtype(object): st.text(max_size=5),
    np.dtype("U5"): st.text(st.characters(exclude_characters="\x00"),
                            max_size=5),
}
BLOCK_LENGTHS = st.sampled_from([0, 1, 2, 3, 2 * output.BLOCK_ROWS + 3])


@st.composite
def column_blocks(draw):
    """A block of 1-4 typed columns of one drawn length.  Each column
    takes its cells from a drawn pool of up to 5 values in a seeded
    order, so long columns are cheap to draw and to shrink."""
    n = draw(BLOCK_LENGTHS)
    order = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = []
    for dtype in draw(st.lists(st.sampled_from(list(COLUMN_CELLS)),
                               min_size=1, max_size=4)):
        pool = draw(st.lists(COLUMN_CELLS[dtype], min_size=1, max_size=5))
        block.append(np.array(pool, dtype=dtype)[order.integers(len(pool),
                                                                size=n)])
    return tuple(block)


INDEX_DTYPES = st.sampled_from([np.intp, np.int8, np.uint16, np.uint64])


@st.composite
def encoded_blocks(draw):
    """A block of 1-4 typed columns of one drawn length, each plain or a
    (values, index) pair: values a drawn pool of up to 5 values, index a
    seeded draw from it, sorted or not, of a drawn integer dtype."""
    n = draw(BLOCK_LENGTHS)
    order = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = []
    for dtype in draw(st.lists(st.sampled_from(list(COLUMN_CELLS)),
                               min_size=1, max_size=4)):
        values = np.array(draw(st.lists(COLUMN_CELLS[dtype], min_size=1,
                                        max_size=5)), dtype=dtype)
        index = order.integers(len(values), size=n).astype(
            draw(INDEX_DTYPES))
        if draw(st.booleans()):  # a run of each value, as np.repeat gives
            index.sort()
        block.append((values, index) if draw(st.booleans())
                     else values[index])
    return tuple(block)


class TestOutput:
    def test_fmt_float_roundtrip(self, rng):
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
            assert float(output.fmt_float(x)) == x
        assert output.fmt_float(float("nan")) == "nan"
        assert output.fmt_float(-float("nan")) == "nan"
        assert output.fmt_float(float("inf")) == "inf"
        assert output.fmt_float(-float("inf")) == "-inf"
        assert output.fmt_float(np.float32(0.1)) == "1.0000000149011612e-01"

    def test_csv_lines(self):
        lines = csv_text("a,b,c", [(np.array([1]), np.array([2.5]),
                                    np.array(["x"], dtype=object))])
        assert lines.split("\n") == ["a,b,c", "1,2.5000000000000000e+00,x",
                                     ""]

    @settings(max_examples=150, deadline=None)
    @given(blocks=st.lists(column_blocks(), max_size=3))
    def test_csv_lines_match_per_cell_rule(self, blocks):
        # blocks of different dtype patterns share one call
        rows = [row for block in blocks
                for row in zip(*(col.tolist() for col in block))]
        try:
            expected = csv_oracle("h", rows)
        except UnicodeEncodeError:
            for given_blocks in (blocks, iter(blocks)):
                with pytest.raises(UnicodeEncodeError):
                    csv_text("h", given_blocks)
            return
        assert_same_text(csv_text("h", blocks), expected)
        assert_same_text(csv_text("h", iter(blocks)), expected)

    @pytest.mark.parametrize("dtype", ["U5", object])
    def test_str_cell_without_utf8_raises(self, dtype):
        with pytest.raises(UnicodeEncodeError):
            cell_oracle("\ud800")
        with pytest.raises(UnicodeEncodeError):
            csv_text("a", [(np.array(["x", "a\ud800"], dtype=dtype),)])

    @pytest.mark.parametrize("cell", [1.5, np.float64(2.0), 3, True, None,
                                      b"x", ("a",)])
    @pytest.mark.parametrize("at", [0, output.BLOCK_ROWS + 1])
    def test_object_column_takes_only_str(self, cell, at):
        labels = np.full(output.BLOCK_ROWS + 2, "x", dtype=object)
        labels[at] = cell
        with pytest.raises(TypeError, match="only str"):
            csv_text("a,b", [(np.arange(labels.size), labels)])

    @settings(max_examples=100, deadline=None)
    @given(blocks=st.lists(encoded_blocks(), max_size=3))
    def test_encoded_column_is_its_expansion(self, blocks):
        plain = [tuple(map(expanded, block)) for block in blocks]
        try:
            expected = csv_text("h", plain)
        except UnicodeEncodeError:   # a lone surrogate has no UTF-8 bytes
            with pytest.raises(UnicodeEncodeError):
                csv_text("h", blocks)
            return
        assert_same_text(csv_text("h", blocks), expected)

    def test_encoded_column_edge_cases(self):
        values = np.array([0.5, -2.0])
        no_rows = np.array([], dtype=np.intp)
        assert csv_text("a", [((values, no_rows),)]) == "a\n"
        assert csv_text("a,b", [((values[:0], no_rows), no_rows)]) == "a,b\n"
        one = np.zeros(output.BLOCK_ROWS + 1, dtype=np.intp)
        assert csv_text("a,b", [((values[1:], one), one)]).split("\n") \
            == ["a,b", *["-2.0000000000000000e+00,0"] * one.size, ""]

    @pytest.mark.parametrize("index", [[-1], [0, 2], [2 ** 63], [0.0],
                                       [True], [[0]]])
    def test_encoded_column_index_out_of_range_raises(self, index):
        with pytest.raises(ValueError, match="index"):
            csv_text("a", [((np.array([1.0, 2.0]), np.array(index)),)])

    @pytest.mark.parametrize("cell", [1.5, None, b"x"])
    def test_encoded_object_column_takes_only_str(self, cell):
        values = np.array(["x", cell], dtype=object)
        index = np.arange(output.BLOCK_ROWS + 2) % 2
        with pytest.raises(TypeError, match="only str"):
            csv_text("a", [((values, index),)])

    def test_unwritable_columns_raise(self):
        with pytest.raises(TypeError, match="complex"):
            csv_text("z", [(np.array([1j]),)])
        with pytest.raises(ValueError, match="differ in length"):
            csv_text("a,b", [(np.zeros(3), np.zeros(1))])

    @pytest.mark.parametrize("n", [0, 1, 2 * output.BLOCK_ROWS + 3])
    def test_column_rows_are_zipped_columns(self, n):
        a = np.arange(n, dtype=np.int64)
        b = 0.5 * np.arange(n)
        rows = list(zip(a.tolist(), b.tolist()))
        assert all(type(x) is int and type(y) is float for x, y in rows)
        text = csv_text("a,b", [(a, b)])
        assert_same_text(text, csv_oracle("a,b", rows))
        # consecutive blocks write the rows of the joined columns
        cut = n // 3
        assert_same_text(
            csv_text("a,b", [(a[:cut], b[:cut]), (a[cut:], b[cut:])]), text)

    @pytest.mark.parametrize("rows", [
        [],
        [("",)],
        [(k, 0.5 * k, "x") for k in range(10000)],
        [(1.0, "ends with newline\n")],
    ])
    def test_write_csv_is_joined_lines(self, rows, tmp_path):
        out = tmp_path / "t.csv"
        blocks = [columns_of(rows)] if rows else []
        output.write_csv("a,b", iter(blocks), str(out))
        assert_same_text(out.read_bytes().decode(), csv_oracle("a,b", rows))

    @pytest.mark.parametrize("values", [
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
         2.2250738585072009e-308, 1.5, -1e300],
        np.array([np.float64(0.1), np.float64(-2.0), np.float64(math.nan)]),
        np.array([]),
    ])
    def test_float_cells(self, values):
        # a plain float column, float64 or float32, is written cell by
        # cell as fmt_float writes each value
        column = np.asarray(values, dtype=float)
        k = np.arange(column.size)
        labels = np.full(column.size, "x", dtype=object)
        with np.errstate(over="ignore"):
            narrow = column.astype(np.float32)
        for col in (column, narrow):
            lines = csv_text("k,a,s", [(k, col, labels)]).split("\n")
            assert lines == ["k,a,s", *(f"{i},{output.fmt_float(v)},x"
                                        for i, v in enumerate(col)), ""]

    def test_json_roundtrip(self):
        obj = {"a": 1, "b": [1.5, None, True], "c": {"d": "text"},
               "e": float("inf")}
        text = output.json_text(obj)
        back = json.loads(text)
        assert back["a"] == 1
        assert back["b"][0] == 1.5
        assert back["e"] == float("inf")

    def test_json_key_order_deterministic(self):
        a = output.json_text({"x": 1.0, "y": 2.0})
        b = output.json_text({"x": 1.0, "y": 2.0})
        assert a == b


def float_lines(values):
    """The cells write_csv writes for one float64 column of values."""
    return csv_text("v", [(np.asarray(values, dtype=np.float64),)]).split(
        "\n")[1:-1]


def hard_floats():
    """Values where a 17-digit formatter goes wrong most easily."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    # halves, quarters and eighths in [1e14, 1e17]: the quarters near 1e15
    # and eighths near 1e14 are exact ties at the 17th digit
    steps = np.arange(0, 2 ** 20, 97)
    fractions = np.concatenate([1e15 + steps + 0.5, 1e15 + steps + 0.25,
                                1e14 + steps + 0.125, 1e16 + 2 * steps,
                                1e17 - 16 * steps])
    # 9.99...95e5-style values, whose 17 digits may carry into 1.0e6
    nines = np.array([float(f"9.99999999999999{d}e{e}") for d in (5, 9)
                      for e in range(-300, 301, 7)])
    edges = np.array([1e-280, 1e280, 1e-281, 1e281, 1.7976931348623157e308,
                      2.2250738585072009e-308, 0.5, 1.0, 0.1, 1 / 3])
    subnormals = np.ldexp(np.arange(1, 2 ** 20, 4099), -1074)
    values = np.concatenate([tens, twos, fractions, nines, edges,
                             subnormals])
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, -np.inf)])
    return np.concatenate([values, -values, [0.0, -0.0, math.nan, math.inf,
                                             -math.inf]])


class TestFloatKernel:
    def test_hard_cases(self):
        values = hard_floats()
        assert float_lines(values) == ["%.16e" % v for v in values.tolist()]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(
            0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert float_lines(values) == ["%.16e" % v for v in values.tolist()]

    def test_float32_upcast(self):
        bits = np.random.default_rng(21).integers(
            0, 2 ** 32, 20_000, dtype=np.uint32, endpoint=False)
        values = bits.view(np.float32)
        lines = csv_text("v", [(values,)]).split("\n")[1:-1]
        assert lines == ["%.16e" % v for v in values.tolist()]
