import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldwave import config as cfg
from coldwave import output
from coldwave.grid import Domain


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
        diags = cfg.validate_plasma(
            {"B0": 0.0, "species": [{"name": "dust", "density_m3": 1.0}]})
        assert any("mass_kg" in d for d in diags)
        assert any("charge_sign" in d for d in diags)

    def test_negative_density_diagnosed(self):
        diags = cfg.validate_plasma(
            {"B0": 0.0,
             "species": [{"name": "electron", "density_m3": -1.0}]})
        assert any("density" in d for d in diags)

    def test_vacuum_valid(self):
        assert cfg.validate_plasma({"B0": 0.0, "species": []}) == []


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

    def test_kappa_out_of_range(self):
        bad = self.base()
        bad["kappa"] = 3.0
        diags = cfg.validate_problem(bad)
        assert any("kappa out of range" in d for d in diags)

    def test_mixed_kappa_tighter(self):
        bad = self.base()
        bad["kappa"] = 1.5
        bad["bc"] = {"type": "mixed", "G": ["top"]}
        assert any("kappa" in d for d in cfg.validate_problem(bad))

    def test_grid_minimum(self):
        bad = self.base()
        bad["grid"]["nx"] = 4
        assert any("grid.nx" in d for d in cfg.validate_problem(bad))

    def test_unknown_segment(self):
        bad = self.base()
        bad["bc"] = {"type": "mixed", "G": ["north"]}
        assert any("north" in d for d in cfg.validate_problem(bad))

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


class TestParsers:
    def test_bracket(self):
        assert cfg.parse_bracket("1e8:1e9") == (1e8, 1e9)
        with pytest.raises(ValueError):
            cfg.parse_bracket("5:1")

    def test_angle(self):
        assert cfg.parse_angle("90deg") == pytest.approx(math.pi / 2)
        assert cfg.parse_angle("1.5708rad") == pytest.approx(1.5708)
        assert cfg.parse_angle("0.5") == 0.5

    def test_grid_spec(self):
        assert cfg.parse_grid_spec("1,2,3") == [1.0, 2.0, 3.0]
        lin = cfg.parse_grid_spec("0:1:5")
        assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        log = cfg.parse_grid_spec("1:100:3:log")
        assert log == pytest.approx([1.0, 10.0, 100.0])
        angles = cfg.parse_grid_spec("0deg,90deg", angle=True)
        assert angles == pytest.approx([0.0, math.pi / 2])


class TestForcingRegistry:
    def test_scalar_kinds(self):
        dom = Domain.rectangle(0, 1, 0, 1)
        for kind in ("zero", "one", "sine_bump", "gauss"):
            f = cfg.scalar_forcing(kind, dom)
            assert np.isfinite(f(np.array([0.5]), np.array([0.5]))).all()

    def test_sine_bump_vanishes_on_box(self):
        dom = Domain.rectangle(-1, 1, -1, 1)
        f = cfg.scalar_forcing("sine_bump", dom)
        assert f(np.array([-1.0]), np.array([0.3]))[0] == pytest.approx(0.0,
                                                                        abs=1e-15)

    def test_vector_kinds(self):
        dom = Domain.rectangle(0, 1, 0, 1)
        f1, f2 = cfg.vector_forcing("smooth2", dom)
        assert np.isfinite(f1(0.3, 0.4)) and np.isfinite(f2(0.3, 0.4))
        with pytest.raises(ValueError):
            cfg.vector_forcing("nope", dom)


def cell_oracle(value):
    """Per-cell CSV rule: floats through fmt_float, integers (bool
    included) through int, anything else through str."""
    if isinstance(value, (float, np.floating)):
        return output.fmt_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                  5e-324, -5e-324, 2.2250738585072009e-308,
                                  1.7976931348623157e308])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   SPECIAL_FLOATS)
CELLS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=5),
    st.just(None),
)


class TestOutput:
    def test_fmt_float_roundtrip(self, rng):
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
            assert float(output.fmt_float(x)) == x
        assert output.fmt_float(float("nan")) == "nan"
        assert output.fmt_float(float("inf")) == "inf"

    def test_csv_lines(self):
        lines = output.csv_lines("a,b,c", [(1, 2.5, "x")])
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,2.5000000000000000e+00,x"

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(CELLS, max_size=6), max_size=8))
    def test_csv_lines_match_per_cell_rule(self, rows):
        # rows of different type patterns share one call
        expected = ["h"] + [",".join(cell_oracle(v) for v in row)
                            for row in rows]
        assert output.csv_lines("h", rows) == expected
        assert output.csv_lines("h", map(tuple, rows)) == expected

    @pytest.mark.parametrize("n", [0, 1, 2 * output.BLOCK_ROWS + 3])
    def test_column_rows_are_zipped_columns(self, n):
        a = np.arange(n, dtype=np.int64)
        b = 0.5 * np.arange(n)
        rows = list(output.column_rows(a, b))
        assert rows == list(zip(a.tolist(), b.tolist()))
        assert all(type(x) is int and type(y) is float for x, y in rows)

    @pytest.mark.parametrize("rows", [
        [],
        [()],
        [(k, 0.5 * k, "x") for k in range(10000)],
        [(1.0, "ends with newline\n")],
    ])
    def test_write_csv_is_joined_lines(self, rows, tmp_path):
        out = tmp_path / "t.csv"
        output.write_csv("a,b", iter(rows), str(out))
        text = "\n".join(output.csv_lines("a,b", rows))
        if not text.endswith("\n"):
            text += "\n"
        assert out.read_bytes() == text.encode()

    @pytest.mark.parametrize("values", [
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
         2.2250738585072009e-308, 1.5, -1e300],
        np.array([np.float64(0.1), np.float64(-2.0), np.float64(math.nan)]),
        np.array([]),
    ])
    def test_float_cells(self, values):
        cells = output.float_cells(values)
        floats = np.asarray(values, dtype=float).tolist()
        assert cells.dtype == object and cells.shape == (len(floats),)
        assert cells.tolist() == ["%.16e" % v for v in floats]
        assert cells.tolist() == [output.fmt_float(v) for v in floats]
        # cells in place of the raw floats leave the CSV text unchanged
        rows = [(k, v, v, "x") for k, v in enumerate(floats)]
        mixed = [(k, cell, v, "x") for k, (cell, v)
                 in enumerate(zip(cells.tolist(), floats))]
        assert output.csv_lines("k,a,b,s", mixed) == \
            output.csv_lines("k,a,b,s", rows)
        column = np.asarray(floats)
        assert output.csv_lines("a,b", output.column_rows(cells, column)) \
            == output.csv_lines("a,b", output.column_rows(column, column))

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
