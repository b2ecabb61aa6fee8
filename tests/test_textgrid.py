import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jarnik import textgrid


def rows_text(values: np.ndarray) -> str:
    return textgrid.lines([textgrid.float_grid(values), "\n"])


def reprs(values: np.ndarray) -> str:
    return "".join(f"{x!r}\n" for x in values.tolist())


def test_random_bit_patterns_match_repr():
    # every class of float64: normals in both notations, subnormals, zeros, inf and nan
    bits = np.random.default_rng(20).integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    for start in range(0, len(values), 1 << 16):
        block = values[start : start + (1 << 16)]
        assert rows_text(block) == reprs(block), start


@pytest.mark.parametrize("draw", ["uniform", "lognormal"])
def test_samples_match_repr(draw):
    rng = np.random.default_rng(21)
    values = rng.random(1 << 16) if draw == "uniform" else rng.lognormal(0.0, 8.0, 1 << 16)
    values[::2] *= -1
    assert rows_text(values) == reprs(values)


def test_powers_of_two_and_their_neighbours_match_repr():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate((powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)))
    assert rows_text(values) == reprs(values)


def test_powers_of_ten_match_repr():
    values = np.array([10.0**k for k in range(-307, 308)])
    assert rows_text(values) == reprs(values)


def test_layout_edges_match_repr():
    edges = [1e-4, 1e-5, 9999999999999998.0, 1e16, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.0, -0.0,
             np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0), 0.5, 1.0, 123.0, 0.001, 1234.5]
    values = np.array(edges + [-x for x in edges])
    assert rows_text(values) == reprs(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_match_repr(xs):
    values = np.array(xs, dtype=np.float64)
    assert rows_text(values) == reprs(values)


def test_grid_shape_follows_the_values():
    values = np.array([[0.5, -2.0, 1e-7], [3.25, 0.0, 1e20]])
    grid = textgrid.float_grid(values)
    assert grid.shape[:2] == (2, 3)
    assert textgrid.lines([grid[:, 0], ",", grid[:, 1], ",", grid[:, 2], "\n"]) == "0.5,-2.0,1e-07\n3.25,0.0,1e+20\n"


def test_int_and_str_grids_join_with_separators():
    ints = textgrid.int_grid(np.array([0, -7, 2**63 - 1, -(2**63)], dtype=np.int64))
    texts = textgrid.str_grid(["a", "", "bcd", "ef"])
    want = "".join(f"{n};{t}|\n" for n, t in zip([0, -7, 2**63 - 1, -(2**63)], ["a", "", "bcd", "ef"]))
    assert textgrid.lines([ints, ";", texts, "|\n"]) == want


def test_sliced_int_grid_equals_int_grid_across_slices(monkeypatch):
    monkeypatch.setattr(textgrid, "_SLICE", 3)
    values = np.array([[0, -7], [2**63 - 1, -(2**63 - 1)], [10, -10], [99, 100], [1, -1], [5, 0], [-3, 12]])
    seen = []

    def rows(s):
        seen.append((s.start, s.stop))
        return values[s]

    grid = textgrid.sliced_int_grid(values.shape, 2**63 - 1, rows)
    assert seen == [(0, 3), (3, 6), (6, 9)]
    assert np.array_equal(grid, textgrid.int_grid(values))


def test_fixed_grid_matches_format_across_slices(monkeypatch):
    monkeypatch.setattr(textgrid, "_SLICE", 4)
    values = [0.0, -0.0, 1.0, -0.5, 9.9999996, 1e-7, -1e-7, 123.4567891, 0.25, 2.0**40]
    for column in (values, [abs(v) for v in values], [0.0, 0.5], []):
        grid = textgrid.fixed_grid(np.array(column, dtype=np.float64))
        assert textgrid.lines([grid, "\n"]) == "".join(f"{v:.6f}\n" for v in column)


def test_fixed_grid_writes_two_places_as_format_does(monkeypatch):
    # the curvature SVG's {:.2f}: halfway cases, -0.00 and a widening round-up
    monkeypatch.setattr(textgrid, "_SLICE", 4)
    values = [0.0, -0.0, 0.005, 0.015, -0.004, 9.995, 99.999, 399.999, 640.0, 1e-7, 123.4567891]
    grid = textgrid.fixed_grid(np.array(values), 2)
    assert textgrid.lines([grid, "\n"]) == "".join(f"{v:.2f}\n" for v in values)


def test_every_kernel_exponent_and_its_neighbours_match_repr():
    # 64 random mantissas for each binary exponent 2^-23..2^58: every key of
    # the float64 kernel, and the first keys beyond it on both sides
    rng = np.random.default_rng(22)
    exponents = np.arange(-23, 59)
    values = np.ldexp(1.0 + rng.random((len(exponents), 64)), exponents[:, None]).reshape(-1)
    values[::3] *= -1
    assert rows_text(values) == reprs(values)


def test_kernel_powers_of_two_match_repr():
    # c = 2^52, where the value below is half as far as the one above
    powers = np.ldexp(1.0, np.arange(-23, 59))
    values = np.concatenate((powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)))
    assert rows_text(values) == reprs(values)


def test_exact_ties_match_repr():
    # odd m/2^17: 18 significant digits, so two 17-digit decimals are equally near
    values = np.arange(2**17 + 1, 2**20, 2) / 2**17
    assert rows_text(values) == reprs(values)


def test_ties_and_values_beyond_the_kernel_take_the_repr_fallback(monkeypatch):
    ties = np.arange(2**17 + 1, 2**17 + 64, 2) / 2**17
    beyond = np.array([2.0**-21, 2.0**-30, 1e-300, 2.0**56, 1e20, 1e300, 5e-324])
    sure = np.array([0.5, 1.25, 3.3, 0.001, 12345.678, 1e-5, 2.0**55])
    calls = []

    def counted(x):
        calls.append(x)
        return f"{x!r}"

    monkeypatch.setattr(textgrid, "repr", counted, raising=False)
    values = np.concatenate((ties, beyond, sure, -ties, -beyond))
    assert rows_text(values) == reprs(values)
    assert sorted(calls) == sorted(np.concatenate((ties, beyond, -ties, -beyond)).tolist())


def test_grids_hold_only_columns_some_value_uses():
    assert textgrid.float_grid(np.array([1.5, 2.25])).shape == (2, 17 + 1)  # the digits and one point
    assert textgrid.float_grid(np.array([-1.5, 2.0])).shape == (2, 1 + 17 + 1 + 2)  # a sign and ".0"
    assert textgrid.float_grid(np.array([1.5, np.nan])).shape == (2, 25)  # room for repr
    assert textgrid.int_grid(np.array([0, 7, 123])).shape == (3, 3)
    assert textgrid.int_grid(np.array([0, -7, 123]), 1).shape == (3, 5)


def test_lines_copies_strided_parts_and_skips_empty_ones():
    # reversed rows, columns of a 3-d grid, a grid reversed within its rows,
    # and parts of width 0: a "" separator and an empty grid
    ints = textgrid.int_grid(np.array([5, -12, 300, 0, 7]))
    floats = textgrid.float_grid(np.array([[0.5, -2.0], [1e-7, 3.25], [0.0, 1e20], [2.5, -0.0], [1.0, 7.0]]))
    letters = textgrid.str_grid(["ab", "c", "", "def", "g"])
    parts = [ints[::-1], "", ",", floats[:, 1], ";", floats[::-1, 0], "", letters[:, ::-1],
             np.zeros((5, 0), dtype=np.uint8), letters[::-2].repeat(2, axis=0)[:5], "\n"]
    want = "".join(
        "".join(p if isinstance(p, str) else p[row].tobytes().replace(b"\0", b"").decode() for p in parts)
        for row in range(5))
    assert textgrid.lines(parts) == want
    assert want.startswith("7,-2.0;1.0bag\n0,3.25;2.5cg\n")
