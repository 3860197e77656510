"""The vectorized float formatter and the writers built on it.

The formatter must give ``repr``'s text for every finite float64, and the
matrix and CSV writers the bytes of their former per-cell ``repr`` and
``str.format`` versions, which are kept here as the reference.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oparma import _ryu
from oparma.jsonio import _BLOCK, JsonRows, _matrix_rows, dumps, simulation_csv


def _texts(x) -> list:
    """The formatter's text of each float of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    out = _ryu.write(*_ryu.decimals(x), np.zeros(x.size, dtype=np.int64), ("\n",))
    return out.decode("ascii").split("\n")[1:]


def _assert_reprs(x) -> None:
    x = np.asarray(x, dtype=np.float64)
    got, want = _texts(x), list(map(repr, x.tolist()))
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:10]


class TestFormatter:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_text_is_repr(self, x):
        _assert_reprs([x])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20260).integers(0, 2**64, 2**20, dtype=np.uint64)
        x = bits.view(np.float64)
        _assert_reprs(x[np.isfinite(x)])

    def test_edge_table(self):
        powers = [2.0**k for k in range(-1074, 1024)]
        table = powers + [-p for p in powers]
        table += [float(f"1e{k}") for k in range(-323, 309)]
        for v in (1e-4, 1e16):
            table += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
        table += [5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max, 0.0, -0.0]
        table += [float(k) for k in range(-3000, 3001)]
        _assert_reprs(table)

    def test_integers_are_written_as_str(self):
        t = np.array([0, 7, -7, 10, -100, 2**53 + 1, 10**18, -(10**18), 2**63 - 1])
        neg, s = (t < 0).astype(np.int64), np.abs(t)
        out = _ryu.write(neg, s, np.zeros_like(t), np.zeros_like(t), (",",), integer=True)
        assert out.decode() == "".join("," + str(v) for v in t.tolist())

    def test_empty_block(self):
        assert _texts([]) == []


def _old_reprs(values) -> tuple:
    if not np.isfinite(values).all():
        raise ValueError("a matrix entry is not finite")
    flat = values.ravel()
    return list(map(repr, flat.real.tolist())), list(map(repr, flat.imag.tolist()))


def _old_matrix_rows(m, pairs=False) -> list:
    """The rows the per-cell ``repr`` writer gave."""
    m = np.asarray(m)
    n, d = m.shape
    if not d:
        return ["[]"] * n
    re, im = _old_reprs(m)
    cells = list(map("[{}, {}]".format, re, im))
    if not pairs:
        for i in np.flatnonzero(m.imag.ravel() == 0.0).tolist():
            cells[i] = re[i]
    row = "[" + ", ".join(["{}"] * d) + "]"
    return list(map(row.format, *(cells[j::d] for j in range(d))))


def _old_csv(res) -> str:
    n, d = res.values.shape
    re, im = _old_reprs(res.values)
    header = ",".join(["t"] + [f"component_{i}_re,component_{i}_im" for i in range(d)])
    cells = list(map("{},{}".format, re, im))
    times = range(res.t_start, res.t_start + n)
    rows = map(("{}" + ",{}" * d).format, times, *(cells[j::d] for j in range(d)))
    return header + "\n" + "\n".join(rows) + "\n"


def _matrix(rng, n, d, kind):
    """An n x d complex matrix of real, complex, or mixed entries."""
    z = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, (n, d))
    z = z + 1j * rng.standard_normal((n, d))
    if kind == "real":
        return z.real + 0j
    if kind == "mixed":
        u = rng.random((n, d))
        z.imag[u < 0.3] = 0.0
        z.imag[(u >= 0.3) & (u < 0.5)] = -0.0
    return z


_SHAPES = [(1, 1), (1, 5), (7, 1), (5, 3), (2 * _BLOCK // 6 + 3, 3), (_BLOCK + 1, 1)]


class TestWriters:
    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("pairs", [False, True])
    def test_rows_match_repr_writer(self, kind, shape, pairs):
        m = _matrix(np.random.default_rng([len(kind), *shape]), *shape, kind)
        assert _matrix_rows(m, pairs=pairs) == JsonRows("\n".join(_old_matrix_rows(m, pairs)))

    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    @pytest.mark.parametrize("shape", _SHAPES)
    def test_csv_matches_repr_writer(self, kind, shape):
        m = _matrix(np.random.default_rng([len(kind), *shape]), *shape, kind)
        for t_start in (0, -(shape[0] // 2), 10**12):
            res = SimpleNamespace(values=m, t_start=t_start)
            assert simulation_csv(res) == _old_csv(res)

    def test_signed_zero_imaginary_parts_are_plain(self):
        m = np.array([[complex(1.5, 0.0), complex(-2.0, -0.0), complex(0.0, -0.0)]])
        rows = _matrix_rows(m)
        assert rows.text == "[1.5, -2.0, 0.0]" == _old_matrix_rows(m)[0]
        assert _matrix_rows(m, pairs=True).text == "[[1.5, 0.0], [-2.0, -0.0], [0.0, -0.0]]"

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 5e-324])
    def test_extreme_magnitudes(self, scale):
        m = _matrix(np.random.default_rng(3), 4, 3, "mixed") * scale
        m[0, 0] = np.finfo(float).max
        for pairs in (False, True):
            assert _matrix_rows(m, pairs).text == "\n".join(_old_matrix_rows(m, pairs))
        res = SimpleNamespace(values=m, t_start=-1)
        assert simulation_csv(res) == _old_csv(res)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_columns(self, n):
        m = np.zeros((n, 0), dtype=complex)
        assert _matrix_rows(m) == JsonRows("\n".join(_old_matrix_rows(m)))
        if n:
            res = SimpleNamespace(values=m, t_start=-1)
            assert simulation_csv(res) == _old_csv(res)

    def test_no_rows(self):
        assert dumps({"v": _matrix_rows(np.zeros((0, 3), dtype=complex))}) == '{\n  "v": []\n}\n'

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_entry_raises(self, bad, part):
        m = np.ones((3, 2), dtype=complex)
        if part == "re":
            m[2, 1] = complex(bad, 1.0)
        else:
            m[2, 1] = complex(1.0, bad)
        for write in (_matrix_rows, lambda v: simulation_csv(SimpleNamespace(values=v, t_start=0))):
            with pytest.raises(ValueError, match="^a matrix entry is not finite$"):
                write(m)
        with pytest.raises(ValueError, match="^a matrix entry is not finite$"):
            _old_matrix_rows(m)
