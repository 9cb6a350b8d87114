import warnings

import numpy as np
import pytest

from epnls.runio import read_curve_csv, write_csv


def test_curve_csv_round_trips_every_finite_double_bitwise(tmp_path):
    # signed zeros, the smallest subnormal and normal, the largest double,
    # and 1,000 random finite bit patterns
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    drawn = bits.view(np.float64)
    drawn = drawn[np.isfinite(drawn)][:1000]
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, -1.7976931348623157e308])
    values = np.concatenate([edges, drawn, [0.0]])  # an even count
    assert len(drawn) == 1000
    table = values.reshape(-1, 2)
    path = tmp_path / "curve.csv"
    write_csv(str(path), ["t", "rho"], (tuple(map(float, row)) for row in table))
    names, rows = read_curve_csv(str(path))
    assert names == ["t", "rho"]
    assert rows.tobytes() == table.tobytes()


@pytest.mark.parametrize("body", [
    "0.1,0.2\n0.3\n",  # ragged
    "0.1,0.2\n0.3,0.4,0.5\n",  # ragged
    "0.1,0.2\n0.3,x\n",  # not a float
    "0.1,0.2\n# 0.3,0.4\n",  # a comment is not a row
], ids=["short-row", "long-row", "non-float", "comment"])
def test_curve_csv_rejects_rows_that_are_not_one_float_per_name(tmp_path, body):
    path = tmp_path / "curve.csv"
    path.write_text("t,rho\n" + body)
    with pytest.raises(ValueError):
        read_curve_csv(str(path))


def test_header_only_curve_csv_has_no_rows_and_warns_nothing(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("t,rho,drho\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        names, rows = read_curve_csv(str(path))
    assert names == ["t", "rho", "drho"]
    assert rows.shape == (0, 3)
