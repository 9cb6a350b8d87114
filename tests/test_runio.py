import numpy as np

from epnls.runio import write_csv


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
    header, *lines = path.read_text().splitlines()
    assert header == "t,rho"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert rows.tobytes() == table.tobytes()
