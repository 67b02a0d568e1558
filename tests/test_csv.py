"""The numpy float formatter behind every CSV against "%.17g" % x, value by value."""

from types import SimpleNamespace

import numpy as np

from liqzone import _csv, cli
import loop_reference


def _per_value(values) -> np.ndarray:
    """Each value's "%.17g" text as a NUL-padded cell, formatted one at a time."""
    text = np.array(["%.17g" % v for v in values.tolist()], dtype=f"S{_csv.WIDTH}")
    return text.view(np.uint8).reshape(-1, _csv.WIDTH)


def test_cells_print_what_percent_17g_prints():
    rng = np.random.default_rng(2024)
    powers = 10.0 ** np.arange(-300, 301)
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    odd = 2 * rng.integers(2 * 10**15, 2**52, 100_000) + 1
    cases = {
        # random 64-bit patterns: subnormals, nan and both infinities as well
        "bits": np.concatenate([rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64),
                                [np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308]]),
        # n / 4 for odd n: 17 significant digits and a 5 after them, exact ties
        "ties": odd / 4.0,
        "powers of ten": np.concatenate([powers, np.nextafter(powers, 0.0),
                                         np.nextafter(powers, np.inf)]),
        "notation switches": np.concatenate([switches, np.nextafter(switches, 0.0),
                                             np.nextafter(switches, np.inf)]),
        # 17 nines at every exponent: the digits round up to the next power
        "carries": np.array([99999999999999999.0, 9999999999999999.0, 0.99999999999999989]
                            + [float(f"9.9999999999999999{d}e{k}") for d in (4, 5, 6)
                               for k in range(-300, 301)]),
        "zeros": np.array([0.0, -0.0]),
    }
    for name, values in cases.items():
        values = np.concatenate([values, -values]) if name != "bits" else values
        got, want = _csv.cells(values), _per_value(values)
        wrong = np.flatnonzero((got != want).any(axis=1))
        assert wrong.size == 0, (name, wrong.size, [(values[i], bytes(got[i]), bytes(want[i]))
                                                    for i in wrong[:3]])


def test_cells_keep_the_shape_of_their_values():
    values = np.arange(6.0).reshape(2, 3) / 7.0
    cells = _csv.cells(values)
    assert cells.shape == (2, 3, _csv.WIDTH) and cells.dtype == np.uint8
    assert np.array_equal(cells.reshape(-1, _csv.WIDTH), _per_value(values.ravel()))
    assert _csv.cells(1.5).shape == (_csv.WIDTH,)


def test_surface_larger_than_one_block_prints_what_the_per_row_format_prints():
    rng = np.random.default_rng(7)
    n_tau, n_money = 61, 50  # 61 rows over blocks of _CSV_CELLS // 50 rows
    assert n_tau * n_money > cli._CSV_CELLS
    taus, money = np.sort(rng.uniform(0.0, 1.0, n_tau)), np.linspace(0.0, 1.0, n_money)
    rate_ac = rng.uniform(0.5, 2.0, n_tau)
    rest = [rng.standard_normal((n_tau, n_money)) * 10.0 ** rng.integers(-8, 3, (n_tau, n_money))
            for _ in range(3)]
    surf = SimpleNamespace(taus=taus, moneyness=money,
                           rate_ac=np.repeat(rate_ac[:, None], n_money, axis=1),
                           **dict(zip(("rate", "rate_extra", "relative_increase"), rest)))
    blocks = list(cli._surface_blocks(surf))
    assert len(blocks) > 1
    want = loop_reference.surface_lines(taus, money, rate_ac, *rest)
    assert b"".join(blocks) == "".join(line + "\n" for line in want).encode()
