import hashlib
import json
import math
import re
from dataclasses import asdict
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sharpineq import cli
from sharpineq.cli import (
    _BLOCK_ROWS,
    _SHORT_ROWS,
    CheckRow,
    ConfigError,
    RunConfig,
    Series,
    SuiteResult,
    _fmt,
    _series_bytes,
    emit_plot_data,
    main,
    parse_config,
    render_config,
    run_suite,
)

MINIMAL = """
[run]
suite = identities

[triple]
n = 3
p = 3.0
q = 1.0
"""


class TestParseConfig:
    def test_minimal_identities(self):
        cfg = parse_config(MINIMAL)
        assert cfg.suite == "identities"
        assert cfg.triple == (3, 3.0, 1.0)

    def test_dimension_bound_violation_named(self):
        bad = MINIMAL.replace("n = 3", "n = 5")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "2(p-q)/(p-2)" in str(exc.value)

    def test_q_above_two_rejected(self):
        bad = MINIMAL.replace("q = 1.0", "q = 2.5")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_suite(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[run]\nsuite = everything\n")
        assert "suite" in str(exc.value)

    def test_identities_needs_triple(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nsuite = identities\n")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[grids]\nlambda =\n")
        assert "lambda_grid" in str(exc.value)

    def test_bad_alpha_range(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[grids]\nalpha = 5 3\n")

    def test_nonpositive_tolerance(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[quadrature]\ntolerance = -1e-9\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_rejected(self, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[quadrature]\ntolerance = {value}\n")
        assert exc.value.errors == [
            f"quadrature.tolerance: relative tolerance must be finite and positive, got {float(value)!r}"
        ]

    @pytest.mark.parametrize("key, values, bad", [
        ("lambda", "-1 1", "-1.0"), ("lambda", "0.5 0", "0.0"), ("lambda", "nan", "nan"),
        ("rho", "0 1 2", "0.0"), ("rho", "1 -2", "-2.0"),
    ])
    def test_nonpositive_grid_value_rejected(self, key, values, bad):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[grids]\n{key} = {values}\n")
        assert exc.value.errors == [f"grids.{key} holds {bad}: every {key} must be positive"]

    @pytest.mark.parametrize("key, values, error", [
        ("alpha", "3.0 inf", "grids.alpha must be two increasing positive finite numbers"),
        ("rho", "0.5 inf", "grids.rho holds inf: every rho must be finite"),
        ("lambda", "1.0 inf", "grids.lambda holds inf: every lambda must be finite"),
    ])
    def test_infinite_grid_value_rejected(self, key, values, error):
        # unchecked, each fails only at run time: a nan quadrature error for
        # alpha and lambda, a volume-ratio-monotone FAIL row for rho
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[grids]\n{key} = {values}\n")
        assert exc.value.errors == [error]

    def test_all_errors_collected(self):
        bad = "[run]\nsuite = nope\n\n[triple]\nn = 5\np = 3.0\nq = 1.0\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert len(exc.value.errors) >= 2

    def test_norm_section(self):
        cfg = parse_config(MINIMAL + "\n[norm]\nfamily = lp\ndimension = 2\np = 4.0\n")
        assert cfg.norm_spec == {"family": "lp", "dimension": 2, "p": 4.0}
        assert cfg.norm().exponent == 4.0

    def test_alpha_nodes_below_two_rejected(self):
        # the ko-refute scan of fewer than two alphas examines nothing
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[grids]\nalpha_nodes = 1\n")
        assert "grids.alpha_nodes" in str(exc.value)

    @pytest.mark.parametrize(
        "text, error",
        [
            (MINIMAL.replace("suite = identities", "suite = identities\nn = abc"), "run.n: cannot parse 'abc'"),
            (MINIMAL + "\n[norm]\ndimension = x\n", "norm.dimension: cannot parse 'x'"),
            (MINIMAL + "\n[quadrature]\ntolerance = x\n", "quadrature.tolerance: cannot parse 'x'"),
            (MINIMAL + "\n[quadrature]\nseed = zz\n", "quadrature.seed: cannot parse 'zz'"),
            (MINIMAL + "\n[grids]\nlambda = 0.5 one\n", "grids.lambda: cannot parse '0.5 one'"),
        ],
    )
    def test_bad_value_named(self, text, error):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert error in exc.value.errors

    @pytest.mark.parametrize(
        "extra, name",
        [("[quadrature]\ntolerence = 1e-12\n", "quadrature.tolerence"), ("[grid]\nalpha = 3 100\n", "[grid]")],
    )
    def test_unknown_key_or_section_rejected(self, extra, name):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n" + extra)
        assert name in str(exc.value)

    @pytest.mark.parametrize(
        "suite, least",
        [("flat-hpw", 2), ("flat-hardy", 3), ("hyperbolic", 2), ("ko-refute", 3), ("chpw-bounds", 2), ("all", 3)],
    )
    def test_n_below_suite_minimum_named(self, suite, least):
        text = MINIMAL.replace("suite = identities", f"suite = {suite}\nn = {{}}")
        assert parse_config(text.format(least)).n == least
        with pytest.raises(ConfigError) as exc:
            parse_config(text.format(least - 1))
        assert f"run.n = {least - 1} is below {least}" in str(exc.value)

    def test_identities_has_no_n_minimum(self):
        # the identities suite reads only the triple's n; its config still
        # round-trips, with a norm in the default dimension
        cfg = parse_config(MINIMAL.replace("suite = identities", "suite = identities\nn = 1"))
        assert cfg.n == 1
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("suite", ["flat-hpw", "flat-hardy", "all"])
    def test_norm_dimension_must_equal_n(self, suite):
        text = MINIMAL.replace("suite = identities", f"suite = {suite}\nn = 3")
        with pytest.raises(ConfigError) as exc:
            parse_config(text + "\n[norm]\nfamily = lp\ndimension = 2\np = 4.0\n")
        assert "norm.dimension = 2 differs from run.n = 3" in str(exc.value)

    def test_norm_dimension_defaults_to_n(self):
        text = "[run]\nsuite = flat-hpw\nn = 4\n"
        assert parse_config(text).norm_spec == {"family": "euclidean", "dimension": 4}
        cfg = parse_config(text + "\n[norm]\nfamily = lp\np = 4.0\n")
        assert cfg.norm_spec == {"family": "lp", "dimension": 4, "p": 4.0}
        assert cfg.norm().dimension == 4

    def test_one_epsilon_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[grids]\nepsilon = 1e-2\n")
        assert "grids.epsilon needs at least two values" in str(exc.value)

    @pytest.mark.parametrize("suite", ["all", "identities"])
    def test_missing_triple_names_the_suite(self, suite):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[run]\nsuite = {suite}\nn = 3\n")
        assert f"suite {suite!r} requires a [triple] section" in str(exc.value)

    def test_suite_flag_all_needs_the_triple(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[run]\nsuite = flat-hpw\nn = 3\n", suite="all")
        assert "suite 'all' requires a [triple] section" in str(exc.value)

    @pytest.mark.parametrize("grid, message", [
        ("1e-2 1e-2 1e-3", "grids.epsilon repeats a value"),
        ("1e-2 1.5", "grids.epsilon holds 1.5"),
        ("1e-2 1", "grids.epsilon holds 1.0"),
        ("0 1e-2", "grids.epsilon holds 0.0"),
    ])
    def test_epsilon_that_gives_no_sharpness_row_rejected(self, grid, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[grids]\nepsilon = {grid}\n")
        assert message in str(exc.value)

    def test_readme_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        assert (cfg.suite, cfg.n, cfg.output_dir) == ("identities", 3, "out")
        assert cfg.norm_spec == {"family": "lp", "dimension": 3, "p": 4.0}
        assert cfg.triple == (3, 3.0, 1.0)
        assert (cfg.alpha_range, cfg.alpha_nodes) == ((3.0, 100.0), 4096)
        assert (cfg.tolerance, cfg.seed) == (1e-9, 0x5EED)


class TestRoundTrip:
    def test_parse_render_parse(self):
        cfg = parse_config(MINIMAL + "\n[grids]\nlambda = 0.5 1 2\n")
        again = parse_config(render_config(cfg))
        assert again == cfg

    def test_percent_in_output_dir(self, tmp_path):
        # configparser's escape %% reads as %, which render_config writes
        # back escaped: the config round-trips, and run_suite hashes it and
        # writes its artifacts to that directory
        cfg = parse_config(MINIMAL.replace("[run]", f"[run]\noutput_dir = {tmp_path}/out%%1"))
        assert cfg.output_dir == f"{tmp_path}/out%1"
        assert parse_config(render_config(cfg)) == cfg
        run_suite(cfg)
        assert (tmp_path / "out%1" / "identities.csv").is_file()

    def test_config_hash_without_percent_unchanged(self):
        # a config without % renders as before escaping: the hash in
        # all.json of the default --suite all run and of MINIMAL
        default = RunConfig("all", triple=(3, 3.0, 1.0))
        for cfg, digest in ((default, "1b283043de0b888e"), (parse_config(MINIMAL), "3ec3de8b41683f53")):
            assert hashlib.sha256(render_config(cfg).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("output_dir", ["a ;b", " a", "a ", "a\t;b", "a\n b"])
    def test_output_dir_read_back_as_another_named(self, tmp_path, output_dir):
        # parse_config reads these back as another directory (' ;' starts an
        # inline comment, the whitespace around a value is stripped), so
        # render_config refuses them by name, and run_suite before any suite runs
        cfg = RunConfig("identities", triple=(3, 3.0, 1.0), output_dir=output_dir)
        with pytest.raises(ValueError, match=re.escape(f"output_dir {output_dir!r} does not round-trip")):
            render_config(cfg)
        with pytest.raises(ValueError, match="does not round-trip"):
            run_suite(cfg, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_weighted_matrix_round_trip(self):
        text = MINIMAL + "\n[norm]\nfamily = weighted-euclidean\ndimension = 2\nmatrix = 4 0 0 1\n"
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg

    def test_fmt_is_lossless(self):
        for x in (1.0, 1 / 3, 2.25, 1e-9, 0.3341787245354644):
            assert float(_fmt(x)) == x
        assert _fmt(1.0) == "1.0000000000000000e+00"

    def test_series_written_as_fmt_would(self, tmp_path):
        xy = [(1.0, -0.0), (np.float64(1 / 3), 2.5e-300), (3, float("inf")), (1e308, float("nan"))]
        xy += list(zip(np.linspace(3.0, 100.0, 4096).tolist(), np.geomspace(1e-9, 1e9, 4096)))
        series = Series([x for x, _ in xy], [y for _, y in xy])
        result = SuiteResult("ko-refute", [], 0.0, "", 0, {"phi_vs_alpha": series})
        (path,) = emit_plot_data(result, tmp_path)
        assert_same_text(path.read_text(), "alpha,phi\n" + "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in xy))


def assert_same_text(got, want) -> None:
    """got == want, the rows that differ named first: pytest's own diff of
    two 4 000-row series that differ throughout runs for many minutes."""
    assert [i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())) if a != b] == []
    assert got == want


def percent_pass(x, y) -> bytes:
    """The series rows as one "%.16e,%.16e\\n" pass writes them."""
    values = [None] * (2 * len(x))
    values[::2], values[1::2] = list(x), list(y)
    return (("%.16e,%.16e\n" * len(x)) % tuple(values)).encode()


def assert_written_as_percent_would(values):
    values = [float(v) for v in values]
    x, y = values, values[::-1]
    want = percent_pass(x, y)
    assert _series_bytes(Series(x, y)) == want
    # a series of fewer than _SHORT_ROWS rows skips _format_block, so its
    # rows are also formatted as one block
    assert cli._format_block(np.array([v for xy in zip(x, y) for v in xy])) in (None, want)


def fast_block(values) -> bytes:
    """_format_block of the interleaved values, which must be what % writes."""
    v = np.array(values, float)
    text = cli._format_block(v)
    assert text == percent_pass(v[::2].tolist(), v[1::2].tolist())
    return text


def counting_blocks(monkeypatch) -> list:
    """The results of every _format_block call from now on, None for a block sent to %."""
    blocks = []
    fast = cli._format_block
    monkeypatch.setattr(cli, "_format_block", lambda v: blocks.append(fast(v)) or blocks[-1])
    return blocks


class TestSeriesFormat:
    """The vectorised series formatter writes what the % pass writes."""

    def test_dyadic_ties(self):
        # 2^-25 = 2.98023223876953125e-08 has 18 digits and ends in 5, so the
        # 17-digit rounding is a tie that % breaks half-even
        assert _series_bytes(Series([2.0**-25], [1.0])) == b"2.9802322387695312e-08,1.0000000000000000e+00\n"
        powers = [2.0**-j for j in range(1, 120)] + [2.0**j for j in range(1, 120)]
        base = [1e15 + 7, 2**50 + 3, 123456789012345.0, 3e14 + 1]
        fractions = [k + f / 8 for k in base for f in range(8)]
        assert_written_as_percent_would(powers + fractions)
        assert_written_as_percent_would([-v for v in fractions])

    def test_both_sides_of_powers_of_ten(self):
        tens = np.array([10.0**k for k in range(-99, 100)])
        below = np.nextafter(tens, 0.0)
        assert_written_as_percent_would(np.concatenate(
            [tens, below, np.nextafter(tens, np.inf), -np.nextafter(tens, np.inf)]
        ))
        # log10 of a value just below 10^k may land on k; the exponent is
        # corrected and the value stays on the fast path, all but the tie
        # 999999999999999.875 (18 digits, the last a 5)
        refused = [k for k, v in zip(range(-98, 100), below[1:]) if cli._format_block(np.array([v])) is None]
        assert refused == [15]

    def test_values_the_fast_path_refuses(self):
        special = [-1.5, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                   float("inf"), float("-inf"), float("nan")]
        assert_written_as_percent_would(special)
        for v in special[1:]:
            assert cli._format_block(np.array([1.0, v])) is None
        assert cli._format_block(np.array([1.0, -1.5])) is not None

    @pytest.mark.parametrize("value, fast", [
        (1e99, True), (9.99e99, True), (np.nextafter(1e100, 0.0), True), (1e100, False),
        (1.5e100, False), (1e-99, True), (1.5e-99, True), (np.nextafter(1e-99, 0.0), False),
        (1e-100, False), (9.99e-101, False),
    ])
    def test_exponents_99_and_100(self, value, fast):
        for v in (value, -value):
            assert_written_as_percent_would([v])
            assert (cli._format_block(np.array([v])) is not None) == fast

    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
    def test_rows_not_a_multiple_of_the_block(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        y = np.geomspace(1e-9, 1e9, rows)
        # one value per block that only the % pass writes
        y[::_BLOCK_ROWS] = 0.0
        assert _series_bytes(Series(x, y)) == percent_pass(x.tolist(), y.tolist())

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
    def test_finite_doubles(self, values):
        # one value the fast path refuses sends its whole block to %, so
        # each value is also checked alone
        assert_written_as_percent_would(values)
        for v in values:
            assert_written_as_percent_would([v])

    @pytest.mark.parametrize("n, alpha, tolerance", [(3, (3.0, 100.0), 1e-9), (6, (3.0, 100.0), 1e-12),
                                                     (6, (0.05, 1e6), 1e-12)], ids=["3-1e-09", "6-1e-12", "wide"])
    def test_whole_phi_series_as_percent_writes_it(self, tmp_path, monkeypatch, n, alpha, tolerance):
        # every row of a real scan, and none of it through the % pass; the
        # wide scan runs from alpha = 0.05, phi = 6.2 to alpha = 1e6, phi = 1.5e6
        blocks = counting_blocks(monkeypatch)
        result = run_suite(RunConfig(suite="ko-refute", n=n, alpha_range=alpha, tolerance=tolerance), str(tmp_path))
        text = (tmp_path / "phi_vs_alpha.csv").read_bytes()
        assert len(text.splitlines()) == 1 + 4096
        assert_same_text(text, b"alpha,phi\n" + percent_pass(*result.series["phi_vs_alpha"]))
        assert len(blocks) == -(-4096 // _BLOCK_ROWS) and None not in blocks

    def test_digit_groups_0000_and_9999(self):
        # every word of a record at its all-zero and all-nine entries: the
        # leading "d.d" as 1.0 and 9.9, the three groups of four digits after
        # it, and the last three digits before the 'e'
        texts = [
            "1.0712417141357325e+05", "9.9324622148768865e-15",
            "3.6000086624248464e+00", "3.7999987233313838e+12",
            "3.6247200004523635e+26", "3.5314299993513455e+03",
            "3.8445812850000725e-10", "3.1485182229999852e+24",
            "3.8574422356352000e+15", "3.5475411585648999e+03",
        ]
        values = [float(t) for t in texts]
        assert ["%.16e" % v for v in values] == texts
        fast_block(values)
        fast_block([-v for v in values])

    def test_carries_to_the_next_power_of_ten(self):
        # a double just below 10^k that rounds to 17 digits as 10^k: the
        # digits carry into an 18th, and the exponent grows by one
        carried = []
        for k in range(-99, 100):
            near = float(f"1e{k}")
            for v in (near, float(np.nextafter(near, 0.0))):
                if Decimal(v) < Decimal(10) ** k and "%.16e" % v == f"1.0000000000000000e{k:+03d}":
                    carried.append(v)
        assert len(carried) == 6
        fast_block(carried + [-v for v in carried])

    def test_every_exponent_through_the_table(self):
        values = [1.5 * 10.0**e for e in range(-99, 100)]
        assert [int(("%.16e" % v)[-3:]) for v in values] == list(range(-99, 100))
        fast_block([w for v in values for w in (v, -v)])
        fast_block([w for v in values for w in (-v, v)])

    def test_mixed_sign_blocks(self, monkeypatch):
        blocks = counting_blocks(monkeypatch)
        rng = np.random.default_rng(7)
        rows = 2 * _BLOCK_ROWS + 5
        # from 1e13 to 1e16 a random double is often a tie, which only % writes
        x, y = (rng.standard_normal(rows) * 10.0 ** rng.integers(-40, 12, rows) for _ in range(2))
        assert _series_bytes(Series(x, y)) == percent_pass(x.tolist(), y.tolist())
        assert len(blocks) == 3 and None not in blocks

    @pytest.mark.parametrize("rows", [_SHORT_ROWS - 1, _SHORT_ROWS, _SHORT_ROWS + 1])
    def test_series_about_the_short_cutoff(self, monkeypatch, rows):
        # a series shorter than _SHORT_ROWS goes to % whole; from there on
        # _format_block writes it
        blocks = counting_blocks(monkeypatch)
        x = np.geomspace(0.5, 20.0, rows)
        y = -np.sqrt(x)
        assert _series_bytes(Series(x.tolist(), y.tolist())) == percent_pass(x.tolist(), y.tolist())
        assert len(blocks) == (rows >= _SHORT_ROWS) and None not in blocks

    @pytest.mark.parametrize("n", range(3, 9))
    def test_phi_series_of_every_band_on_the_fast_path(self, monkeypatch, n):
        # the alpha ranges and tolerances of the benchmark's four bands
        from sharpineq import hyperbolic
        from sharpineq.quadrature import QuadratureSpec

        blocks = counting_blocks(monkeypatch)
        for alpha, tolerance in (((0.5, 20.0), 1e-9), ((3.0, 100.0), 1e-9), ((50.0, 400.0), 1e-9), ((2.0, 80.0), 1e-12)):
            scan = hyperbolic.ko_alpha_scan(n, alpha, 4096, QuadratureSpec(relative_tolerance=tolerance))
            xy = Series(scan["alphas"], scan["phi"])
            assert _series_bytes(xy) == percent_pass(*xy)
        assert len(blocks) == 4 * -(-4096 // _BLOCK_ROWS) and None not in blocks

    def test_unequal_columns_name_the_trace(self, tmp_path):
        result = SuiteResult("ko-refute", [], 0.0, "", 0, {"phi_vs_alpha": Series([1.0, 2.0], [3.0])})
        with pytest.raises(ValueError, match="series phi_vs_alpha: x has 2 values, y has 1"):
            emit_plot_data(result, tmp_path)

    def test_ndarray_columns(self, tmp_path):
        x, y = np.linspace(0.5, 2.0, 7), -np.arange(7.0)
        result = SuiteResult("ko-refute", [], 0.0, "", 0, {
            "phi_vs_alpha": Series(x, y), "volume_ratio_vs_rho": Series(np.array([]), np.array([])),
        })
        (path,) = emit_plot_data(result, tmp_path)
        assert path.read_bytes() == b"alpha,phi\n" + percent_pass(x.tolist(), y.tolist())


class TestRunSuite:
    def test_identities_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL)
        result = run_suite(cfg, str(tmp_path))
        assert result.passed
        for name in ("identities.csv", "identities.json", "summary.txt"):
            assert (tmp_path / name).exists()
        payload = json.loads((tmp_path / "identities.json").read_text())
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "pqr-identity" in names and "p-ode-residual" in names

    def test_summary_times_runners_and_artifacts(self, tmp_path, monkeypatch):
        # summary.txt is written after the series, so it times their writing too
        seen = []
        emit = cli.emit_plot_data
        monkeypatch.setattr(cli, "emit_plot_data",
                            lambda r, out: seen.append((out / "summary.txt").exists()) or emit(r, out))
        cfg = RunConfig(suite="all", triple=(3, 3.0, 1.0), alpha_nodes=64)
        result = run_suite(cfg, str(tmp_path))
        assert seen == [False]
        assert list(result.runner_s) == list(cli.RUNNERS)
        times = [line.split()[1] for line in (tmp_path / "summary.txt").read_text().splitlines()
                 if line.startswith("time: ")]
        assert times == [*cli.RUNNERS, "artifacts"]

    def test_identities_one_batch_for_the_grid(self, tmp_path, monkeypatch):
        # P(lam) is integrated once per lam, for both the identity and the
        # ODE rows, every lam a parameter of one gauss_kronrod_batch call,
        # and the gaussian-T rows take their Gamma values from one call for
        # the grid, with no other Gauss-Kronrod pass and no adaptive loop
        from sharpineq import flat, quadrature

        def no_batch(*args):
            raise AssertionError("a Gauss-Kronrod pass ran")

        passes, moments = [], []
        batch, moments_pass = flat.gauss_kronrod_batch, flat._gaussian_moments
        monkeypatch.setattr(flat, "gauss_kronrod_batch", lambda *a: passes.append(len(a[1])) or batch(*a))
        monkeypatch.setattr(flat, "_gaussian_moments", lambda *a: moments.append(1) or moments_pass(*a))
        monkeypatch.setattr(quadrature, "gauss_kronrod_batch", no_batch)
        monkeypatch.setattr(quadrature, "_adaptive_pass", None)
        cfg = parse_config(MINIMAL)
        assert run_suite(cfg, str(tmp_path)).passed
        assert (passes, len(moments)) == ([len(cfg.lambda_grid)], 1)
        names = [c["name"] for c in json.loads((tmp_path / "identities.json").read_text())["checks"]]
        k = len(cfg.lambda_grid)
        assert names == ["pqr-identity"] * k + ["p-ode-residual"] * k + [
            "gaussian-T-closed-form", "gaussian-T-ode"] * k

    def test_csv_determinism(self, tmp_path):
        cfg = parse_config(MINIMAL)
        run_suite(cfg, str(tmp_path / "a"))
        run_suite(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "identities.csv").read_bytes() == (
            tmp_path / "b" / "identities.csv"
        ).read_bytes()

    def test_no_nan_tokens_in_passing_csv(self, tmp_path):
        cfg = parse_config(MINIMAL)
        result = run_suite(cfg, str(tmp_path))
        assert result.passed
        text = (tmp_path / "identities.csv").read_text()
        assert "nan" not in text and "inf" not in text

    def test_hardy_plot_series_monotone(self, tmp_path):
        cfg = RunConfig(suite="flat-hardy")
        result = run_suite(cfg, str(tmp_path))
        assert result.passed
        lines = (tmp_path / "hardy_quotient_vs_logeps.csv").read_text().splitlines()
        assert lines[0] == "log_inv_eps,quotient"
        ys = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(ys, ys[1:]))

    def test_hardy_rows_from_the_batched_reports(self, tmp_path, monkeypatch):
        # the hardy-quotient, hardy-quantitative and hardy-improved rows of
        # r e^(-r^2) come from one batched report call each, not from the
        # adaptive reports for arbitrary u
        from sharpineq import flat, hyperbolic

        calls = []
        for module, name in ((flat, "gaussian_hardy_reports"), (hyperbolic, "gaussian_hardy_hyperbolic_reports")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append((name, a[1])) or real(*a))
        monkeypatch.setattr(flat, "hardy_report", None)
        monkeypatch.setattr(hyperbolic, "hardy_hyperbolic_report", None)
        for suite in ("flat-hardy", "hyperbolic"):
            assert run_suite(RunConfig(suite=suite, n=4), str(tmp_path / suite)).passed
        assert calls == [("gaussian_hardy_reports", [1.0]), ("gaussian_hardy_hyperbolic_reports", [1.0])]

    def test_failure_recorded_not_raised(self, tmp_path):
        # the flat Hardy quotient needs n >= 3; the error must land in a
        # failing row instead of aborting the run
        cfg = RunConfig(suite="flat-hardy", n=2)
        result = run_suite(cfg, str(tmp_path))
        assert not result.passed
        assert any(c.name.startswith("error:") for c in result.checks)
        # the row keeps its cause: exception type and message, in JSON and summary
        cause = "ValueError: Hardy needs n >= 3"
        assert [c.error for c in result.checks if c.name == "error:ValueError"] == [cause]
        payload = json.loads((tmp_path / "flat-hardy.json").read_text())
        assert [c["error"] for c in payload["checks"]] == [cause]
        assert f"error={cause}" in (tmp_path / "summary.txt").read_text()
        assert "error:ValueError," in (tmp_path / "flat-hardy.csv").read_text()

    def test_ko_refute_row_carries_error_estimate(self, tmp_path):
        cfg = RunConfig(suite="ko-refute", alpha_nodes=64)
        result = run_suite(cfg, str(tmp_path))
        (row,) = result.checks
        assert row.passed
        assert 0 < row.err <= cfg.tolerance
        run_suite(cfg, str(tmp_path / "again"))
        assert (tmp_path / "ko-refute.csv").read_bytes() == (
            tmp_path / "again" / "ko-refute.csv"
        ).read_bytes()

    def test_ko_refute_fails_without_alphas(self, tmp_path):
        # a RunConfig built in code skips the alpha_nodes check of parse_config
        result = run_suite(RunConfig(suite="ko-refute", alpha_nodes=1), str(tmp_path))
        assert not result.passed

    def test_json_rows_are_those_of_asdict(self, tmp_path):
        # an all run with an error row (flat-hardy at n = 2), and one without
        for suite, n in (("all", 2), ("all", 3)):
            cfg = RunConfig(suite=suite, n=n, triple=(3, 3.0, 1.0), alpha_nodes=64)
            result = run_suite(cfg, str(tmp_path / str(n)))
            payload = {
                "suite": result.suite,
                "passed": result.passed,
                "config_hash": result.config_hash,
                "seed": result.seed,
                "checks": [asdict(c) for c in result.checks],
            }
            want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert (tmp_path / str(n) / "all.json").read_text() == want
            assert any(c.error for c in result.checks) == (n == 2)
        # an error row whose message needs escapes, non-finite values, and no rows at all
        error = 'OSError: "quoted" C:\\dir\\file\nsecond line, ε ≤ 1 — ü'
        rows = [
            CheckRow("flat-hardy", "error:OSError", 0.0, math.nan, math.inf, -math.inf, math.nan,
                     math.nan, math.nan, 0.0, False, error=error),
            CheckRow("ko-refute", "no-sign-change", 3.0, 0.0, 0.0, 0.0, 0.0, -0.0, 1e-300, 0.0, True),
        ]
        for checks in (rows, rows[:1], []):
            result = SuiteResult("all", checks, 0.0, "0123456789abcdef", 0x5EED)
            cli._write_artifacts(result, tmp_path)
            payload = {
                "suite": "all", "passed": result.passed, "config_hash": "0123456789abcdef", "seed": 0x5EED,
                "checks": [asdict(c) for c in checks],
            }
            assert (tmp_path / "all.json").read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_csv_rows_as_fmt_writes_them(self, tmp_path):
        # every CheckRow field but error: floats as _fmt writes them, passed
        # as 1 or 0, the texts as they are
        rows = [
            CheckRow("flat-hardy", "error:ValueError", 0.0, math.nan, math.inf, -math.inf, math.nan,
                     math.nan, math.nan, 0.0, False, error="ValueError: Hardy needs n >= 3"),
            CheckRow("ko-refute", "no-sign-change", 3, 0.0, 0.0, 0.0, 0.0, -0.0, 1e-300, 0.0, True),
        ]
        cli._write_artifacts(SuiteResult("all", rows, 0.0, "", 0), tmp_path)
        cells = [[c.suite, c.name, *map(_fmt, (c.param, c.lhs, c.rhs, c.ratio, c.target, c.slack, c.err, c.tolerance)),
                  "1" if c.passed else "0"] for c in rows]
        header = "suite,name,param,lhs,rhs,ratio,target,slack,err,tolerance,passed"
        assert (tmp_path / "all.csv").read_text() == "\n".join([header] + [",".join(r) for r in cells]) + "\n"

    def test_chpw_bounds_row_carries_error_estimate(self, tmp_path):
        cfg = RunConfig(suite="chpw-bounds")
        (row,) = run_suite(cfg, str(tmp_path)).checks
        assert row.passed
        assert 0 < row.err <= cfg.tolerance


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        code = main(["--suite", "chpw-bounds", "--out", str(tmp_path)])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nsuite = nope\n")
        code = main(["--config", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_bad_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(MINIMAL + "\n[quadrature]\nseed = zz\n")
        assert main(["--config", str(bad)]) == 2
        assert "quadrature.seed" in capsys.readouterr().err

    def test_exit_two_on_bad_tolerance(self, tmp_path):
        assert main(["--suite", "chpw-bounds", "--out", str(tmp_path), "--tolerance", "-1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_exit_two_on_non_finite_tolerance(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["--suite", "all", "--out", str(out), "--tolerance", value]) == 2
        assert "config error: --tolerance: relative tolerance must be finite and positive" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("grids, suite", [("rho = 0 1 2", "hyperbolic"), ("lambda = -1 1", "identities")])
    def test_exit_two_on_grid_that_can_only_fail(self, tmp_path, capsys, grids, suite):
        ini = tmp_path / "run.ini"
        ini.write_text(MINIMAL + f"\n[grids]\n{grids}\n")
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--suite", suite, "--out", str(out)]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1e-2 1e-2 1e-3", "1e-2 1.5"])
    def test_exit_two_on_epsilon_grid(self, tmp_path, capsys, grid):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nsuite = flat-hardy\nn = 3\n\n[grids]\n" + f"epsilon = {grid}\n")
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out)]) == 2
        assert "config error: grids.epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "norm, cause",
        [
            ("family = lp\np = nan", "lp exponent must be finite and > 1, got nan"),
            ("family = lp\np = inf", "lp exponent must be finite and > 1, got inf"),
            ("family = weighted-euclidean\nmatrix = 1 0 0 inf", "matrix entries must be finite"),
        ],
    )
    def test_exit_two_on_non_finite_norm(self, tmp_path, capsys, norm, cause):
        # the flat-hpw checks never evaluate the norm, so such a run used to pass
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nsuite = flat-hpw\nn = 2\n\n[norm]\n{norm}\n")
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out)]) == 2
        assert f"config error: bad norm config: {cause}" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_two_on_suite_all_without_triple(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nsuite = all\nn = 3\n")
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out)]) == 2
        assert "config error: suite 'all' requires a [triple] section" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_flag_validated_like_the_config(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nsuite = hyperbolic\nn = 2\n")
        assert main(["--config", str(ini), "--suite", "flat-hardy", "--out", str(tmp_path / "out")]) == 2
        assert "run.n = 2 is below 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_run(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(MINIMAL)
        code = main(["--config", str(ini), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "identities.csv").exists()
