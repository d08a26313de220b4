import json
from pathlib import Path

import numpy as np
import pytest

from sharpineq.cli import (
    ConfigError,
    RunConfig,
    SuiteResult,
    _fmt,
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
        result = SuiteResult("ko-refute", [], 0.0, "", 0, {"phi_vs_alpha": xy})
        (path,) = emit_plot_data(result, tmp_path)
        want = "alpha,phi\n" + "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in xy)
        assert path.read_text() == want


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
