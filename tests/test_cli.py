"""Command-line front end: config handling, CSV emission, determinism, exit codes."""

import argparse
import math
import os
import subprocess
import sys

import pytest

from fbl import channel as ch
from fbl import cli
from fbl import config as cf
from fbl import converse as cv
from fbl import mc
from fbl.errors import ConfigurationError
from fbl.mc import MCConfig

# enough samples to certify the 1 - eps + tau quantile at the default delta
FAST = ["--samples", "20000", "--n", "30"]


def _run(argv, threads=None):
    env = dict(os.environ)
    if threads is not None:
        env["FBL_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "fbl.cli", *argv], capture_output=True, text=True, env=env
    )


class TestNGrid:
    def test_arithmetic(self):
        assert cf.parse_n_grid("100:200:50") == (100, 150, 200)

    def test_geometric(self):
        grid = cf.parse_n_grid("geom:10:1000:3")
        assert grid == (10, 100, 1000)

    def test_comma_list_sorted_unique(self):
        assert cf.parse_n_grid("30,10,20,10") == (10, 20, 30)

    def test_single_value(self):
        assert cf.parse_n_grid("64") == (64,)

    def test_bad_specs(self):
        for text in ("a:b:c", "10:5:1", "geom:10:5:3", "geom:10:100:1", ""):
            with pytest.raises(ConfigurationError):
                cf.parse_n_grid(text)


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identity(self):
        # every key the parser reads, checked against the request it builds
        text = """
        # channel
        antennas = 1x2
        snr_db = -1.55
        fading.kind = rician
        fading.k_db = 20
        cov = waterfill
        epsilon = 1e-3
        tau = 0.0005
        n_grid = 200,100
        bounds = ach-simo,conv-simo
        seed = 7
        samples = 5000
        confidence_delta = 0.02
        """
        assert cf.request_from_mapping(cf.parse_config_text(text)) == cf.SweepRequest(
            spec=ch.ChannelSpec(
                t=1, r=2, snr=cf.db_to_linear(-1.55), fading=ch.Rician(k_factor=cf.db_to_linear(20.0))
            ),
            cov=ch.WaterFill(),
            epsilon=1e-3,
            n_grid=(100, 200),
            bounds=("ach-simo", "conv-simo"),
            mc=MCConfig(seed=7, samples=5000, confidence_delta=0.02),
            tau=0.0005,
        )

    def test_round_trip_with_rate_and_output(self):
        req = cf.request_from_mapping(cf.parse_config_text(
            "antennas = 2x3\nsnr_db = 2.12\nfading.kind = nakagami\nfading.m_shape = 2.5\n"
            "bounds = outage\nrate_bits = 1\noutput = x.csv\n"
        ))
        assert req.rate_nats == pytest.approx(math.log(2.0))
        assert req.output == "x.csv"
        # the defaults of every key the text leaves out
        assert req == cf.SweepRequest(
            spec=ch.ChannelSpec(t=2, r=3, snr=cf.db_to_linear(2.12), fading=ch.Nakagami(m_shape=2.5)),
            cov=ch.Isotropic(),
            epsilon=1e-3,
            n_grid=(100,),
            bounds=("outage",),
            mc=MCConfig(seed=1, samples=100_000, confidence_delta=0.01),
            tau=None,
            rate_nats=math.log(2.0),
            output="x.csv",
        )

    def test_bad_lines_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.request_from_mapping(cf.parse_config_text("antennas 1x2\n"))
        with pytest.raises(ConfigurationError):
            cf.request_from_mapping(cf.parse_config_text("antennas = 1x2\n"))  # missing snr_db

    def test_simo_bound_with_mimo_antennas_rejected_before_compute(self):
        t1_only = [b for b, e in cf.BOUNDS.items() if e.t1_only]
        assert t1_only == ["ach-simo", "ach-csir-kb", "conv-simo"]
        for bound in t1_only:
            with pytest.raises(ConfigurationError, match="single transmit antenna"):
                cf.request_from_mapping(cf.parse_config_text(f"antennas = 2x2\nsnr_db = 0\nbounds = {bound}\n"))

    def test_outage_requires_rate(self):
        with pytest.raises(ConfigurationError):
            cf.request_from_mapping(cf.parse_config_text("antennas = 1x1\nsnr_db = 0\nbounds = outage\n"))

    def test_flags_left_out_take_the_config_defaults(self):
        args = cli.build_parser().parse_args(["eps-capacity", "--snr-db", "0"])
        req = cli._request(args)
        assert req == cf.request_from_mapping(cf.parse_config_text("snr_db = 0\nbounds = eps-capacity\n"))
        assert req.mc == MCConfig(seed=1)

    def test_n_grid_flag_takes_precedence_over_n(self):
        argv = ["approx", "awgn", "--snr-db", "0", "--n", "50", "--n-grid", "10,20"]
        args = cli.build_parser().parse_args(argv)
        assert cli._request(args).n_grid == (10, 20)

    def test_flags_override_the_file_and_the_preset_alike(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("antennas = 1x2\nsnr_db = 0\nbounds = awgn\nseed = 5\nsamples = 3000\nn_grid = 100\n"
                       "output = a.csv\n")
        out = str(tmp_path / "b.csv")
        flags = ["--seed", "9", "--samples", "2000", "--n-grid", "20,40", "--output", out]
        parser = cli.build_parser()
        from_file = cli._request(parser.parse_args(["sweep", "--config", str(cfg), *flags]))
        from_preset = cli._request(parser.parse_args(["figure", "fig5", *flags]))
        for req in (from_file, from_preset):
            assert req.mc.seed == 9 and req.mc.samples == 2000 and req.n_grid == (20, 40) and req.output == out
        assert from_file.bounds == ("awgn",)
        assert from_preset.bounds == ("ach-simo", "conv-simo", "normal")
        # a bound command: one input per flag that sets a config key, each
        # fading parameter under its own fading kind
        common = [
            ("--cov", "cov", "waterfill"), ("--epsilon", "epsilon", "0.02"), ("--tau", "tau", "0.005"),
            ("--seed", "seed", "9"), ("--samples", "samples", "2000"),
            ("--confidence-delta", "confidence_delta", "0.02"), ("--rate-bits", "rate_bits", "1.5"),
            ("--n-grid", "n_grid", "20,40"), ("--output", "output", out),
        ]
        for fading in (
            [("--fading", "fading.kind", "rician"), ("--k-db", "fading.k_db", "10")],
            [("--fading", "fading.kind", "nakagami"), ("--m-shape", "fading.m_shape", "2.5")],
        ):
            argv = ["outage", "--t", "2", "--r", "3", "--snr-db", "1.5"]
            kv = {"antennas": "2x3", "snr_db": "1.5", "bounds": "outage"}
            for flag, key, value in fading + common:
                argv += [flag, value]
                kv[key] = value
            assert cli._request(parser.parse_args(argv)) == cf.request_from_mapping(kv)

    def test_every_flag_key_is_a_config_key(self):
        # `_request` lays a flag over the config mapping by its dest; the
        # flags whose dest is no config key are read by name there
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings}
        assert dests - set(cf.KEYS) == {"help", "t", "r", "n", "config"}

    @pytest.mark.parametrize("line", ["cov = isotropic", "cov = csit", "fading.kind = rice"])
    def test_unlisted_values_rejected(self, line):
        with pytest.raises(ConfigurationError):
            cf.request_from_mapping(cf.parse_config_text(f"snr_db = 0\n{line}\n"))


class TestBoundTable:
    def test_bound_names_fix_the_stream_offsets(self):
        # a bound's stream offset is its index here: reordering changes every CSV
        assert cf.BOUND_NAMES == [
            "ach-csit", "ach-nocsi", "ach-simo", "ach-csir-kb", "conv-simo", "conv-iso",
            "normal", "awgn", "outage", "eps-capacity",
        ]

    def test_sides_pinned(self):
        # the side cell of every row is read from the table
        assert {b: e.side for b, e in cf.BOUNDS.items()} == {
            "ach-csit": "lower", "ach-nocsi": "lower", "ach-simo": "lower", "ach-csir-kb": "lower",
            "conv-simo": "upper", "conv-iso": "upper", "normal": "estimate", "awgn": "estimate",
            "outage": "outage", "eps-capacity": "estimate",
        }

    @pytest.mark.parametrize(
        "command, names",
        [
            ("bound", ["ach-csit", "ach-nocsi", "ach-simo", "ach-csir-kb", "conv-simo", "conv-iso"]),
            ("approx", ["normal", "awgn"]),
        ],
    )
    def test_parser_name_choices_come_from_the_table(self, command, names):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        name = next(a for a in subparsers[command]._actions if a.dest == "name")
        assert name.choices == names
        assert [b for b, e in cf.BOUNDS.items() if e.command == command] == names

    @pytest.mark.parametrize(
        "command, dest, values",
        [
            ("figure", "name", ["fig2", "fig3", "fig5"]),
            ("bound", "fading.kind", ["rayleigh", "rician", "nakagami"]),
            ("bound", "cov", ["iso", "waterfill"]),
        ],
    )
    def test_parser_value_choices_come_from_config(self, command, dest, values):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        action = next(a for a in subparsers[command]._actions if a.dest == dest)
        assert action.choices == values
        assert values in (list(cf.PRESETS), list(cf.FADINGS), list(cf.COVARIANCES))


class TestFigurePresets:
    def test_fig2_contents(self):
        req = cf.request_from_mapping(cf.figure_preset("fig2"))
        assert req.spec.t == 1 and req.spec.r == 2
        assert req.spec.snr == pytest.approx(cf.db_to_linear(-1.55))
        assert isinstance(req.spec.fading, ch.Rician)
        assert req.spec.fading.k_factor == pytest.approx(100.0)
        assert req.epsilon == 1e-3
        assert req.bounds == ("ach-simo", "ach-csir-kb", "conv-simo", "normal", "awgn")
        assert req.mc.seed == 1

    def test_fig3_contents(self):
        req = cf.request_from_mapping(cf.figure_preset("fig3"))
        assert (req.spec.t, req.spec.r) == (2, 3)
        assert req.spec.snr == pytest.approx(cf.db_to_linear(2.12))
        assert isinstance(req.spec.fading, ch.Rayleigh)
        assert req.bounds == ("ach-nocsi", "conv-iso", "normal")
        assert isinstance(req.cov, ch.Isotropic)

    def test_fig5_contents(self):
        req = cf.request_from_mapping(cf.figure_preset("fig5"))
        assert (req.spec.t, req.spec.r) == (1, 2)
        assert req.epsilon == 0.1
        assert req.spec.snr == pytest.approx(cf.db_to_linear(2.74))

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            cf.figure_preset("fig9")

    @pytest.mark.parametrize(
        "name, spec, cov, epsilon, bounds",
        [
            (
                "fig2",
                ch.ChannelSpec(
                    t=1, r=2, snr=cf.db_to_linear(-1.55), fading=ch.Rician(k_factor=cf.db_to_linear(20.0))
                ),
                ch.WaterFill(),
                1e-3,
                ("ach-simo", "ach-csir-kb", "conv-simo", "normal", "awgn"),
            ),
            (
                "fig3",
                ch.ChannelSpec(t=2, r=3, snr=cf.db_to_linear(2.12), fading=ch.Rayleigh()),
                ch.Isotropic(),
                1e-3,
                ("ach-nocsi", "conv-iso", "normal"),
            ),
            (
                "fig5",
                ch.ChannelSpec(t=1, r=2, snr=cf.db_to_linear(2.74), fading=ch.Rayleigh()),
                ch.WaterFill(),
                0.1,
                ("ach-simo", "conv-simo", "normal"),
            ),
        ],
    )
    def test_every_field_pinned(self, name, spec, cov, epsilon, bounds):
        req = cf.request_from_mapping(cf.figure_preset(name))
        assert req.spec == spec
        assert req.cov == cov
        assert req.epsilon == epsilon
        assert req.n_grid == (10, 15, 23, 35, 53, 81, 123, 187, 285, 433, 658, 1000)
        assert req.bounds == bounds
        assert req.mc == MCConfig(seed=1, samples=100_000, confidence_delta=0.01)
        assert (req.tau, req.rate_nats, req.output) == (None, None, None)


class TestRunSweep:
    def test_empty_bounds_header_only(self, capsys):
        req = cf.request_from_mapping(cf.parse_config_text("antennas = 1x1\nsnr_db = 0\nbounds =\n"))
        assert cli.run_sweep(req) == []
        cli._emit([], None)
        assert capsys.readouterr().out == cli.CSV_HEADER + "\n"

    def test_unit_discipline_every_row(self):
        # every bound of the table on the Fig. 2 channel, on a two-point grid
        req = cf.request_from_mapping(cf.parse_config_text(
            "antennas = 1x2\nsnr_db = -1.55\nfading.kind = rician\nfading.k_db = 20\n"
            f"cov = waterfill\nbounds = {','.join(cf.BOUND_NAMES)}\nrate_bits = 1\n"
            "n_grid = 20,40\nsamples = 50000\nseed = 3\n"
        ))
        rows = cli.run_sweep(req)
        assert len(rows) == 2 * len(cf.BOUNDS)
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(cli.CSV_HEADER.split(","))
            bound, side = cells[0], cells[6]
            rate_nats, rate_bits, lo, hi = (float(c) for c in cells[2:6])
            assert rate_bits == pytest.approx(rate_nats / math.log(2.0), rel=1e-9)
            assert cells[7] == "3" and cells[8] == "50000"
            assert side == cf.BOUNDS[bound].side
            if bound != "outage":
                # an outage row's ci is a probability, not a rate
                assert lo <= rate_nats <= hi, row
            if side == "lower":
                assert rate_nats == lo, row
            if side == "upper":
                assert rate_nats == hi, row
        # conv-simo is aligned on the grid's n inside converse_simo
        for n in req.n_grid:
            rate, ci = cv.converse_simo(req.spec, n, req.epsilon)
            expected = ",".join(cli._fmt(x) for x in (rate, rate / math.log(2.0), *ci))
            assert f"conv-simo,{n},{expected},upper,3,50000" in rows


class TestGainLawQuadratureRows:
    """conv-simo and ach-csir-kb draw nothing: their seed and samples cells carry no meaning."""

    def test_rows_identical_across_seed_and_samples(self):
        rows = []
        for seed, samples in (("7", "10000"), ("8", "20000")):
            req = cf.request_from_mapping({
                "antennas": "1x2", "snr_db": "-1.55", "fading.kind": "rician", "fading.k_db": "20",
                "epsilon": "1e-3", "bounds": "ach-csir-kb,conv-simo", "n_grid": "40,200",
                "seed": seed, "samples": samples,
            })
            out = cli.run_sweep(req)
            assert [row.split(",")[7:] for row in out] == [[seed, samples]] * 4
            rows.append([row.split(",")[:7] for row in out])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("bound", ["conv-simo", "ach-csir-kb"])
    def test_single_n_row_is_the_grid_row(self, bound, capsys):
        common = ["bound", bound, "--r", "2", "--snr-db", "2.74", "--epsilon", "0.1", "--seed", "7"]
        assert cli.main([*common, "--n-grid", "20,40,80"]) == 0
        grid = capsys.readouterr().out.splitlines()[1:]
        assert cli.main([*common, "--n", "40"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [grid[1]]


class TestSharedChannels:
    """The per-n bounds draw their channel gains once per grid and stream."""

    @pytest.mark.parametrize(
        "bound, t, r, cov",
        [("conv-iso", "2", "3", "iso"), ("ach-nocsi", "2", "3", "iso"),
         ("ach-csit", "3", "2", "waterfill"), ("ach-simo", "1", "2", "waterfill")],
    )
    def test_single_n_row_is_the_grid_row(self, bound, t, r, cov, capsys):
        common = ["bound", bound, "--t", t, "--r", r, "--snr-db", "2.12", "--cov", cov,
                  "--epsilon", "0.1", "--samples", "3000", "--seed", "7"]
        assert cli.main([*common, "--n-grid", "20,40,80"]) == 0
        grid = capsys.readouterr().out.splitlines()[1:]
        assert cli.main([*common, "--n", "40"]) == 0
        single = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[1] for row in grid] == ["20", "40", "80"]
        assert single == [grid[1]]

    @pytest.mark.parametrize("bound, streams", [("conv-iso", 2), ("ach-nocsi", 1)])
    def test_channels_drawn_once_per_chunk_and_stream(self, bound, streams, monkeypatch):
        # 3,000 samples in chunks of 1,000 on a three-point grid: one channel
        # draw per chunk of each channel stream, none per n
        monkeypatch.setattr(mc, "CHUNK", 1000)
        calls = []
        sample_channel = ch.sample_channel

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_channel(*args, **kwargs)

        monkeypatch.setattr(ch, "sample_channel", counted)
        req = cf.request_from_mapping({
            "antennas": "2x3", "snr_db": "2.12", "epsilon": "0.1", "bounds": bound,
            "n_grid": "20,40,80", "samples": "3000", "seed": "7",
        })
        assert len(cli.run_sweep(req)) == 3
        assert len(calls) == streams * 3


class TestCommandLine:
    def test_eps_capacity_runs_and_is_seed_deterministic(self):
        argv = [
            "eps-capacity", "--r", "2", "--snr-db", "-1.55", "--fading", "rician",
            "--k-db", "20", "--cov", "waterfill", "--samples", "60000", "--seed", "5",
        ]
        a = _run(argv)
        b = _run(argv)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.splitlines()[0] == cli.CSV_HEADER

    @pytest.mark.parametrize(
        "argv",
        [
            ["outage", "--rate-bits", "1"],
            ["eps-capacity", "--epsilon", "0.01"],
        ],
        ids=["outage", "eps-capacity"],
    )
    def test_n_independent_rows_drawn_once_per_grid(self, argv, capsys):
        common = ["--t", "2", "--r", "2", "--snr-db", "0", "--samples", "20000", "--seed", "7"]
        assert cli.main([*argv, *common, "--n-grid", "20,100"]) == 0
        grid_rows = capsys.readouterr().out.splitlines()[1:]
        assert cli.main([*argv, *common, "--n", "20"]) == 0
        single_rows = capsys.readouterr().out.splitlines()[1:]
        assert len(grid_rows) == 2 and len(single_rows) == 1
        assert [row.split(",")[1] for row in grid_rows] == ["20", "100"]
        assert grid_rows[0] == single_rows[0]
        assert grid_rows[1] == single_rows[0].replace(",20,", ",100,", 1)

    def test_degenerate_fading_warning_printed_once(self, capsys):
        argv = [
            "eps-capacity", "--r", "2", "--snr-db", "0", "--fading", "rician", "--k-db", "300",
            "--epsilon", "0.01", "--samples", "20000", "--n-grid", "20,100,500",
        ]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 + 3
        assert err.splitlines() == [
            "warning: capacity quantile is epsilon-independent (degenerate fading?)"
        ]

    def test_thread_count_does_not_change_output(self):
        argv = ["bound", "ach-simo", "--r", "2", "--snr-db", "0", "--cov", "waterfill", *FAST]
        one = _run(argv, threads=1)
        four = _run(argv, threads=4)
        eight = _run(argv, threads=8)
        assert one.returncode == 0
        assert one.stdout == four.stdout == eight.stdout

    @pytest.mark.parametrize("shape", [("4", "4"), ("5", "3"), ("2", "3")], ids=["4x4", "5x3", "2x3"])
    @pytest.mark.parametrize(
        "argv", [["outage", "--rate-bits", "4"], ["eps-capacity", "--epsilon", "0.01"]],
        ids=["outage", "eps-capacity"],
    )
    def test_isotropic_log_det_thread_determinism(self, argv, shape, capsys, monkeypatch):
        # isotropic input at any min(t, r): the spectrum-free log-det path
        t, r = shape
        common = ["--t", t, "--r", r, "--snr-db", "3", "--cov", "iso", "--samples", "12000", "--seed", "11"]
        monkeypatch.setattr(mc, "CHUNK", 1000)
        outputs = []
        for threads in (1, 2, 4):
            monkeypatch.setenv("FBL_THREADS", str(threads))
            assert cli.main([*argv, *common]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs[0].splitlines()) == 2
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["eps-capacity", "--t", "4", "--r", "4", "--cov", "waterfill", "--epsilon", "0.01"],
            ["bound", "conv-iso", "--t", "3", "--r", "3", "--n", "30"],
        ],
        ids=["waterfill-4x4-eps-capacity", "conv-iso-3x3"],
    )
    def test_tridiagonal_spectrum_thread_determinism(self, argv, capsys, monkeypatch):
        # min(t, r) >= 3 spectra: the Householder reduction runs on the pool
        monkeypatch.setattr(mc, "CHUNK", 1000)
        outputs = []
        for threads in (1, 2):
            monkeypatch.setenv("FBL_THREADS", str(threads))
            assert cli.main([*argv, "--snr-db", "3", "--samples", "20000", "--seed", "11"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs[0].splitlines()) == 2
        assert outputs[0] == outputs[1]

    def test_configuration_error_exit_code(self):
        res = _run(["bound", "conv-simo", "--t", "2", "--r", "2", "--snr-db", "0", *FAST])
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_missing_config_file_exit_code(self):
        res = _run(["sweep", "--config", "/nonexistent/path.cfg"])
        assert res.returncode == 2

    @pytest.mark.parametrize("threads", ["abc", "0", "-3"])
    def test_bad_thread_count_exit_code(self, threads):
        # awgn never starts the sampling pool: the variable is checked up front
        res = _run(["approx", "awgn", "--snr-db", "0", "--n", "100"], threads=threads)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            f"error: FBL_THREADS must be a positive integer, got {threads!r}"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "normal", "--snr-db", "nan", "--n", "50", "--samples", "2000"],
            ["bound", "ach-simo", "--r", "2", "--snr-db", "nan", *FAST],
            ["eps-capacity", "--snr-db", "nan", "--samples", "2000"],
            ["outage", "--snr-db", "0", "--rate-bits", "nan", "--samples", "2000"],
            ["bound", "conv-simo", "--r", "2", "--snr-db", "0", "--fading", "rician",
             "--k-db", "nan", *FAST],
            ["eps-capacity", "--snr-db", "inf", "--samples", "2000"],
            ["eps-capacity", "--snr-db", "0", "--fading", "nakagami", "--m-shape", "nan",
             "--samples", "2000"],
        ],
        ids=["normal-snr", "ach-simo-snr", "eps-capacity-snr", "outage-rate", "rician-k",
             "infinite-snr", "nakagami-m"],
    )
    def test_non_finite_input_exit_code(self, argv, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "nan" in err or "inf" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "ach-simo", "--r", "2", "--snr-db", "0", "--n", "0", "--samples", "2000"],
            ["eps-capacity", "--snr-db", "1e308", "--samples", "2000"],
            ["bound", "conv-iso", "--snr-db", "0", "--tau", "abc", *FAST],
        ],
        ids=["zero-blocklength", "db-overflow", "bad-tau"],
    )
    def test_malformed_input_exit_code(self, argv, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_output_directory_exit_code(self, tmp_path):
        res = _run(["approx", "awgn", "--snr-db", "0", "--n", "100", "--output", str(tmp_path)])
        assert res.returncode == 2
        assert res.stderr.splitlines() == [f"error: output path is a directory: {tmp_path}"]

    def test_unwritable_output_exit_code(self, tmp_path):
        out = tmp_path / "missing" / "out.csv"
        res = _run(["approx", "awgn", "--snr-db", "0", "--n", "100", "--output", str(out)])
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1 and "error:" in res.stderr

    def test_outage_row_carries_probability_interval(self):
        res = _run(
            [
                "outage", "--r", "2", "--snr-db", "-1.55", "--fading", "rician",
                "--k-db", "20", "--cov", "waterfill", "--rate-bits", "1",
                "--samples", "60000", "--n", "1",
            ]
        )
        assert res.returncode == 0
        cells = res.stdout.splitlines()[1].split(",")
        lo, hi = float(cells[4]), float(cells[5])
        assert 0.0 <= lo <= 1e-3 <= hi <= 1.0

    def test_figure_preset_override_and_output_file(self, tmp_path):
        out = tmp_path / "fig5.csv"
        res = _run(
            ["figure", "fig5", "--seed", "7", "--samples", "2000", "--n-grid", "20,40",
             "--output", str(out)]
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        # three bounds on a two-point grid
        assert len(lines) == 1 + 3 * 2
        assert all(cells.split(",")[7] == "7" for cells in lines[1:])

    def test_misspelt_config_keys_exit_code(self, tmp_path, capsys):
        # misspelt keys would otherwise take their defaults (n = 100, 100,000 samples)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("antennas = 1x1\nsnr_db = 0\nbounds = awgn\nn_gird = 20,40\nsampels = 500\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: unknown config key: n_gird, sampels"]

    @pytest.mark.parametrize(
        "argv",
        [["outage", "--rate-bits", "1"], ["eps-capacity"], ["bound", "conv-iso"], ["approx", "normal"]],
        ids=["outage", "eps-capacity", "bound", "approx"],
    )
    def test_chunk_size_flag_refused(self, argv):
        # the chunk size is fixed (mc.CHUNK), so seed and samples fix every draw
        res = _run([*argv, "--t", "2", "--r", "2", "--snr-db", "0", *FAST, "--chunk-size", "1000"])
        assert res.returncode == 2
        assert res.stdout == ""
        assert "unrecognized arguments: --chunk-size 1000" in res.stderr
        assert "Traceback" not in res.stderr

    def test_chunk_size_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("antennas = 1x1\nsnr_db = 0\nbounds = awgn\nchunk_size = 1000\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: unknown config key: chunk_size"]

    def test_row_over_several_chunks_pinned(self, capsys):
        # 20,000 samples span five chunks of 4,096 draws; another chunk size
        # moves every chunk's stream, and with it this row (0.850394132832
        # nats in chunks of 1,000)
        argv = ["bound", "conv-iso", "--t", "2", "--r", "3", "--snr-db", "2.12", "--seed", "7",
                "--samples", "20000", "--n", "200"]
        assert cli.main(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:3] == ["conv-iso", "200", "0.844715432431"]

    @pytest.mark.parametrize("snr_db, seed", [("-150", "8"), ("-160", "1"), ("-200", "1")])
    def test_vanishing_snr_conv_iso_exit_code(self, snr_db, seed):
        # delta = 2n / gain of a noncentral chi-square draw passes twice
        # numpy's Poisson limit (about 1.8e19) at these SNRs (at -150 dB only
        # some seeds draw a gain that small, seed 8 among them); those rows
        # take the draw past the limit, and the bound is printed
        argv = ["bound", "conv-iso", "--t", "2", "--r", "3", "--snr-db", snr_db, "--samples", "2000", "--n", "20"]
        res = _run([*argv, "--seed", seed])
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 2 and lines[1].startswith("conv-iso,20,")
        rate = float(lines[1].split(",")[2])
        assert math.isfinite(rate) and rate >= 0.0

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats and the scipy.optimize it loads would double the start-up time
        code = "import sys, fbl.cli; print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    def test_sweep_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "antennas = 1x1\nsnr_db = 0\nbounds = awgn\nn_grid = 100:300:100\nsamples = 1000\n"
        )
        res = _run(["sweep", "--config", str(cfg)])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert [row.split(",")[1] for row in lines[1:]] == ["100", "200", "300"]
