"""End-to-end tests of the command-line front end.

Everything drives delcap.cli.main(argv) directly so exit codes and output
bytes are checked in-process.
"""

import json
import math
import os
import sys

import pytest

from delcap import DupApproach, cli, mdm, sum_max_counts, typical_output_length
from delcap.cli import main


def run(argv):
    return main(argv)


def test_count_basic(capsys):
    assert run(["count", "00101011", "0101"]) == 0
    assert capsys.readouterr().out == "16\n"


def test_count_verify(capsys):
    assert run(["count", "00101011", "0101", "--verify"]) == 0
    assert capsys.readouterr().out == "16\noracle 16\n"


def test_count_usage_error(capsys):
    assert run(["count", "01", "0101"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    assert run(["nosuch"]) == 2


def test_cap_exit_code(capsys):
    assert run(["mdm-table", "--n", "30", "--m", "4", "--output", "/tmp/never.csv"]) == 3
    assert "cap" in capsys.readouterr().err


def test_io_exit_code(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert run(["bounds", "--channel", "bec", "--d-grid", "0.1:0.9:0.4", "--output", str(target)]) == 4


def test_missing_config_exits_4(tmp_path):
    assert run(["--config", str(tmp_path / "absent.cfg"), "count", "01", "0"]) == 4


def test_table_csv_golden(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["mdm-table", "--n", "8", "--m", "4", "--output", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "y,x_star,max_count,x_dup,dup_count,ratio"
    assert lines[1] == "0000,00000000,70,00000000,70,1.00000"
    assert lines[6] == "0101,00101011,16,00110011,16,1.00000"
    assert len(lines) == 17
    # byte-determinism on a second run
    out2 = tmp_path / "t2.csv"
    assert run(["mdm-table", "--n", "8", "--m", "4", "--output", str(out2)]) == 0
    assert out2.read_bytes() == data


def test_table_no_canonical_flag_is_gone(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["mdm-table", "--n", "8", "--m", "4", "--no-canonical", "--output", str(out)]) == 2
    assert not out.exists()


def test_table_gamma_rows_have_empty_x_dup(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["mdm-table", "--n", "7", "--m", "3", "--approach", "gamma", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = [l for l in lines if l.startswith("010,")][0]
    fields = row.split(",")
    assert fields[3] == ""
    assert fields[4] == f"{(7 / 3) ** 3:.6f}"
    # a fractional stretch: only the Gamma estimate leaves x_dup empty
    for approach, tail in (
        ("assign-to-last", ",001111000,36,0.90000"),
        ("assign-by-length", ",001111100,40,1.00000"),
        ("gamma", ",,39.867188,0.99668"),
    ):
        assert run(["mdm-table", "--n", "9", "--m", "4", "--approach", approach, "--output", str(out)]) == 0
        [row] = [l for l in out.read_text().splitlines() if l.startswith("0110,")]
        assert row == "0110,001111100,40" + tail, approach


# bytes the sequence-object writers wrote: the m = 0 table, whose y field
# and checkpoint rep are empty, and a Gamma table with an empty x_dup column
# resumed from the first line of the checkpoint they wrote
WRITTEN_5_0 = (
    "y,x_star,max_count,x_dup,dup_count,ratio\n,00000,1,00000,1,1.00000\n",
    " 1 :00000\n",
)
WRITTEN_7_3_GAMMA = (
    "y,x_star,max_count,x_dup,dup_count,ratio\n"
    "000,0000000,35,,35.000000,1.00000\n"
    "001,0000011,20,,19.962963,0.99815\n"
    "010,0001100,12,,12.703704,1.05864\n"
    "011,0011111,20,,19.962963,0.99815\n"
    "100,1100000,20,,19.962963,0.99815\n"
    "101,1100011,12,,12.703704,1.05864\n"
    "110,1111100,20,,19.962963,0.99815\n"
    "111,1111111,35,,35.000000,1.00000\n",
    "000 35 000:0000000 111:1111111\n"
    "001 20 001:0000011 011:0011111 100:1100000 110:1111100\n"
    "010 12 010:0001100 101:1100011\n",
)


@pytest.mark.parametrize("approach", [a.value for a in DupApproach])
def test_table_writers_keep_the_bytes_of_the_sequence_writers(tmp_path, approach):
    out, ckpt = tmp_path / "t.csv", tmp_path / "t.ckpt"
    argv = ["mdm-table", "--n", "5", "--m", "0", "--approach", approach]
    assert run(argv + ["--checkpoint", str(ckpt), "--output", str(out)]) == 0
    assert (out.read_text(), ckpt.read_text()) == WRITTEN_5_0
    if approach != "gamma":
        return
    csv_text, ckpt_text = WRITTEN_7_3_GAMMA
    ckpt.write_text(ckpt_text.splitlines(keepends=True)[0])
    argv = ["mdm-table", "--n", "7", "--m", "3", "--approach", "gamma", "--checkpoint", str(ckpt)]
    assert run(argv + ["--output", str(out)]) == 0
    assert (out.read_text(), ckpt.read_text()) == WRITTEN_7_3_GAMMA


def test_table_checkpoint_resume_identical_csv(tmp_path):
    ckpt = tmp_path / "p.ckpt"
    out1 = tmp_path / "a.csv"
    assert run(["mdm-table", "--n", "9", "--m", "4", "--checkpoint", str(ckpt), "--output", str(out1)]) == 0
    lines = ckpt.read_text().splitlines()
    ckpt.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    out2 = tmp_path / "b.csv"
    assert run(["mdm-table", "--n", "9", "--m", "4", "--checkpoint", str(ckpt), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_table_checkpoint_empty_output_resumes(tmp_path):
    # the m = 0 class has an empty rep, so its line starts with a space
    ckpt = tmp_path / "p.ckpt"
    outs = []
    for i in range(3):
        out = tmp_path / f"{i}.csv"
        assert run(["mdm-table", "--n", "4", "--m", "0", "--checkpoint", str(ckpt), "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert ckpt.read_text() == " 1 :0000\n"
    assert outs[0] == outs[1] == outs[2]


def test_bounds_bec_matches_closed_form(tmp_path):
    out = tmp_path / "bec.csv"
    assert run(["bounds", "--channel", "bec", "--d-grid", "0.1:0.9:0.1", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,kind,n,value"
    assert len(lines) == 10
    for line in lines[1:]:
        d_text, kind, n_text, value = line.split(",")
        assert kind == "bec_closed"
        assert n_text == "0"
        assert float(value) == pytest.approx(1.0 - float(d_text), abs=5e-7)
    assert lines[3] == "0.300000,bec_closed,0,0.700000"


def test_bounds_bsc_matches_closed_form(tmp_path):
    out = tmp_path / "bsc.csv"
    assert run(["bounds", "--channel", "bsc", "--d-grid", "0.1:0.9:0.1", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    assert lines[1] == "0.100000,bsc_closed,0,0.531004"
    assert {line.split(",")[1] for line in lines[1:]} == {"bsc_closed"}


def test_bounds_grids_without_three_fields_or_ascending_exit_2(tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    for grid in ("0.1:0.9", "0.9:0.1:0.1"):
        assert run(["bounds", "--channel", "bec", "--d-grid", grid, "--output", out]) == 2, grid
        assert "error: grid" in capsys.readouterr().err, grid


def test_bounds_dup_kind_past_the_length_cap_exits_3(tmp_path, capsys):
    out = tmp_path / "dup.csv"
    argv = ["bounds", "--channel", "bdc", "--d-grid", "0.1:0.9:0.2", "--kinds", "dup-gamma", "--output", str(out)]
    assert run(argv + ["--n", "64"]) == 3
    assert "capped at n <= 63" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--n", "63"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 5


def test_bounds_ml_searches_once_per_output_length(tmp_path, monkeypatch):
    calls = []
    search = cli.bdc_ml_bound_n

    def counting(n, d, threads=1):
        calls.append(typical_output_length(n, d))
        return search(n, d, threads=threads)

    monkeypatch.setattr(cli, "bdc_ml_bound_n", counting)
    out = tmp_path / "ml.csv"
    argv = ["bounds", "--channel", "bdc", "--n", "8", "--d-grid", "0.05:0.95:0.05"]
    assert run(argv + ["--kinds", "raw,adjusted", "--output", str(out)]) == 0
    grid = cli._parse_grid("0.05:0.95:0.05")
    lengths = [typical_output_length(8, d) for d in grid]
    assert sorted(calls) == sorted(set(lengths)) and len(set(lengths)) < len(grid)
    # the rows one search per d gives
    want = ["d,kind,n,value"]
    for d in grid:
        raw, adjusted = search(8, d)
        want += [f"{d:.6f},bdc_ml_raw,8,{raw:.6f}", f"{d:.6f},bdc_ml_adjusted,8,{adjusted:.6f}"]
    assert out.read_bytes() == ("\n".join(want) + "\n").encode("ascii")


def test_bounds_dup_kinds_evaluate_once_per_output_length(tmp_path, monkeypatch):
    calls = []
    dup = cli.bdc_dup_bound_n

    def counting(n, d, approach=DupApproach.GAMMA):
        calls.append((approach, typical_output_length(n, d)))
        return dup(n, d, approach)

    monkeypatch.setattr(cli, "bdc_dup_bound_n", counting)
    out = tmp_path / "dup.csv"
    argv = ["bounds", "--channel", "bdc", "--n", "9", "--d-grid", "0.05:0.95:0.05"]
    assert run(argv + ["--kinds", "dup-last,dup-length,dup-gamma", "--output", str(out)]) == 0
    grid = cli._parse_grid("0.05:0.95:0.05")
    lengths = {typical_output_length(9, d) for d in grid}
    assert len(lengths) < len(grid)
    assert sorted(calls) == sorted((a, m) for a in DupApproach for m in lengths)
    # the rows one evaluation per d gives
    want = ["d,kind,n,value"]
    for d in grid:
        for approach in DupApproach:  # the order of the kinds
            label = "bdc_dup_" + approach.value.replace("-", "_")
            want.append(f"{d:.6f},{label},9,{dup(9, d, approach):.6f}")
    assert out.read_bytes() == ("\n".join(want) + "\n").encode("ascii")


def test_bounds_rejects_non_finite_grid(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for grid in ("0:inf:0.1", "0:1e300:1e-300"):
        assert run(["bounds", "--channel", "bec", "--d-grid", grid, "--output", out]) == 2
        assert "finite" in capsys.readouterr().err, grid


def test_grid_past_point_cap_raises_before_building():
    # 8e9 and 1e300 points: building either list would exhaust memory
    for grid in ("0.1:0.9:1e-10", "0:1:1e-300", "0:1:0.000001"):
        with pytest.raises(cli.CapExceededError):
            cli._parse_grid(grid)
    assert len(cli._parse_grid("0.000001:0.999999:0.000001")) == 999_999


def test_bounds_grid_past_point_cap_exits_3(tmp_path, capsys):
    out = tmp_path / "g.csv"
    argv = ["bounds", "--channel", "bec", "--d-grid", "0.1:0.9:1e-10", "--output", str(out)]
    assert run(argv) == 3
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_bdc_kinds_and_order(tmp_path):
    out = tmp_path / "bdc.csv"
    assert (
        run(
            [
                "bounds",
                "--channel",
                "bdc",
                "--n",
                "8",
                "--d-grid",
                "0.3:0.7:0.2",
                "--kinds",
                "raw,adjusted,dup-gamma,trivial,golden",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds == [
        "bdc_ml_raw",
        "bdc_ml_adjusted",
        "bdc_dup_gamma",
        "trivial_one_minus_d",
        "reference_golden",
    ] * 3
    raw_row = lines[1].split(",")
    assert raw_row[0] == "0.300000"
    assert raw_row[2] == "8"
    trivial = [line.split(",") for line in lines[1:] if "trivial" in line]
    assert [t[3] for t in trivial] == ["0.700000", "0.500000", "0.300000"]


def test_bounds_requires_n_for_ml_kinds(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["bounds", "--channel", "bdc", "--d-grid", "0.3:0.7:0.2", "--kinds", "raw", "--output", str(out)]) == 2


def test_bounds_unknown_kind_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["bounds", "--channel", "bdc", "--n", "8", "--d-grid", "0.3:0.7:0.2", "--kinds", "bogus", "--output", str(out)]) == 2


def test_bounds_gnuplot_script(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["bounds", "--channel", "bec", "--d-grid", "0.2:0.8:0.2", "--gnuplot", "--output", str(out)]) == 0
    script = (tmp_path / "c.csv.gp").read_text()
    assert "set datafile separator ','" in script
    assert "bec_closed" in script
    assert str(out) in script


def _gnuplot_single_quoted(text):
    # gnuplot reads '' in a single-quoted string as one quote and ends the
    # string at any other quote; returns the string and the rest of the line
    value, at = b"", 1
    while True:
        end = text.index(b"'", at)
        value += text[at:end]
        if text[end + 1 : end + 2] != b"'":
            return value, text[end + 1 :]
        value, at = value + b"'", end + 2


@pytest.mark.parametrize("name", ["a'b.csv", "\u00e9.csv", "a`b@c\"d\\e.csv"])
def test_bounds_gnuplot_script_names_any_path(tmp_path, name):
    out = tmp_path / name
    argv = ["bounds", "--channel", "bec", "--d-grid", "0.2:0.8:0.2", "--gnuplot", "--output", str(out)]
    assert run(argv) == 0
    script = (tmp_path / (name + ".gp")).read_bytes()
    [line] = [line for line in script.split(b"\n") if line.startswith(b"  '")]
    path, rest = _gnuplot_single_quoted(line[2:])
    assert path == os.fsencode(out)
    assert rest.startswith(b" using 1:")
    assert out.read_text().startswith("d,kind,n,value\n")


def test_bounds_gnuplot_refuses_a_path_it_cannot_quote_before_writing(tmp_path):
    out = tmp_path / "a\nb.csv"
    argv = ["bounds", "--channel", "bec", "--d-grid", "0.2:0.8:0.2", "--gnuplot", "--output", str(out)]
    assert run(argv) == 2
    assert list(tmp_path.iterdir()) == []


def test_bounds_skips_degenerate_points(tmp_path, capsys):
    out = tmp_path / "deg.csv"
    # d extremely close to 1 leaves no typical output symbols
    assert (
        run(
            [
                "bounds",
                "--channel",
                "bdc",
                "--n",
                "6",
                "--d-grid",
                "0.4999999999:0.9999999999999:0.5",
                "--kinds",
                "raw",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    assert "skipping" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header plus the one non-degenerate point


def test_bounds_explicit_caveat_once_per_point(tmp_path, capsys):
    out = tmp_path / "explicit.csv"
    argv = ["bounds", "--channel", "bdc", "--d-grid", "0.1:0.7:0.2", "--kinds", "explicit,trivial"]
    assert run(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: d={d} explicit: explicit approximation is stated for d >= 1/2"
        for d in ("0.100000", "0.300000")
    ]
    assert len(out.read_text().splitlines()) == 1 + 4 * 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nd-grid=0.2:0.8:0.2\nkinds=golden\n")
    out_a = tmp_path / "a.csv"
    assert run(["--config", str(cfg), "bounds", "--channel", "bdc", "--output", str(out_a)]) == 0
    kinds_a = {line.split(",")[1] for line in out_a.read_text().splitlines()[1:]}
    assert kinds_a == {"reference_golden"}
    # explicit flag beats the config value
    out_b = tmp_path / "b.csv"
    assert (
        run(["--config", str(cfg), "bounds", "--channel", "bdc", "--kinds", "trivial", "--output", str(out_b)]) == 0
    )
    kinds_b = {line.split(",")[1] for line in out_b.read_text().splitlines()[1:]}
    assert kinds_b == {"trivial_one_minus_d"}


def test_config_boolean_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    for value, plotted in (("true", True), ("false", False)):
        cfg.write_text(f"gnuplot={value}\n")
        out = tmp_path / f"{value}.csv"
        assert run(["--config", str(cfg), "bounds", "--channel", "bec", "--d-grid", "0.2:0.8:0.2", "--output", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / f"{value}.csv.gp").exists() == plotted


def test_config_usage_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gnuplot\n")
    assert run(["--config", str(cfg), "count", "01", "0"]) == 2
    assert capsys.readouterr().err == "error: malformed config line 'gnuplot'\n"
    assert run(["count", "01", "0", "--config"]) == 2
    assert capsys.readouterr().err == "error: --config needs a file path\n"


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "usage: delcap" in capsys.readouterr().out


# --help of delcap and of each subcommand, and the usage errors (unknown
# subcommand, missing or unrecognized option, bad choice, --config errors),
# as the whole parser tree printed them under COLUMNS=80 on the Python
# version in the file; "{tmp}" stands for the directory of its files
USAGE_TEXT = os.path.join(os.path.dirname(__file__), "cli_usage.json")


def test_usage_and_help_texts_keep_their_bytes(tmp_path, monkeypatch, capsys):
    with open(USAGE_TEXT, encoding="utf-8") as fh:
        recorded = json.load(fh)
    monkeypatch.setenv("COLUMNS", str(recorded["columns"]))
    for name, text in recorded["files"].items():
        (tmp_path / name).write_text(text)
    # argparse lays help out differently from one Python version to the next
    same_python = tuple(recorded["python"]) == sys.version_info[:2]
    for case in recorded["cases"]:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]]
        got = run(argv), *capsys.readouterr()
        # the same bytes as the whole tree prints on this Python
        with monkeypatch.context() as full:
            full.setattr(cli, "build_parser", lambda _command, tree=cli.build_parser(): tree)
            assert got == (run(argv), *capsys.readouterr()), case["argv"]
        if same_python:
            texts = (case[key].replace("{tmp}", str(tmp_path)) for key in ("stdout", "stderr"))
            assert got == (case["rc"], *texts), case["argv"]


def test_baa_stdout_and_history(tmp_path, capsys):
    hist = tmp_path / "h.csv"
    assert run(["baa", "--n", "1", "--d", "0.3", "--history", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "n=1 d=0.300000" in out
    assert "capacity_proxy=0.70000" in out
    assert "converged=yes" in out
    assert "sandwich_lower=-0.300000" in out
    assert "sandwich_upper=0.700000" in out
    lines = hist.read_text().splitlines()
    assert lines[0] == "iteration,mutual_info_bits"
    assert len(lines) >= 2


def test_baa_cap_exit_code():
    assert run(["baa", "--n", "15", "--d", "0.5"]) == 3


def test_baa_rejects_iteration_cap_below_one(capsys):
    for cap in ("0", "-3"):
        assert run(["baa", "--n", "1", "--d", "0.3", "--max-iter", cap]) == 2
        assert "iteration cap must be >= 1" in capsys.readouterr().err


def test_baa_rejects_nan_tolerance(capsys):
    # NaN passed `tol <= 0` and never closed the bracket: 20,000 iterations
    assert run(["baa", "--n", "1", "--d", "0.3", "--tol", "nan"]) == 2
    assert "tolerance must be positive" in capsys.readouterr().err


def test_thread_count_below_one_exits_2(tmp_path):
    out = str(tmp_path / "out.csv")
    table = ["mdm-table", "--n", "8", "--m", "4"]
    bounds = ["bounds", "--channel", "bdc", "--n", "8", "--d-grid", "0.4:0.5:0.1"]
    for argv in (table, bounds):
        assert run(argv + ["--threads", "0", "--output", out]) == 2


def test_hypotheses_csv(tmp_path):
    out = tmp_path / "hyp.csv"
    assert run(["hypotheses", "--n-list", "8,10,12,14", "--factor", "2", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "n,F,y_min,gamma,log2_gamma_per_n,minimizer_is_alternating,"
        "alternating_attains_min,stirling_lower_bound"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert [r[3] for r in rows] == ["1.00000", "0.88889", "0.75294", "0.62745"]
    assert [r[6] for r in rows] == ["true"] * 4
    assert rows[3][2] == "0101010"
    assert float(rows[3][7]) == pytest.approx(2**7 / math.comb(14, 7), abs=1e-5)


def test_hypotheses_solves_each_class_once(tmp_path, monkeypatch):
    solved = []
    solve = mdm._solve_class

    def counting(reps, m, n, ties=False):
        solved.extend((n, rep) for rep in reps)
        return solve(reps, m, n, ties)

    monkeypatch.setattr(mdm, "_solve_class", counting)
    out = tmp_path / "hyp.csv"
    assert run(["hypotheses", "--n-list", "8,10,12", "--factor", "2", "--output", str(out)]) == 0
    assert sorted(solved) == [(n, rep) for n in (8, 10, 12) for rep in mdm._classes(n // 2)[1]]


def test_hypotheses_rejects_non_divisible_n():
    assert run(["hypotheses", "--n-list", "9", "--factor", "2", "--output", "/tmp/never.csv"]) == 2
    assert run(["hypotheses", "--n-list", "8", "--factor", "0", "--output", "/tmp/never.csv"]) == 2


def test_out_of_range_lengths_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    bounds = ["bounds", "--channel", "bdc", "--d-grid", "0.4:0.5:0.1", "--kinds", "raw", "--output", out]
    cases = [
        (bounds + ["--n", "-3"], "-3"),
        (bounds + ["--n", "0"], "0"),
        (["baa", "--n", "0", "--d", "0.5"], "0"),
        (["mdm-table", "--n", "5", "--m", "-1", "--output", out], "-1"),
    ]
    for argv, length in cases:
        assert run(argv) == 2, argv
        assert f"length {length} " in capsys.readouterr().err, argv
    with pytest.raises(ValueError, match="length -1 "):
        sum_max_counts(5, -1)
