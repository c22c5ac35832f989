"""End-to-end tests of the command-line front end.

Everything drives delcap.cli.main(argv) directly so exit codes and output
bytes are checked in-process.
"""

import math

import pytest

from delcap import cli, typical_output_length
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
    cfg.write_text("gnuplot=true\n")
    out = tmp_path / "c.csv"
    assert run(["--config", str(cfg), "bounds", "--channel", "bec", "--d-grid", "0.2:0.8:0.2", "--output", str(out)]) == 0
    assert (tmp_path / "c.csv.gp").exists()


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


def test_hypotheses_rejects_non_divisible_n():
    assert run(["hypotheses", "--n-list", "9", "--factor", "2", "--output", "/tmp/never.csv"]) == 2
