import csv
import json
import os
import re
import subprocess
import sys

import pytest

from hideseek.cli import BENCH_COLUMNS, main


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# Every result command line in each format: (exit code, plain, json, csv
# stdout), with stderr empty.  "micros" is masked to 0 (mask_micros).
GOLDEN = {
    "factor 77": (0,
        "77 = 7 * 11\n",
        '{"N": 77, "a": 0, "h": 0, "kind": "composite", '
        '"method": "trial", "micros": 0, "pairs_checked": 0, '
        '"points_enumerated": 0, "u": 7, "v": 11, "w": 0}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "77,trial,0,0,0,0,0,0,7,11\r\n"),
    "factor 13": (0,
        "13 is prime\n",
        '{"N": 13, "a": 0, "h": 0, "kind": "prime", '
        '"method": "", "micros": 0, "pairs_checked": 0, '
        '"points_enumerated": 0, "u": "", "v": "", "w": 0}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "13,,0,0,0,0,0,0,,\r\n"),
    "factor 1": (0,
        "1 is a unit\n",
        '{"N": 1, "a": 0, "h": 0, "kind": "unit", "method": "", '
        '"micros": 0, "pairs_checked": 0, '
        '"points_enumerated": 0, "u": "", "v": "", "w": 0}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "1,,0,0,0,0,0,0,,\r\n"),
    "factor 1000003 --trial-only": (0,
        "1000003 is prime\n",
        '{"N": 1000003, "a": 0, "h": 0, "kind": "prime", '
        '"method": "trial", "micros": 0, "pairs_checked": 0, '
        '"points_enumerated": 0, "u": "", "v": "", "w": 0}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "1000003,trial,0,0,0,0,0,0,,\r\n"),
    "factor 1500011500021": (0,
        "1500011500021 = 1000003 * 1500007\n",
        '{"N": 1500011500021, "a": 11448, "h": 89, '
        '"kind": "composite", "method": "general", "micros": 0, '
        '"pairs_checked": 347216, "points_enumerated": 106330, '
        '"u": 1000003, "v": 1500007, "w": 128}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "1500011500021,general,11448,128,89,106330,347216,0,"
        "1000003,1500007\r\n"),
    "factor 1500011500021 --general": (0,
        "1500011500021 = 1000003 * 1500007\n",
        '{"N": 1500011500021, "a": 11448, "h": 89, '
        '"kind": "composite", "method": "general", "micros": 0, '
        '"pairs_checked": 347216, "points_enumerated": 106330, '
        '"u": 1000003, "v": 1500007, "w": 128}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "1500011500021,general,11448,128,89,106330,347216,0,"
        "1000003,1500007\r\n"),
    "factor 1500011500021 --balanced --strip": (0,
        "1500011500021 = 1000003 * 1500007\n",
        '{"N": 1500011500021, "a": 14423, "h": 121, '
        '"kind": "composite", "method": "balanced-strip", '
        '"micros": 0, "pairs_checked": 65834, '
        '"points_enumerated": 21632, "u": 1000003, "v": 1500007, '
        '"w": 121}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "1500011500021,balanced-strip,14423,121,121,21632,65834,"
        "0,1000003,1500007\r\n"),
    "factor 99400891 --strip": (0,
        "99400891 = 9967 * 9973\n",
        '{"N": 99400891, "a": 464, "h": 29, "kind": "composite", '
        '"method": "general-strip", "micros": 0, '
        '"pairs_checked": 10774, "points_enumerated": 2744, '
        '"u": 9967, "v": 9973, "w": 16}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "99400891,general-strip,464,16,29,2744,10774,0,9967,9973\r\n"),
    "factor 101 --balanced": (1,
        "no factor found for 101\n",
        '{"N": 101, "a": 6, "h": 3, "kind": "unknown", '
        '"method": "balanced", "micros": 0, "pairs_checked": 8, '
        '"points_enumerated": 6, "u": "", "v": "", "w": 3}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "101,balanced,6,3,3,6,8,0,,\r\n"),
    "factor 970322 --general": (0,
        "970322 = 2 * 485161\n",
        '{"N": 970322, "a": 100, "h": 0, "kind": "composite", '
        '"method": "general", "micros": 0, "pairs_checked": 0, '
        '"points_enumerated": 0, "u": 2, "v": 485161, "w": 0}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "970322,general,100,0,0,0,0,0,2,485161\r\n"),
    "factor 1000015 --general": (0,
        "1000015 = 5 * 200003\n",
        '{"N": 1000015, "a": 101, "h": 0, "kind": "composite", '
        '"method": "general", "micros": 0, "pairs_checked": 0, '
        '"points_enumerated": 0, "u": 5, "v": 200003, "w": 0}\n',
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "1000015,general,101,0,0,0,0,0,5,200003\r\n"),
    "solve 1 5": (0,
        "1 1\n"
        "2 3\n"
        "3 2\n"
        "4 4\n",
        '{"N": 1, "a": 5, "count": 4, "points": [[1, 1], [2, 3], '
        "[3, 2], [4, 4]]}\n",
        "x,y\r\n"
        "1,1\r\n"
        "2,3\r\n"
        "3,2\r\n"
        "4,4\r\n"),
    "solve 77 6 --rect 0 6 0 6": (0,
        "2\n",
        '{"N": 77, "a": 6, "count": 2, "rect": [0, 6, 0, 6]}\n',
        "N,a,x1,x2,y1,y2,count\r\n"
        "77,6,0,6,0,6,2\r\n"),
    "solve 10 5": (0,
        "common factor 5\n",
        '{"N": 10, "a": 5, "common_factor": 5}\n',
        "N,a,common_factor\r\n"
        "10,5,5\r\n"),
    "moment 1 1009 --cell 32": (0,
        "N=1 a=1009 cells 32x32 (fundamental-square)\n"
        "sum_counts = 1008\n"
        "sum_squares = 2012\n"
        "expected_mean_cell = 1.013860390283288\n"
        "k0_term = 1046498.5839672874\n"
        "edge_points = 33\n",
        '{"N": 1, "a": 1009, "cell_h": 32, "cell_w": 32, '
        '"domain": "fundamental-square", "edge_points": 33, '
        '"expected_mean_cell": 1.013860390283288, '
        '"k0_term": 1046498.5839672874, "spectral_value": null, '
        '"sum_counts": 1008, "sum_squares": 2012}\n',
        "N,a,cell_w,cell_h,domain,sum_counts,sum_squares,"
        "expected_mean_cell,k0_term,edge_points,spectral_value\r\n"
        "1,1009,32,32,fundamental-square,1008,2012,"
        "1.013860390283288,1046498.5839672874,33,\r\n"),
    "moment 1 7 --rect 3 2 --spectral": (0,
        "N=1 a=7 cells 3x2 (full-torus-q2)\n"
        "sum_counts = 36\n"
        "sum_squares = 44\n"
        "expected_mean_cell = 0.7346938775510204\n"
        "k0_term = 26.448979591836736\n"
        "edge_points = 0\n"
        "spectral_value = 44.0\n",
        '{"N": 1, "a": 7, "cell_h": 2, "cell_w": 3, '
        '"domain": "full-torus-q2", "edge_points": 0, '
        '"expected_mean_cell": 0.7346938775510204, '
        '"k0_term": 26.448979591836736, "spectral_value": 44.0, '
        '"sum_counts": 36, "sum_squares": 44}\n',
        "N,a,cell_w,cell_h,domain,sum_counts,sum_squares,"
        "expected_mean_cell,k0_term,edge_points,spectral_value\r\n"
        "1,7,3,2,full-torus-q2,36,44,0.7346938775510204,"
        "26.448979591836736,0,44.0\r\n"),
    "moment 1 5011 --rect 71 71 --spectral": (0,
        "N=1 a=5011 cells 71x71 (full-torus-q2)\n"
        "sum_counts = 25255410\n"
        "sum_squares = 49379388\n"
        "expected_mean_cell = 1.0057860732730042\n"
        "k0_term = 25401539.652799763\n"
        "edge_points = 0\n"
        "spectral_value = 49379388.0\n",
        '{"N": 1, "a": 5011, "cell_h": 71, "cell_w": 71, '
        '"domain": "full-torus-q2", "edge_points": 0, '
        '"expected_mean_cell": 1.0057860732730042, '
        '"k0_term": 25401539.652799763, "spectral_value": 49379388.0, '
        '"sum_counts": 25255410, "sum_squares": 49379388}\n',
        "N,a,cell_w,cell_h,domain,sum_counts,sum_squares,"
        "expected_mean_cell,k0_term,edge_points,spectral_value\r\n"
        "1,5011,71,71,full-torus-q2,25255410,49379388,"
        "1.0057860732730042,25401539.652799763,0,49379388.0\r\n"),
    "kloosterman 1 1 3": (0,
        "S(1, 1, 3) = -1 (imag residual 3.331e-16)\n",
        '{"a": 3, "imag_residual": 3.3306690738754696e-16, '
        '"m": 1, "n": 1, "value": -1.0000000000000002}\n',
        "m,n,a,value,imag_residual\r\n"
        "1,1,3,-1.0000000000000002,3.3306690738754696e-16\r\n"),
    "scan-deviation 1 1009 --trials 200 --seed 42": (0,
        "N=1 a=1009 trials=200 seed=42\n"
        "max |count - expected| = 16.42007168388369\n"
        "mean |count - expected| = 2.9078986200508607\n",
        '{"N": 1, "a": 1009, "max_abs_dev": 16.42007168388369, '
        '"mean_abs_dev": 2.9078986200508607, "seed": 42, "trials": 200}\n',
        "N,a,trials,seed,max_abs_dev,mean_abs_dev\r\n"
        "1,1009,200,42,16.42007168388369,2.9078986200508607\r\n"),
    "polyfactor 77 6 1": (0,
        "77 = 7 * 11\n",
        '{"N": 77, "a": 6, "d": 1, "kind": "composite", "u": 7, '
        '"v": 11}\n',
        "N,a,d,kind,u,v\r\n"
        "77,6,1,composite,7,11\r\n"),
    "polyfactor 77 4 2": (1,
        "no degree-2 split found for 77\n",
        '{"N": 77, "a": 4, "d": 2, "kind": "none"}\n',
        "N,a,d,kind,u,v\r\n"
        "77,4,2,none,,\r\n"),
    "polyfactor 15 6 0": (0,
        "15 = 3 * 5\n",
        '{"N": 15, "a": 6, "d": 0, "kind": "composite", "u": 3, '
        '"v": 5}\n',
        "N,a,d,kind,u,v\r\n"
        "15,6,0,composite,3,5\r\n"),
    "polyfactor 77851 5 3": (0,
        "77851 = 127 * 613\n",
        '{"N": 77851, "a": 5, "d": 3, "kind": "composite", "u": 127, '
        '"v": 613}\n',
        "N,a,d,kind,u,v\r\n"
        "77851,5,3,composite,127,613\r\n"),
}

# Command lines that fail alike in every format: (exit code, stderr),
# with stdout empty.
GOLDEN_ERRORS = {
    "factor 9223425193517700287": (4,
        "input outside the supported range: hide-seek kernels "
        "require N < 2**63\n"),
    "moment 1 7 --cell 3 --spectral": (2,
        "--spectral requires --rect (full-torus domain)\n"),
    "factor 0": (2,
        "N must be >= 1\n"),
    "polyfactor 7 1000000 9": (4,
        "input outside the supported range: predicted 56453760 points "
        "exceeds cap\n"),
    "moment 1 65537 --rect 1 1": (4,
        "input outside the supported range: torus scan limited to "
        "a <= 65536\n"),
    "kloosterman 1 1 2147483659": (4,
        "input outside the supported range: modulus out of kernel range "
        "[2, 2**31): 2147483659\n"),
    "moment 7 2147483659 --cell 5": (4,
        "input outside the supported range: modulus out of kernel range "
        "[2, 2**31): 2147483659\n"),
    "scan-deviation 7 2147483659": (4,
        "input outside the supported range: modulus out of kernel range "
        "[2, 2**31): 2147483659\n"),
    "solve 7 2147483659 --rect 0 5 0 5": (4,
        "input outside the supported range: modulus out of kernel range "
        "[2, 2**31): 2147483659\n"),
}

FORMATS = ("plain", "json", "csv")


def mask_micros(out):
    """Zero the one field that varies between runs: micros in the factor
    JSON, and the micros column under the bench CSV header."""
    out = re.sub(r'"micros": \d+', '"micros": 0', out)
    if out.startswith(",".join(BENCH_COLUMNS)):
        skip = BENCH_COLUMNS.index("micros")
        out = re.sub(r"^((?:[^,\r\n]*,){%d})\d+," % skip, r"\g<1>0,", out,
                     flags=re.M)
    return out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("line", GOLDEN)
def test_golden_output(capsys, line, fmt):
    code, *outs = GOLDEN[line]
    got_code, out, err = run_cli(capsys, *line.split(), "--format", fmt)
    assert (got_code, mask_micros(out), err) == (
        code, outs[FORMATS.index(fmt)], "")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("line", GOLDEN_ERRORS)
def test_golden_errors(capsys, line, fmt):
    code, err = GOLDEN_ERRORS[line]
    assert run_cli(capsys, *line.split(), "--format", fmt) == (code, "", err)


def test_bench_csv_golden(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    run_cli(capsys, "bench", "--nmin", "100000", "--nmax", "1000000",
            "--samples", "3", "--seed", "7", "--csv", path)
    assert mask_micros(path.read_bytes().decode()) == (
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v\r\n"
        "345641,balanced,89,10,10,128,412,0,421,821\r\n"
        "259139,balanced,81,9,9,86,196,0,479,541\r\n"
        "239021,balanced,79,9,9,102,224,0,479,499\r\n")


def test_factor_plain(capsys):
    code, out, _ = run_cli(capsys, "factor", "77")
    assert code == 0 and out == "77 = 7 * 11\n"
    code, out, _ = run_cli(capsys, "factor", "13")
    assert code == 0 and out == "13 is prime\n"
    code, out, _ = run_cli(capsys, "factor", "1")
    assert code == 0 and out == "1 is a unit\n"


def test_factor_method_flags(capsys):
    for flags in (["--balanced"], ["--general"], ["--strip"],
                  ["--balanced", "--strip"], ["--general", "--strip"]):
        code, out, _ = run_cli(capsys, "factor", "77", *flags)
        assert code == 0 and out == "77 = 7 * 11\n", flags


def test_factor_trial_only_prime_verdict(capsys):
    code, out, _ = run_cli(capsys, "factor", "1000003", "--trial-only")
    assert code == 0 and out == "1000003 is prime\n"


def test_factor_json_fields(capsys):
    code, out, _ = run_cli(capsys, "factor", str(1000003 * 1500007),
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["kind"] == "composite"
    assert row["u"] == 1000003 and row["v"] == 1500007
    assert row["method"] == "general"
    assert row["a"] > 0 and row["w"] > 0 and row["h"] > 0
    assert row["points_enumerated"] > 0 and row["pairs_checked"] > 0
    assert "micros" in row


def test_factor_balanced_on_prime_exits_one(capsys):
    code, out, _ = run_cli(capsys, "factor", "101", "--balanced")
    assert code == 1
    assert "no factor" in out


def test_parse_failure_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["factor", "not-a-number"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["unknown-subcommand"])
    assert e.value.code == 2


def test_out_of_range_exits_four(capsys):
    code, _, err = run_cli(capsys, "factor", 2147496017 * 4294967311)
    assert code == 4
    assert "outside the supported range" in err


def test_solve_listing(capsys):
    code, out, _ = run_cli(capsys, "solve", "1", "5")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 3", "3 2", "4 4"]


def test_solve_rect_count(capsys):
    code, out, _ = run_cli(capsys, "solve", "77", "6",
                           "--rect", "0", "6", "0", "6")
    assert code == 0 and out.strip() == "2"


def test_solve_common_factor(capsys):
    code, out, _ = run_cli(capsys, "solve", "10", "5")
    assert code == 0 and out.strip() == "common factor 5"


def test_moment_cell_plain(capsys):
    code, out, _ = run_cli(capsys, "moment", "1", "5", "--cell", "5")
    assert code == 0
    assert "sum_squares = 16" in out


def test_moment_cell_sparse_grid(capsys):
    """3 x 3 cells mod 100003 make about 1.1e9 cells, far more than the
    points: the moment counts the occupied cells only, instead of asking
    for 8 GiB of counters.  The figures are a pure-Python recount's."""
    code, out, _ = run_cli(capsys, "moment", "7", "100003", "--cell", "3",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert (row["sum_counts"], row["sum_squares"], row["edge_points"]) == (
        100002, 100010, 2)


def test_moment_spectral_requires_rect(capsys):
    code, _, err = run_cli(capsys, "moment", "1", "7", "--cell", "3",
                           "--spectral")
    assert code == 2


def test_moment_rect_spectral_agrees(capsys):
    code, out, _ = run_cli(capsys, "moment", "1", "7", "--rect", "3", "2",
                           "--spectral", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["spectral_value"] == pytest.approx(row["sum_squares"],
                                                  rel=1e-6)


def test_moment_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "moment", "1", "1009", "--cell", "32",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    r = rows[0]
    assert r["sum_counts"] == "1008"
    assert r["sum_squares"] == "2012"
    assert r["edge_points"] == "33"
    assert float(r["expected_mean_cell"]) == pytest.approx(
        1008 * 32 * 32 / 1009 ** 2)


def test_kloosterman_output(capsys):
    code, out, _ = run_cli(capsys, "kloosterman", "1", "1", "3",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["value"] == pytest.approx(-1.0, abs=1e-9)


def test_scan_deviation_golden(capsys):
    code, out, _ = run_cli(capsys, "scan-deviation", "1", "1009",
                           "--trials", "200", "--seed", "42",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["max_abs_dev"] == pytest.approx(16.42007168388369)
    assert row["mean_abs_dev"] == pytest.approx(2.9078986200508607)


def test_polyfactor(capsys):
    code, out, _ = run_cli(capsys, "polyfactor", "77", "6", "1")
    assert code == 0 and out == "77 = 7 * 11\n"
    code, out, _ = run_cli(capsys, "polyfactor", "77", "4", "2")
    assert code == 1


def test_bench_csv_columns_and_verified_splits(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _, _ = run_cli(capsys, "bench", "--nmin", "100000",
                         "--nmax", "1000000", "--samples", "3",
                         "--seed", "7", "--csv", str(path))
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 3
    for r in rows:
        assert int(r["u"]) * int(r["v"]) == int(r["N"])
        assert r["method"] == "balanced"
    header = path.read_text().splitlines()[0]
    assert header == "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v"


def test_bench_empty_range_header_only(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    code, _, _ = run_cli(capsys, "bench", "--nmin", "100000",
                         "--nmax", "1000000", "--samples", "0",
                         "--seed", "7", "--csv", str(path))
    assert code == 0
    assert path.read_text().splitlines() == [
        "N,method,a,w,h,points_enumerated,pairs_checked,micros,u,v"]


def test_bench_range_without_semiprime_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "bench", "--nmin", "100", "--nmax",
                             "10", "--samples", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_byte_stable_modulo_timing(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        p = tmp_path / f"bench_{tag}.csv"
        run_cli(capsys, "bench", "--nmin", "10000000", "--nmax", "100000000",
                "--samples", "5", "--seed", "99", "--csv", str(p))
        paths.append(p)

    def strip_micros(path):
        rows = list(csv.DictReader(path.open()))
        for r in rows:
            r.pop("micros")
        return rows

    assert strip_micros(paths[0]) == strip_micros(paths[1])


def test_backend_env_flag_subprocess():
    import hideseek

    # the child imports the package under test, however pytest found it
    src = os.path.dirname(os.path.dirname(hideseek.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, HIDESEEK_BACKEND="numpy", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-m", "hideseek.cli", "factor", "77",
         "--format", "json"],
        capture_output=True, text=True, env=env, check=True)
    row = json.loads(out.stdout)
    assert row["u"] == 7 and row["v"] == 11
    # numpy when asked for, under auto and with the variable unset,
    # numba installed or not
    del env["HIDESEEK_BACKEND"]
    for probe_env in (dict(env, HIDESEEK_BACKEND="numpy"),
                      dict(env, HIDESEEK_BACKEND="auto"), env):
        probe = subprocess.run(
            [sys.executable, "-c",
             "import hideseek; print(hideseek.ACTIVE_BACKEND)"],
            capture_output=True, text=True, env=probe_env, check=True)
        assert probe.stdout.strip() == "numpy"


def test_invariant_violation_exits_three(capsys, monkeypatch):
    from hideseek import cli
    from hideseek.factor import InvariantError

    def boom(*a, **k):
        raise InvariantError("synthetic breach")

    monkeypatch.setattr(cli, "factor", boom)
    code, _, err = run_cli(capsys, "factor", "77")
    assert code == 3
    assert "invariant" in err


def test_solve_csv_listing(capsys):
    code, out, _ = run_cli(capsys, "solve", "1", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["x,y", "1,1", "2,3", "3,2", "4,4"]


def test_scan_deviation_csv(capsys):
    code, out, _ = run_cli(capsys, "scan-deviation", "1", "1009",
                           "--trials", "200", "--seed", "42",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert float(rows[0]["max_abs_dev"]) == pytest.approx(16.42007168388369)


def test_rng_stream_reference_vectors():
    from hideseek.rng import SplitMix64

    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    g = SplitMix64(1234567)
    assert g.next_u64() == 6457827717110365317
