import csv
import json
import os
import subprocess
import sys

import pytest

from hideseek.cli import main


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


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
    probe = subprocess.run(
        [sys.executable, "-c",
         "import hideseek; print(hideseek.ACTIVE_BACKEND)"],
        capture_output=True, text=True, env=env, check=True)
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
