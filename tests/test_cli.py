"""CLI surface: grammar, exit codes, output formats, determinism."""

import argparse
import contextlib
import decimal
import hashlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friabilis import cli
from friabilis.cli import main
from friabilis.theorem import OscillationRecord, RegimeRecord, read_regime_csv


def run_cli(argv, capsys):
    """main() in-process; returns (exit_code, stdout)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


def run_proc(argv):
    """Subprocess run, for byte-level stdout comparisons."""
    return subprocess.run([sys.executable, "-m", "friabilis"] + argv,
                          capture_output=True, timeout=300)


def test_psi_all_methods_scalar(capsys):
    code, out = run_cli(["psi", "--x", "100", "--y", "5", "--method", "all"], capsys)
    assert code == 0
    assert out == "34\n"


def test_rho_half_is_one(capsys):
    code, out = run_cli(["rho", "--u", "0.5"], capsys)
    assert code == 0
    assert out == "1.0\n"


def test_domain_error_names_precondition(capsys):
    proc = run_proc(["psi", "--x", "100", "--y", "-1"])
    assert proc.returncode == 3
    assert b"y >= 2" in proc.stderr


def test_usage_errors_exit_2():
    assert run_proc(["psi", "--x", "100", "--y", "5", "--bogus"]).returncode == 2
    assert run_proc(["psi", "--x", "3.5", "--y", "5"]).returncode == 2
    assert run_proc(["nonsense"]).returncode == 2
    proc = run_proc(["psi", "--x", "100", "--y", "5", "--junk-flag", "1"])
    assert b"--junk-flag" in proc.stderr  # offending token echoed


@pytest.mark.parametrize("argv", [
    ["psi", "--x", "abc", "--y", "5"],
    ["psi", "--log-x", "abc", "--y", "5"],
    ["rho", "--u", "abc"],
])
def test_not_a_number_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "not a number" in captured.err


def test_range_error_exit_3():
    assert run_proc(["rho", "--u", "600"]).returncode == 3


def test_resource_cap_exit_4():
    proc = run_proc(["psi", "--x", "1e10", "--y", "10000",
                     "--max-count", "1000"])
    assert proc.returncode == 4


def test_x_forms_agree(capsys):
    code_d, out_d = run_cli(["psi", "--x", "10000", "--y", "20"], capsys)
    code_s, out_s = run_cli(["psi", "--x", "1e4", "--y", "20"], capsys)
    assert code_d == code_s == 0
    assert out_d == out_s
    # log form runs the guard-band path; same x, count may sit within the
    # ambiguity of the float boundary but here 1e4 is comfortably interior
    code_l, out_l = run_cli(["psi", "--log-x", repr(math.log(10000.0)),
                             "--y", "20"], capsys)
    assert code_l == 0
    assert int(out_l) in (int(out_d), int(out_d) - 1)


def test_x_form_recorded_in_meta(capsys):
    _, out = run_cli(["psi", "--x", "1e4", "--y", "20", "--format", "json"], capsys)
    assert json.loads(out)["meta"]["config"]["x_form"] == "scientific"
    _, out = run_cli(["psi", "--x", "10000", "--y", "20", "--format", "json"], capsys)
    assert json.loads(out)["meta"]["config"]["x_form"] == "decimal"
    _, out = run_cli(["psi", "--log-x", "9.2", "--y", "20", "--format", "json"], capsys)
    assert json.loads(out)["meta"]["config"]["x_form"] == "log"


def test_sieve_requires_exact_x(capsys):
    proc = run_proc(["psi", "--log-x", "9.2", "--y", "20", "--method", "sieve"])
    assert proc.returncode == 3
    assert b"exact" in proc.stderr


def test_compare_json_roundtrip(capsys):
    code, out = run_cli(["compare", "--c", "1", "--x", "1e13",
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["version"]
    assert doc["meta"]["config"]["c"] == 1.0
    assert doc["meta"]["config"]["x_forms"] == ["scientific"]
    records = [RegimeRecord(**row) for row in doc["rows"]]
    assert len(records) == 1
    rec = records[0]
    assert rec.regime == "c_eq_1"
    assert math.isclose(rec.log_x, math.log(1e13), rel_tol=1e-15)
    # no field loss: every dataclass field appears in the JSON row
    assert set(doc["rows"][0]) == set(RegimeRecord.__dataclass_fields__)


def test_compare_repeated_x(tmp_path):
    out = tmp_path / "cmp.csv"
    proc = run_proc(["compare", "--c", "0.7", "--x", "1e8", "--x", "1e10",
                     "--output", str(out)])
    assert proc.returncode == 0
    with open(out) as fh:
        records = read_regime_csv(fh)
    assert [round(r.log_x, 6) for r in records] == [
        round(math.log(1e8), 6), round(math.log(1e10), 6)]
    assert all(r.regime == "c_lt_1" for r in records)


def test_oscillate_csv_fields(capsys):
    code, out = run_cli(["oscillate", "--c", "1.5", "--y-min", "1e3",
                         "--y-max", "1e4", "--y-steps", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,alpha,S,I,diff,normalizer,normalized_diff"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[0]) == 10000.0  # endpoint pinned exactly


def test_oscillate_json_rows(capsys):
    code, out = run_cli(["oscillate", "--c", "1.5", "--y-min", "1e3",
                         "--y-max", "1e3", "--y-steps", "1",
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = [OscillationRecord(**row) for row in doc["rows"]]
    assert len(rows) == 1 and rows[0].y == 1e3


def test_determinism_byte_identical():
    for argv in (["rho", "--u", "17.25"],
                 ["psi", "--x", "1e6", "--y", "100", "--format", "json"],
                 ["compare", "--c", "0.7", "--x", "1e8", "--format", "csv"],
                 ["oscillate", "--c", "1.5", "--y-min", "1e3", "--y-max", "1e4",
                  "--y-steps", "4", "--format", "json"]):
        a, b = run_proc(argv), run_proc(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_oscillate_output_file_repeatable(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    base = ["oscillate", "--c", "1.5", "--y-min", "1e3", "--y-max", "1e5",
            "--y-steps", "5"]
    assert run_proc(base + ["--output", str(first)]).returncode == 0
    assert run_proc(base + ["--output", str(second)]).returncode == 0
    assert first.read_bytes() == second.read_bytes()


# --format csv bytes, captured before the row writers were folded into one
CSV_PINS = [
    (["rho", "--u", "20"],
     "u,log_rho,rho\n20,-65.87408188223074,2.4617828287649245e-29\n"),
    (["rho", "--u", "0.5"], "u,log_rho,rho\n0.5,0,1\n"),
    (["alpha", "--x", "1e10", "--y", "1000"],
     "log_x,y,u,c,alpha,beta,solver_residual\n"
     "23.025850929940457,1000,3.3333333333333335,2.2022944126154975,"
     "0.70009332238778943,0.70112313347006638,7.1054273576010019e-15\n"),
    (["alpha", "--log-x", "0.9", "--y", "2"],
     "log_x,y,u,c,alpha,beta,solver_residual\n"
     "0.90000000000000002,2,1.2984255368000672,nan,0.82388264772537323,"
     "0.27663488658871871,-1.1102230246251565e-16\n"),
    (["psi", "--x", "1e6", "--y", "100", "--method", "all"],
     "log_x,y,count,method,boundary_ambiguous\n"
     "13.815510557964274,100,72271,enumerate,1\n"
     "13.815510557964274,100,72271,sieve,0\n"
     "13.815510557964274,100,72271,buchstab,0\n"),
    # y above sqrt(x): psi_sieve sieves the primes up to 3162 and bounds the cofactor by y
    (["psi", "--x", "1e7", "--y", "1e5", "--method", "all"],
     "log_x,y,count,method,boundary_ambiguous\n"
     "16.11809565095832,100000,6917610,enumerate,1\n"
     "16.11809565095832,100000,6917610,sieve,0\n"
     "16.11809565095832,100000,6917610,buchstab,0\n"),
    (["psi", "--log-x", "100", "--y", "10"],
     "log_x,y,count,method,boundary_ambiguous\n100,10,1940846,enumerate,0\n"),
]


@pytest.mark.parametrize("argv,want", CSV_PINS, ids=["_".join(a) for a, _ in CSV_PINS])
def test_csv_bytes_pinned(argv, want, capsys):
    assert run_cli(argv + ["--format", "csv"], capsys) == (0, want)


BAD_INPUTS = [
    (["compare", "--c", "0.7", "--x", "1"], 3),
    (["compare", "--c", "1.5", "--log-x", "0"], 3),
    (["compare", "--c", "0.7", "--log-x", "-3"], 3),
    (["compare", "--c", "1.5", "--log-x", "1e300"], 3),   # (log x)^c overflows
    (["compare", "--c", "1.5", "--log-x", "1e200"], 4),   # prime table beyond its cap
    (["oscillate", "--c", "1.5", "--y-min", "0", "--y-max", "1e3", "--y-steps", "3"], 3),
    (["oscillate", "--c", "1.5", "--y-min", "-5", "--y-max", "1e3", "--y-steps", "3"], 3),
    (["alpha", "--log-x", "1e300", "--y", "100"], 3),     # alpha below the solver floor
    (["alpha", "--log-x", "1.7e308", "--y", "2"], 3),     # u past xi's range, alpha as well
    (["xi", "--u", "1e308"], 3),                          # e^xi passes the largest double
    (["psi", "--log-x", "1e300", "--y", "3"], 4),         # the powers of 2 alone pass the cap
    (["alpha", "--x", "1e10", "--y", "1e300"], 4),        # prime table beyond its cap
    (["primes", "--limit", "1" + "0" * 400], 4),          # a limit past any float
    (["psi", "--x", "2e8", "--y", "100", "--method", "sieve"], 4),  # the sieve's own x cap
    (["psi", "--x", "1e400", "--y", "100", "--method", "sieve"], 4),  # x past any float
    (["psi", "--x", "1e400", "--y", "100", "--method", "buchstab"], 4),
    (["psi", "--log-x", "20", "--y", "100", "--method", "all"], 3),  # refused before counting
    (["compare", "--c", "1.2", "--max-count", "3"], 4),   # no feasible x: the count binds
    (["rho", "--export-grid", "--u", "3"], 3),            # the grid or one u, not both
    (["rho", "--export-grid", "--format", "json"], 3),    # the grid has a CSV form only
    (["compare", "--c", "1e-300", "--log-x", "100"], 3),  # y = 100^(1e-300) rounds to 1
    (["oscillate", "--c", "1.5", "--y-min", "1e3", "--y-max", "1e4",
      "--y-steps", "1000000000"], 4),                     # refused before the grid is built
    (["oscillate", "--c", "1.2", "--y-min", "16", "--y-max", "16",
      "--y-steps", "1" + "0" * 400], 4),                  # named in a few digits
]


@pytest.mark.parametrize("argv,code", BAD_INPUTS, ids=["_".join(a)[:60] for a, _ in BAD_INPUTS])
def test_bad_input_typed_exit(argv, code):
    proc = run_proc(argv)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert b"Traceback" not in proc.stderr
    assert len(proc.stderr) < 200  # no 301-digit limit


# sha256 of `rho --export-grid`: u,log_rho at the 16,385 nodes i/128 up to 128
EXPORT_GRID_SHA256 = "4c869ad9bbcab51e738a8990703d88a2472b1c5438c74df8b0813873c1cee910"


def test_rho_grid_export(tmp_path):
    path = tmp_path / "grid.csv"
    proc = run_proc(["rho", "--export-grid", "--output", str(path)])
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_GRID_SHA256
    lines = path.read_text().splitlines()
    assert lines[0] == "u,log_rho"
    assert lines[1] == "0,0"
    u, lr = lines[-1].split(",")
    assert float(u) == 128.0
    assert float(lr) < -500.0
    # every node to the bit, and the file and stdout forms agree
    proc = run_proc(["rho", "--export-grid"])
    assert proc.returncode == 0
    assert proc.stdout.count(b"\n") == 16386
    assert hashlib.sha256(proc.stdout).hexdigest() == EXPORT_GRID_SHA256
    assert proc.stdout == path.read_bytes()


def test_export_grid_is_csv_in_every_format_it_takes(capsys):
    # plain and csv both write the CSV grid; json is refused, not ignored
    for fmt in ("plain", "csv"):
        code, out = run_cli(["rho", "--export-grid", "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_GRID_SHA256, fmt
    assert run_cli(["rho", "--export-grid", "--format", "json"], capsys) == (3, "")


def test_export_grid_takes_no_path(tmp_path):
    # the grid goes where every result goes: stdout, or the --output file
    with pytest.raises(SystemExit) as exc:
        main(["rho", "--export-grid", str(tmp_path / "g.csv"),
              "--output", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_rho_log_flag(capsys):
    code, out = run_cli(["rho", "--u", "3", "--log"], capsys)
    assert code == 0
    _, out_plain = run_cli(["rho", "--u", "3"], capsys)
    assert math.isclose(math.exp(float(out)), float(out_plain), rel_tol=1e-15)


def test_xi_scalar_and_csv(capsys):
    code, out = run_cli(["xi", "--u", "1"], capsys)
    assert code == 0 and float(out) == 0.0
    code, out = run_cli(["xi", "--u", "3", "--format", "csv"], capsys)
    assert out.splitlines()[0] == "u,xi,residual"


def test_alpha_matches_library(capsys):
    from friabilis.prime_tables import sieve_primes
    from friabilis.saddle import solve_alpha
    code, out = run_cli(["alpha", "--x", "1e6", "--y", "100"], capsys)
    assert code == 0
    table = sieve_primes(100)
    state = solve_alpha(math.log(1e6), table, 100.0)
    assert float(out) == state.alpha  # repr round-trip is exact


def test_primes_csv(capsys):
    code, out = run_cli(["primes", "--limit", "10", "--format", "csv"], capsys)
    lines = out.splitlines()
    assert lines[0] == "p,log_p"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "3", "5", "7"]


def test_output_file_equals_stdout(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run_cli(["psi", "--x", "720", "--y", "7", "--format", "json"], capsys)
    assert code == 0
    code2, _ = run_cli(["psi", "--x", "720", "--y", "7", "--format", "json",
                        "--output", str(path)], capsys)
    assert code2 == 0
    assert path.read_text() == out


def test_output_removed_on_error(tmp_path, capsys):
    path = tmp_path / "P"
    code, _ = run_cli(["psi", "--x", "100", "--log-x", "4.6", "--y", "5",
                       "--output", str(path)], capsys)
    assert code == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["psi", "--x", "100", "--y", "5", "--output", "{dir}/nodir/P"],
    ["rho", "--export-grid", "--output", "{dir}/nodir/g.csv"],
])
def test_unwritable_path_exit_3(argv, tmp_path, capsys):
    argv = [a.format(dir=tmp_path) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"domain error: cannot write {argv[-1]}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["rho", "--u", "nan"],
    ["xi", "--u", "nan"],
    ["alpha", "--x", "1e6", "--y", "nan"],
    ["psi", "--x", "1e6", "--y", "nan"],
    ["psi", "--log-x", "nan", "--y", "5"],
    ["psi", "--log-x", "inf", "--y", "5"],
    ["compare", "--c", "nan", "--x", "1e6"],
])
def test_non_finite_float_option_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["alpha", "--x", "nan", "--y", "100"], "positive integer"),
    (["psi", "--x", "inf", "--y", "10"], "positive integer"),
    (["psi", "--x", "snan", "--y", "10"], "positive integer"),
    (["compare", "--c", "1.2", "--x", "nan"], "positive integer"),
    (["psi", "--x", "2.5", "--y", "10"], "positive integer"),
    (["psi", "--x", "1.5e-999999999999999999", "--y", "10"], "positive integer"),
    (["psi", "--x", "1e1000000", "--y", "10"], "--log-x"),
    (["psi", "--x", "1e10000000", "--y", "10"], "--log-x"),
    (["compare", "--c", "0.7", "--x", "1e999999999999999999"], "--log-x"),
])
def test_bad_x_is_usage_error(argv, message, capsys):
    # refused from the Decimal itself, before any huge int is built
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def test_parse_x_exact_up_to_the_digit_cap(capsys):
    cap = cli._MAX_X_DIGITS
    assert cli._parse_x("100e-2")[0] == cli._parse_x("1.000")[0] == 1
    assert cli._parse_x("12.5e3")[0] == 12500
    assert cli._parse_x("1e" + str(cap - 1))[0] == 10 ** (cap - 1)
    with pytest.raises(argparse.ArgumentTypeError, match="--log-x"):
        cli._parse_x("1e" + str(cap))
    # 2^k <= 10^5000 for k up to floor(5000 log2 10) = 16609
    code, out = run_cli(["psi", "--x", "1e5000", "--y", "2"], capsys)
    assert code == 0 and out == "16610\n"


def test_psi_log_x_beyond_float_exp(capsys):
    # e^800 overflows a float; the count needs only log x. Every 2^a 3^b
    # at most e^800, by a loop in Python ints against floor(e^800)
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        x = int(decimal.Decimal(800).exp())
    want = 0
    q3 = 1
    while q3 <= x:
        q = q3
        while q <= x:
            want += 1
            q *= 2
        q3 *= 3
    code, out = run_cli(["psi", "--log-x", "800", "--y", "3"], capsys)
    assert code == 0
    assert int(out) == want == 421165


def test_methods_disagree_exit_5(monkeypatch, capsys):
    real = cli.psi_sieve

    def off_by_one(*args, **kwargs):
        r = real(*args, **kwargs)
        r.count += 1
        return r

    monkeypatch.setattr(cli, "psi_sieve", off_by_one)
    code = main(["psi", "--x", "100", "--y", "5", "--method", "all"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "sieve=35" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("method", ["buchstab", "all"])
def test_log_x_refused_before_counting(method, monkeypatch, capsys):
    # the exact methods need an exact x; the enumerator must not run first
    def counted(*args, **kwargs):
        raise AssertionError("psi_enumerate ran before the refusal")

    monkeypatch.setattr(cli, "psi_enumerate", counted)
    code = main(["psi", "--log-x", "41.4", "--y", "41.4", "--method", method])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"domain error: method {method} needs an exact --x, not --log-x\n"


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_rows_stream(tmp_path):
    # CSV writes each row as it is made: 78,498 rows of primes up to 1e6 take
    # about the plain count's memory, not a list of every row first
    argv = ["primes", "--limit", "1000000", "--output", str(tmp_path / "p.txt")]
    plain = _traced_peak(argv)
    csv = _traced_peak(argv + ["--format", "csv"])
    assert csv < 2 * plain, (csv, plain)


def test_json_rows_stream(tmp_path):
    # JSON too writes each row as it is made, in json.dump's layout: the
    # 78,498 rows up to 1e6 take about the plain count's memory
    argv = ["primes", "--limit", "1000000", "--output", str(tmp_path / "p.txt")]
    plain = _traced_peak(argv)
    doc = _traced_peak(argv + ["--format", "json"])
    assert doc < 2 * plain, (doc, plain)


@pytest.mark.parametrize("argv", [
    "primes --limit 1000",
    "rho --u 20 --log",
    "xi --u 3",
    "psi --x 1e6 --y 100 --method all",
    "alpha --x 1e10 --y 1000",
    "alpha --log-x 0.9 --y 2",  # c is NaN, so the row holds a null
    "oscillate --c 1.5 --y-min 1e3 --y-max 1e4 --y-steps 3",
    "compare --c 0.7 --x 1e8",
])
def test_json_bytes_are_json_dump(argv, capsys):
    # --format json writes json.dump(doc, indent=2)'s bytes, not only a parseable document
    code, out = run_cli(argv.split() + ["--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("fmt, sums", [("plain", 0), ("csv", 1)])
def test_alpha_sums_the_residual_only_when_printed(fmt, sums, capsys, monkeypatch):
    # the residual is one exact_sum over every log-prime p <= y; plain
    # output prints alpha alone and never reads it
    from friabilis import saddle
    calls = []
    real = saddle.exact_sum

    def counted(arr):
        calls.append(len(arr))
        return real(arr)

    monkeypatch.setattr(saddle, "exact_sum", counted)
    code, out = run_cli(["alpha", "--x", "1e10", "--y", "1000", "--format", fmt], capsys)
    assert code == 0 and out
    assert len(calls) == sums


@pytest.mark.parametrize("argv, want", [
    ("psi --x 1000 --y 1e6 --method all", "1000\n"),
    # y past the 1e8 table cap: only the clamp to y <= x + 1 keeps this off exit 4
    ("psi --log-x 5 --y 1e9", "148\n"),
    # y >= x is counted before the sieve's x cap of 1e8 is checked
    ("psi --x 1e9 --y 2e9 --method sieve", "1000000000\n"),
])
def test_psi_y_above_x_is_clamped(argv, want, capsys):
    assert run_cli(argv.split(), capsys) == (0, want)


def test_primes_limit_2_lists_only_2(capsys):
    from friabilis.prime_tables import sieve_primes
    from friabilis.saddle import solve_alpha
    assert run_cli(["primes", "--limit", "2"], capsys) == (0, "1\n")
    assert run_cli(["primes", "--limit", "2", "--format", "csv"], capsys) == (
        0, "p,log_p\n2,0.69314718055994529\n")
    for limit in ("1", "0", "-3"):
        assert run_cli(["primes", "--limit", limit], capsys)[0] == 3
    # y = 2 now gets a table of the one prime 2
    assert run_cli(["psi", "--x", "1e6", "--y", "2", "--method", "all"], capsys) == (0, "20\n")
    code, out = run_cli(["alpha", "--x", "1e6", "--y", "2"], capsys)
    assert code == 0
    assert float(out) == solve_alpha(math.log(1e6), sieve_primes(100), 2.0).alpha


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_count_not_positive_exit_3(cap, capsys):
    for argv in (["psi", "--x", "1e6", "--y", "100"], ["compare", "--c", "1.2"]):
        assert main(argv + ["--max-count", cap]) == 3
        assert "max_count must be positive" in capsys.readouterr().err


def test_no_scipy_at_runtime():
    # neither the package nor its tests use scipy, whose import once took most
    # of the CLI's start-up; importing the package and its CLI must not load it
    code = ("import sys, friabilis, friabilis.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


def test_both_x_forms_rejected():
    assert run_proc(["psi", "--x", "100", "--log-x", "4.6", "--y", "5"]).returncode == 3
    assert run_proc(["psi", "--y", "5"]).returncode == 3


def test_oscillate_bad_grid():
    assert run_proc(["oscillate", "--c", "1.5", "--y-min", "1e4",
                     "--y-max", "1e3", "--y-steps", "3"]).returncode == 3
    assert run_proc(["oscillate", "--c", "1.5", "--y-min", "1e3",
                     "--y-max", "1e4", "--y-steps", "0"]).returncode == 3


def test_oscillate_step_cap(capsys):
    base = ["oscillate", "--c", "1.5", "--y-min", "1e3", "--y-max", "1e4", "--y-steps"]
    code, out = run_cli(base + [str(cli._MAX_Y_STEPS)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + cli._MAX_Y_STEPS
    assert run_cli(base + [str(cli._MAX_Y_STEPS + 1)], capsys) == (4, "")


# --- drawn argument vectors ---------------------------------------------------------

_REALS = ["nan", "inf", "-inf", "0", "-0", "-1", "-1e300", "1e-300", "1e300", "1e400",
          "0.9999999999999999", "1", "1.0000000000000002",
          "1.9999999999999998", "2", "2.0000000000000004", "0.5", "1.5", "3", "30", "100"]
_XS = ["nan", "inf", "-1", "0", "1", "2", "3", "1.5", "100", "1e6", "1e300", "1e400"]
# oscillate solves once per step, so the counts it runs are small; the huge
# ones are refused by its step cap before any grid or prime table is built
_STEPS = ["-1", "0", "1", "2", "3", "1.5", "nan", "1000000000", "1" + "0" * 30]
# small count caps keep each call to milliseconds
_CAPS = ["nan", "inf", "-1", "0", "1e-300", "1", "2", "100", "1e4"]
# option -> values, the required options of each subcommand first
_FUZZ_OPTIONS = {
    "primes": ({"--limit": ["-1", "0", "1", "2", "3", "100", "1e3", "1" + "0" * 400]}, {}),
    "rho": ({}, {"--u": _REALS, "--log": None, "--export-grid": None}),
    "xi": ({"--u": _REALS}, {}),
    "alpha": ({"--y": _REALS}, {"--x": _XS, "--log-x": _REALS}),
    "psi": ({"--y": _REALS, "--max-count": _CAPS},
            {"--x": _XS, "--log-x": _REALS, "--method": ["enum", "sieve", "buchstab", "all"]}),
    "compare": ({"--c": _REALS, "--max-count": _CAPS}, {"--x": _XS, "--log-x": _REALS}),
    "oscillate": ({"--c": _REALS, "--y-min": _REALS, "--y-max": _REALS, "--y-steps": _STEPS},
                  {}),
}


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    required, optional = _FUZZ_OPTIONS[sub]
    drawn = {**required, **{opt: v for opt, v in optional.items() if draw(st.booleans())}}
    if draw(st.booleans()):
        drawn["--format"] = ["plain", "csv", "json"]
    # "--opt=value", so that "-1e300" is taken as a value; every count runs
    # under a small cap
    return [sub] + [opt if values is None else f"{opt}={draw(st.sampled_from(values))}"
                    for opt, values in drawn.items()]


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(argv=_argvs())
def test_no_traceback_from_any_argv(argv):
    # main returns a documented exit code or argparse exits 2; anything else
    # that escapes, a NumericError included, is a bug
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 3, 4, 5), argv
